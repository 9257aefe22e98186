import gc
import sys
from dataclasses import replace
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mingap import anticrossing, spectral
from mingap.anticrossing import (
    GapBounds,
    build_report,
    compute_overlaps,
    min_gap_bounds,
    partition_final_levels,
    wilkinson_fit,
)
from mingap.basis import enumerate_basis
from mingap.cli import derivative_checks, identity_checks, main
from mingap.clique import random_instance, toy_example_1, toy_example_2
from mingap.hamiltonian import (
    HamiltonianPair,
    build_diagonal_target,
    build_swap_mixer,
    build_transverse_field,
    clique_pair,
    interpolate,
    interpolate_csr,
)
from mingap.spectral import (
    LANCZOS_MIN_DIM,
    DegeneracyError,
    EigendecompositionError,
    _gap_at,
    decompose_interpolated,
    eigendecompose,
    eigenvalue_derivative,
    eigenvalue_second_derivative,
    eigenvector_derivative,
    energy_identity_residual,
    energy_identity_residuals,
    failure_condition_residual,
    gap_identity_residual,
    gap_identity_residuals,
    min_gap,
    sweep,
)

from oracles import (
    TwoLevelOracle,
    dense_gap,
    fine_scan_min_gap,
    jacobi_eigh,
    projection_identity_entries,
    threaded_gauge,
)

# frozen by an independent fine-grid scan (2001 coarse points, tol 1e-12)
TOY1_ALPHA0_S_STAR = 0.692118551461
TOY1_ALPHA0_DELTA_MIN = 4.171060324269e-02


def two_level_pair(e0, e1, coupling):
    basis = enumerate_basis(1)
    h0 = np.array([[0.0, -coupling], [-coupling, 0.0]])
    return HamiltonianPair(basis=basis, h0=h0,
                           h1_diag=build_diagonal_target([e0, e1], basis))


# ---------------------------------------------------------------------------
# eigendecompose


def test_eigendecompose_two_by_two():
    w, v = eigendecompose(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


def test_eigendecompose_diagonal():
    w, v = eigendecompose(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigendecompose_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_eigendecompose_residual_and_orthonormality():
    pair = clique_pair(toy_example_1(0.5).graph)
    h = interpolate(pair, 0.5)
    w, v = eigendecompose(h)
    for k in range(pair.dim):
        r = np.linalg.norm(h @ v[:, k] - w[k] * v[:, k])
        assert r <= 1e-10 * (1 + abs(w[k]))
    assert np.linalg.norm(v.T @ v - np.eye(pair.dim)) <= 1e-10


@pytest.mark.parametrize("order", ["rows", "cols"])
def test_eigendecompose_against_jacobi(order):
    """Independent-solver cross-check at the toy instance midpoint."""
    pair = clique_pair(toy_example_1(0.5).graph)
    h = interpolate(pair, 0.5)
    w, _ = eigendecompose(h)
    w_j, _ = jacobi_eigh(h, sweep_order=order)
    assert np.max(np.abs(w - w_j)) <= 1e-9


# ---------------------------------------------------------------------------
# sweep


def test_sweep_endpoints(bundles):
    b = bundles("toy1", 0.5)
    w0, _ = eigendecompose(b.pair.h0)
    assert np.allclose(b.sweep.energies[0], w0, atol=1e-12)
    assert np.allclose(b.sweep.energies[-1], np.sort(b.pair.h1_diag), atol=1e-12)
    gs = int(np.argmin(b.pair.h1_diag))
    assert abs(b.sweep.vectors[-1, gs, 0]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_gauge_continuity(bundles):
    b = bundles("toy1", 0.5)
    dots = np.einsum("tik,tik->tk", b.sweep.vectors[:-1], b.sweep.vectors[1:])
    assert np.min(dots) >= -1e-12


def test_sweep_sorted_and_weyl_bound():
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, 201)
    swp = sweep(pair, grid)
    assert np.all(np.diff(swp.energies, axis=1) >= -1e-12)
    lipschitz = np.linalg.norm(np.diag(pair.h1_diag) - pair.h0, 2)
    steps = np.diff(grid)[:, None]
    assert np.all(np.abs(np.diff(swp.energies, axis=0)) <= steps * lipschitz + 1e-12)


def test_sweep_upper_levels_pinch_around_crossing(bundles):
    """Near alpha = 1/2 the first and second excited levels approach each
    other both before and (more tightly) after the lowest-pair crossing."""
    b = bundles("toy1", 0.5)
    gap12 = b.sweep.energies[:, 2] - b.sweep.energies[:, 1]
    grid = b.sweep.grid
    before = gap12[grid < b.mg.s_star - 0.01]
    after = gap12[grid > b.mg.s_star + 0.01]
    assert before.min() < 0.1
    assert after.min() < before.min()
    assert gap12[300] > 4 * before.min()  # the pinch is localized


def test_sweep_gap_positive_before_end(bundles):
    for name, alpha in (("toy1", 0.5), ("toy2", 0.2)):
        b = bundles(name, alpha)
        assert np.all(b.sweep.gaps()[:-1] > 0)


def test_sweep_validation():
    pair = clique_pair(toy_example_1(0.5).graph)
    with pytest.raises(ValueError):
        sweep(pair, [0.5])
    with pytest.raises(ValueError):
        sweep(pair, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        sweep(pair, [-0.1, 1.0])


TOY_LADDER = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.66, 0.6666, 0.66666)


def zero_target_pair():
    """Four states on a complete mixer graph and a zero target: H(s) is
    (1-s) H0, with a threefold degenerate excited level at every s < 1."""
    basis = enumerate_basis(2)
    return HamiltonianPair(
        basis=basis,
        h0=np.diag([0.0, 0.0, 0.0, 0.0]) - (np.ones((4, 4)) - np.eye(4)),
        h1_diag=build_diagonal_target(np.zeros(4), basis),
    )


def assert_sweep_matches_gauge_oracle(pair, grid, levels):
    """``sweep`` equals, bit for bit, the gauge threaded point by point
    (``oracles.threaded_gauge``) over the same solves of every grid point."""
    keep = None if levels is None else min(max(levels, 2), pair.dim)
    swp = sweep(pair, grid, levels=levels)
    energies, vectors = threaded_gauge(
        spectral._eigensolve(pair, s, levels=keep, lanczos=True) for s in swp.grid
    )
    assert np.array_equal(swp.energies, energies)
    assert np.array_equal(swp.vectors, vectors)


@pytest.mark.parametrize("levels", [2, 6, None])
@pytest.mark.parametrize("name", ["toy1", "toy2"])
def test_sweep_gauge_matches_oracle_on_the_alpha_ladder(name, levels):
    builder = {"toy1": toy_example_1, "toy2": toy_example_2}[name]
    for alpha in TOY_LADDER:
        assert_sweep_matches_gauge_oracle(
            clique_pair(builder(alpha).graph), np.linspace(0.0, 1.0, 201), levels
        )


@pytest.mark.parametrize("levels", [2, 6, None])
@pytest.mark.parametrize("case", ["transverse-field", "zero-target", "random-d252"])
def test_sweep_gauge_matches_oracle_on_degenerate_and_large_cases(case, levels):
    """The transverse-field toy holds degenerate clusters along the path,
    the zero-target pair overlaps of exactly zero, and d=252 the
    dimension of the verify workload."""
    if case == "transverse-field":
        pair, points = clique_pair(toy_example_1(0.5).graph, "transverse_field"), 201
    elif case == "zero-target":
        pair, points = zero_target_pair(), 101
    else:
        pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
        points = 21
    assert_sweep_matches_gauge_oracle(pair, np.linspace(0.0, 1.0, points), levels)


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    levels=st.sampled_from([1, 2, 6, None]),
    points=st.integers(2, 61),
)
def test_sweep_gauge_matches_oracle_on_random_instances(n, data, seed, alpha, mixer, levels, points):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    assume(pair.dim <= 70)
    assert_sweep_matches_gauge_oracle(pair, np.linspace(0.0, 1.0, points), levels)


# ---------------------------------------------------------------------------
# partial sweep against the dense reference

_PARTIAL_CASES = {
    "toy1": lambda: toy_example_1(0.5),
    "toy2": lambda: toy_example_2(0.2),
    "random-d252": lambda: random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3),
    "random-d462": lambda: random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3),
}


@pytest.fixture(scope="module")
def dense_and_partial():
    """(dense sweep, partial sweep with ``levels``) of a named instance on
    ``grid``; the dense one is cached per instance and grid, cut to its
    lowest seven levels."""
    dense_sweeps = {}

    def get(name, grid, levels):
        key = (name, len(grid), float(grid[0]))
        if key not in dense_sweeps:
            pair = clique_pair(_PARTIAL_CASES[name]().graph)
            full = sweep(pair, grid)
            # keep levels 0-6, all that the tests read: the full vectors
            # are 172 MB per grid at d=462
            dense_sweeps[key] = replace(
                full, energies=full.energies[:, :7].copy(), vectors=full.vectors[:, :, :7].copy()
            )
        dense = dense_sweeps[key]
        return dense, sweep(dense.pair, grid, levels=levels)

    return get


@pytest.mark.parametrize("levels", [1, 2, 6])
@pytest.mark.parametrize("name", sorted(_PARTIAL_CASES))
def test_partial_sweep_energies_match_dense(dense_and_partial, name, levels):
    grid = np.linspace(0.0, 1.0, 101)
    dense, partial = dense_and_partial(name, grid, levels)
    m = max(levels, 2)
    d = dense.pair.dim
    assert partial.energies.shape == (len(grid), m)
    assert partial.vectors.shape == (len(grid), d, m)
    assert np.max(np.abs(partial.energies - dense.energies[:, :m])) <= 1e-12
    dots = np.einsum("tik,tik->tk", partial.vectors[:-1], partial.vectors[1:])
    assert np.min(dots) >= -1e-12


@pytest.mark.parametrize("levels", [2, 6])
@pytest.mark.parametrize("name", sorted(_PARTIAL_CASES))
def test_partial_sweep_vectors_match_dense(dense_and_partial, name, levels):
    # H(0) = H0 has degenerate excited levels and H(1) degenerate final
    # levels; either solve may return any basis of such an eigenspace, and
    # the gauge continued from it differs by a sign.  Start inside (0, 1).
    grid = np.linspace(0.01, 0.99, 99)
    dense, partial = dense_and_partial(name, grid, levels)
    m = levels
    tol = np.array([spectral.degeneracy_tolerance(w) for w in dense.energies])
    separated = dense.energies[:, [m]] - dense.energies[:, :m] > tol[:, None]
    assert separated[:, 0].all()
    diff = np.max(np.abs(partial.vectors - dense.vectors[:, :, :m]), axis=1)
    assert np.max(diff[separated]) <= 1e-10


def test_partial_sweep_level_count():
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, 11)
    assert sweep(pair, grid, levels=1).energies.shape == (11, 2)
    full = sweep(pair, grid, levels=pair.dim + 5)
    assert full.vectors.shape == (11, pair.dim, pair.dim)
    assert np.max(np.abs(full.energies - sweep(pair, grid).energies)) <= 1e-12
    with pytest.raises(ValueError, match="levels"):
        sweep(pair, grid, levels=0)


def test_default_report_sweeps_two_levels_and_decomposes_fully_once(monkeypatch):
    calls, lanczos_calls = [], []
    original = spectral._eigensolve

    def counting(pair, s, levels=None, vectors=True, lanczos=False):
        calls.append((levels, vectors))
        if lanczos:
            lanczos_calls.append(s)
        return original(pair, s, levels=levels, vectors=vectors, lanczos=lanczos)

    for module in (spectral, anticrossing):
        monkeypatch.setattr(module, "_eigensolve", counting)
    pair = clique_pair(toy_example_1(0.5).graph)
    report, swp, point = build_report(pair, grid_points=201)
    assert report.rotation is not None and report.solution_derivative is not None
    assert swp.vectors.shape == (201, pair.dim, 2)
    assert point.series.solution.shape == (201, 2)
    # s* alone is decomposed in full; every other solve asks for two levels:
    # the 201 sweep points and s* +- h with vectors, the gap probes without
    assert calls.count((None, True)) == 1
    assert {levels for levels, _ in calls} == {None, 2}
    assert calls.count((2, True)) == 201 + 2
    # the Lanczos route is open to the sweep points and, the gap minimum
    # being resolved, to the probes placed after it: 4 fit-window probes,
    # 25 fit samples, 4 step probes and s* +- h; min_gap's refinement
    # probes and s* stay dense
    assert report.delta_min > spectral.resolution_floor(pair, report.s_star)
    assert np.array_equal(lanczos_calls[:201], swp.grid)
    assert len(lanczos_calls) == 201 + 4 + 25 + 4 + 2


# ---------------------------------------------------------------------------
# min gap


def test_min_gap_zero_target_flagged_degenerate():
    basis = enumerate_basis(6, 3)
    pair = HamiltonianPair(
        basis=basis,
        h0=build_swap_mixer(6, 3),
        h1_diag=build_diagonal_target(np.zeros(20), basis),
    )
    res = min_gap(pair)
    assert res.s_star == 1.0
    assert res.degenerate_at_end
    assert res.delta_min <= 1e-12


def test_min_gap_regression_constants():
    pair = clique_pair(toy_example_1(0.0).graph)
    res = min_gap(pair, tol=1e-10)
    s_star, delta = res
    assert s_star == pytest.approx(TOY1_ALPHA0_S_STAR, abs=1e-7)
    assert delta == pytest.approx(TOY1_ALPHA0_DELTA_MIN, rel=1e-9)
    assert not res.degenerate_at_end and not res.all_degenerate


def test_min_gap_two_level_closed_form():
    oracle = TwoLevelOracle(0.0, 1.0, 1.0)
    pair = two_level_pair(0.0, 1.0, 1.0)
    res = min_gap(pair, tol=1e-12)
    hyp = oracle.hyperbola()
    # s locatable only to the flat-minimum noise floor sqrt(eps Delta / Delta'')
    assert res.s_star == pytest.approx(hyp["s_star"], abs=1e-7)
    assert res.delta_min == pytest.approx(hyp["delta_min"], rel=1e-12)


@pytest.mark.parametrize("coupling", [1e-12, 1e-13])
@pytest.mark.parametrize("start", [0.7, 1.3])
def test_min_gap_resolves_a_minimum_narrower_than_tol(coupling, start):
    # H(s) = (1-s) [[start, -c], [-c, 0]] + s diag(0, 1): the gap is
    # sqrt((start - (1 + start) s)^2 + 4 c^2 (1-s)^2), a V of slope
    # 1 + start far wider than its apex, Delta_min / slope << tol
    basis = enumerate_basis(1)
    h0 = np.array([[start, -coupling], [-coupling, 0.0]])
    pair = HamiltonianPair(basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 1.0], basis))
    slope = 1.0 + start
    s_star = (slope * start + 4 * coupling**2) / (slope**2 + 4 * coupling**2)
    delta = np.hypot(start - slope * s_star, 2 * coupling * (1.0 - s_star))
    res = min_gap(pair, tol=1e-10)
    assert res.s_star == pytest.approx(s_star, abs=1e-14)
    assert abs(res.delta_min - delta) <= 4 * np.finfo(float).eps * slope


def test_min_gap_alpha_trend():
    deltas = []
    for alpha in (0.0, 0.2, 0.4, 0.5, 0.6, 0.66):
        pair = clique_pair(toy_example_1(alpha).graph)
        deltas.append(min_gap(pair).delta_min)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_min_gap_validation():
    pair = clique_pair(toy_example_1(0.5).graph)
    with pytest.raises(ValueError):
        min_gap(pair, coarse_points=10)
    with pytest.raises(ValueError):
        min_gap(pair, tol=0.0)


def test_min_gap_needs_a_sweep_over_the_whole_interval():
    pair = clique_pair(toy_example_1(0.5).graph)
    with pytest.raises(ValueError):
        min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 0.9, 91)))
    with pytest.raises(ValueError):
        min_gap(pair, sweep=sweep(pair, np.linspace(0.1, 1.0, 91)))


def assert_matches_fine_scan(pair, res):
    """s* within 1e-6 and Delta_min within 1e-7 relative plus the
    round-off floor d^2 eps ||H|| of the independent fine-scan oracle.
    Where a minimum is too flat for float64 to fix s* to 1e-6, s* may miss
    by more, provided the oracle's own gap at the returned s* lies within
    that same Delta bound of the oracle's minimum."""
    s_ref, delta_ref = fine_scan_min_gap(pair.h0, pair.h1_diag)
    norm = np.max(np.abs(pair.h0).sum(axis=1)) + np.max(np.abs(pair.h1_diag))
    floor = pair.dim**2 * np.finfo(float).eps * norm
    bound = 1e-7 * abs(delta_ref) + floor
    assert abs(res.delta_min - delta_ref) <= bound
    if res.s_star != pytest.approx(s_ref, abs=1e-6):
        at_s_star = dense_gap(pair.h0, pair.h1_diag, res.s_star)
        assert abs(at_s_star - delta_ref) <= bound, f"s*={res.s_star}, oracle s*={s_ref}"


@pytest.mark.parametrize("seed, alpha", [(1, 0.3), (2, 0.3), (2, 0.6)])
def test_min_gap_refines_a_minimum_inside_the_last_cell(seed, alpha):
    # the smallest grid gap is at s=1, the true minimum just before it
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    res = min_gap(pair)
    assert 0.999 < res.s_star < 1.0
    assert not res.degenerate_at_end
    assert_matches_fine_scan(pair, res)


@settings(max_examples=15, deadline=None, database=None)
@given(
    n=st.integers(5, 8),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    grid_points=st.sampled_from([51, 101]),
)
# a flat minimum: s* and the oracle's s* lie 2.5e-6 apart, their gaps 5.9e-8
# relative, and the oracle's gap at s* reads 9.3e-9 relative below its own
@example(n=5, seed=131, alpha=2**-23, grid_points=51)
def test_min_gap_on_a_sweep_matches_fine_scan(n, seed, alpha, grid_points):
    pair = clique_pair(random_instance(n, n // 2, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    res = min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 1.0, grid_points)))
    assert_matches_fine_scan(pair, res)


def test_min_gap_finds_a_dip_inside_a_cell_the_ground_vector_swaps_across():
    # both end slopes of the last cell are positive: the gap rises from
    # s=0.99, peaks, dips to 6.1e-7 at s~0.99941 and rises again; the
    # ground vector swaps character across the cell (overlap 0.0077)
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=238811247, alpha=0.0015187877390547833)
    pair = clique_pair(instance.graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 101))
    assert abs(swp.vectors[-2, :, 0] @ swp.vectors[-1, :, 0]) < 0.01
    assert_matches_fine_scan(pair, min_gap(pair, sweep=swp))


def test_min_gap_narrows_a_swap_cell_where_the_gap_slope_turns():
    # the gap slope turns from negative to positive across the last cell,
    # which holds a wide local minimum (6.1e-4 at s~0.99992) and, where
    # the ground vector swaps character, a narrow one (3.5e-13 at
    # s~0.98239); a golden section over the whole cell stops in the wide one
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=223765, alpha=0.03125)
    pair = clique_pair(instance.graph)
    res = min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 1.0, 51)))
    assert res.delta_min < 1e-12
    assert_matches_fine_scan(pair, res)


def test_min_gap_finds_a_dip_beside_the_final_splitting():
    # final levels within alpha=1e-8: between s=1 and s=1-5.3e-9 the gap
    # sits at the final splitting 1.9e-10, then falls in a V of width
    # 3e-10 to a few 1e-15 at s=1-5.5e-9 (40-digit mpmath: 2.9e-15); a
    # bounded search of the whole last cell stops on the plateau
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=223765, alpha=1e-8)
    pair = clique_pair(instance.graph)
    res = min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 1.0, 101)))
    assert res.delta_min < 1e-13 and 0.0 < 1.0 - res.s_star < 1e-8
    assert_matches_fine_scan(pair, res)


def test_min_gap_keeps_the_exact_gap_at_s1_over_round_off():
    # three final levels within 2e-183: the gap falls to s=1, where H is
    # diagonal and reads 1.7e-184 exactly; the golden section on the
    # last cell read 0.0 at s=0.99996, which is round-off
    instance = random_instance(7, 3, 0.5, 0.5, 1.5, seed=1930, alpha=2.5938840776952347e-183)
    pair = clique_pair(instance.graph)
    res = min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 1.0, 51)))
    assert res.s_star == 1.0 and res.degenerate_at_end
    assert_matches_fine_scan(pair, res)


def test_min_gap_reads_the_sweep_in_place():
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 201))
    tracemalloc.start()
    try:
        min_gap(pair, sweep=swp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < swp.vectors.nbytes / 4


# ---------------------------------------------------------------------------
# derivatives


def test_eigenvalue_derivative_at_end():
    pair = clique_pair(toy_example_1(0.5).graph)
    gs = int(np.argmin(pair.h1_diag))
    d = eigenvalue_derivative(pair, 1.0, 0)
    assert d == pytest.approx(pair.h1_diag[gs] - pair.h0[gs, gs], abs=1e-12)


def test_derivative_trace_identity():
    pair = clique_pair(toy_example_1(0.5).graph)
    for s in (0.21, 0.63):
        total = sum(eigenvalue_derivative(pair, s, k) for k in range(pair.dim))
        expected = float(np.sum(pair.h1_diag) - np.trace(pair.h0))
        assert total == pytest.approx(expected, abs=1e-9)


def assert_checks_pass(checks):
    assert all(c["status"] == "pass" for c in checks if c["status"] != "report"), checks


def test_derivatives_match_finite_differences():
    pair = clique_pair(toy_example_1(0.5).graph)
    s_star = min_gap(pair).s_star
    samples = np.random.default_rng(5).uniform(0.05, 0.95, 40)
    points = [float(s) for s in samples if abs(s - s_star) >= 0.03][:20]
    assert len(points) == 20
    assert_checks_pass(derivative_checks(pair, points))


def test_vector_derivative_orthogonal_and_fd():
    pair = clique_pair(toy_example_1(0.5).graph)
    for s in (0.2, 0.45, 0.6):
        v = decompose_interpolated(pair, s)[1]
        assert abs(eigenvector_derivative(pair, s, 0) @ v[:, 0]) <= 1e-12
    assert_checks_pass(derivative_checks(pair, (0.2, 0.45, 0.6)))


def test_two_level_derivatives_closed_form():
    oracle = TwoLevelOracle(0.0, 0.8, 0.7)
    pair = two_level_pair(0.0, 0.8, 0.7)
    for s in (0.15, 0.5, 0.85):
        d0, d1 = oracle.value_derivatives(s)
        assert eigenvalue_derivative(pair, s, 0) == pytest.approx(d0, abs=1e-12)
        assert eigenvalue_derivative(pair, s, 1) == pytest.approx(d1, abs=1e-12)
        dd0, dd1 = oracle.value_second_derivatives(s)
        assert eigenvalue_second_derivative(pair, s, 0) == pytest.approx(dd0, abs=1e-10)
        assert eigenvalue_second_derivative(pair, s, 1) == pytest.approx(dd1, abs=1e-10)
        dv = eigenvector_derivative(pair, s, 0)
        v0 = oracle.vectors(s)[:, 0]
        v0_lib = decompose_interpolated(pair, s)[1][:, 0]
        sign = 1.0 if v0 @ v0_lib >= 0 else -1.0
        assert np.linalg.norm(dv - sign * oracle.vector_derivative(s, 0)) <= 1e-11


def test_second_derivative_of_ground_is_concave():
    pair = clique_pair(toy_example_1(0.5).graph)
    for s in (0.1, 0.5, 0.9):
        assert eigenvalue_second_derivative(pair, s, 0) <= 0


def test_derivative_rejects_degenerate_level():
    pair = clique_pair(toy_example_1(0.0).graph)
    # at s=1 the first excited target level is eight-fold degenerate
    with pytest.raises(DegeneracyError):
        eigenvalue_derivative(pair, 1.0, 1)


# ---------------------------------------------------------------------------
# projection identities


def test_energy_identity_exact_at_end():
    pair = clique_pair(toy_example_1(0.5).graph)
    order = np.argsort(pair.h1_diag)
    for k in (0, 1):
        i = int(order[k])
        r = energy_identity_residual(pair, 1.0, i, k)
        assert r is not None and abs(r) <= 1e-12


def test_energy_identity_guard_returns_none():
    pair = clique_pair(toy_example_1(0.5).graph)
    order = np.argsort(pair.h1_diag)
    # at s=1 the eigenvectors are basis states: off-support components vanish
    assert energy_identity_residual(pair, 1.0, int(order[5]), 0) is None


def test_energy_identity_on_grid(bundles):
    pair = bundles("toy1", 0.5).pair
    dense = [(s, decompose_interpolated(pair, s)) for s in np.linspace(0.0, 1.0, 21)]
    assert_checks_pass(identity_checks(pair, dense))


def test_energy_identity_transverse_zero_target():
    basis = enumerate_basis(3)
    pair = HamiltonianPair(
        basis=basis,
        h0=build_transverse_field(3),
        h1_diag=build_diagonal_target(np.zeros(8), basis),
    )
    for s in (0.0, 0.4, 0.9):
        r = energy_identity_residual(pair, s, 0, 0)
        assert r is not None and abs(r) <= 1e-10


def test_gap_identity_midpoint_and_ground_state_row(bundles):
    b = bundles("toy1", 0.5)
    for i in range(b.pair.dim):
        r = gap_identity_residual(b.pair, 0.5, i)
        if r is not None:
            assert abs(r) <= 1e-8 * (1 + b.sweep.gaps().min())
    gs = int(np.argmin(b.pair.h1_diag))
    for s in np.linspace(0.05, 0.95, 10):
        r = gap_identity_residual(b.pair, s, gs)
        assert r is not None and abs(r) <= 1e-8


def test_gap_identity_two_level_closed_form():
    oracle = TwoLevelOracle(0.0, 1.0, 0.6)
    pair = two_level_pair(0.0, 1.0, 0.6)
    for s in (0.3, 0.7):
        r = gap_identity_residual(pair, s, 0)
        assert r is not None and abs(r) <= 1e-12
        lam0, lam1 = oracle.values(s)
        w, _ = decompose_interpolated(pair, s)
        assert np.allclose(w, [lam0, lam1], atol=1e-12)


def assert_identity_arrays_match_scalars(pair, s):
    """The array identities, and the scalar forms on the lowest two and the
    top level, against the dense per-entry oracle: the same guarded (NaN /
    None) entries, and every other entry within four roundings of the
    magnitudes that enter it."""
    dec = decompose_interpolated(pair, s)
    w, v = dec
    d = pair.dim
    energy = energy_identity_residuals(pair, s, decomposition=dec)
    gap = gap_identity_residuals(pair, s, decomposition=dec)
    assert energy.shape == (d, d) and gap.shape == (d,)
    energy_ref, gap_ref = projection_identity_entries(
        pair.h0, pair.h1_diag, s, w, v, spectral.COMPONENT_GUARD
    )

    def entry(r):
        return np.nan if r is None else r

    levels = sorted({0, 1, d - 1})
    energy_scalar = np.array([[entry(energy_identity_residual(pair, s, i, k, decomposition=dec))
                               for k in levels] for i in range(d)])
    gap_scalar = np.array([entry(gap_identity_residual(pair, s, i, decomposition=dec))
                           for i in range(d)])

    eps = np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        spread = (1.0 - s) * (np.abs(pair.h0) @ np.abs(v)) / np.abs(v)
    energy_scale = 4 * eps * (np.abs(w)[None, :] + s * np.abs(pair.h1_diag)[:, None] + spread)
    gap_scale = 4 * eps * (abs(w[1] - w[0]) + spread[:, 0] + spread[:, 1])
    checked = ((energy, gap, slice(None)), (energy_scalar, gap_scalar, levels))
    for got_energy, got_gap, columns in checked:
        ref, scale = energy_ref[:, columns], energy_scale[:, columns]
        live, live_gap = ~np.isnan(ref), ~np.isnan(gap_ref)
        assert np.array_equal(np.isnan(got_energy), ~live)
        assert np.array_equal(np.isnan(got_gap), ~live_gap)
        assert np.all(np.abs(got_energy - ref)[live] <= scale[live])
        assert np.all(np.abs(got_gap - gap_ref)[live_gap] <= gap_scale[live_gap])


def test_identity_checks_of_a_point_work_in_one_buffer():
    """At d=252 one point of ``identity_checks`` peaks at two d x d arrays
    of temporaries: the product H0 v, the buffer every later step of the
    energy identity writes into, and the row-major copy of v the sparse
    product makes.  With a new array per step it peaked at 3.13."""
    pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    points = [(0.5, decompose_interpolated(pair, 0.5))]
    identity_checks(pair, points)
    tracemalloc.start()
    try:
        identity_checks(pair, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * pair.dim**2 * 8


@pytest.mark.parametrize("builder", [toy_example_1, toy_example_2])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.66, 0.6666])
def test_identity_arrays_match_scalars_on_fixtures(builder, alpha):
    pair = clique_pair(builder(alpha).graph)
    for s in np.linspace(0.0, 1.0, 41):
        assert_identity_arrays_match_scalars(pair, float(s))


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    s=st.floats(0.0, 1.0),
)
def test_identity_arrays_match_scalars_on_random_instances(n, data, seed, alpha, mixer, s):
    k = data.draw(st.integers(1, n - 1))
    instance = random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha)
    assert_identity_arrays_match_scalars(clique_pair(instance.graph, mixer), s)


def assert_h0_products_match_dense(pair, s):
    """The products with H0 on its CSR form against the dense ones, on a
    vector, on matrix columns, on the (T, d, m) stack ``_gap_slopes``
    passes, and in the neighbour ratios: the same guarded entries, and every
    other entry within 1e-14 ||H0||_inf ||v|| of the dense product (||v|| of
    the column the entry belongs to)."""
    bound = 1e-14 * np.max(np.abs(pair.h0).sum(axis=1))
    d = pair.dim
    v = decompose_interpolated(pair, s)[1]
    mixed = np.random.default_rng(0).standard_normal((d, 3))
    stack = sweep(pair, np.linspace(0.0, 1.0, 5), levels=2).vectors
    for x, norms in [
        (v[:, 0], np.linalg.norm(v[:, 0])),
        (mixed[:, 1], np.linalg.norm(mixed[:, 1])),
        (v, np.linalg.norm(v, axis=0)),
        (v[:, 2:], np.linalg.norm(v[:, 2:], axis=0)),
        (mixed, np.linalg.norm(mixed, axis=0)),
        (stack, np.linalg.norm(stack, axis=1)[:, None, :]),
    ]:
        target = pair.h1_diag[:, None] * x if x.ndim > 1 else pair.h1_diag * x
        dense = target - pair.h0 @ x
        csr = spectral._hdot_apply(pair, x)
        assert csr.shape == dense.shape
        assert np.all(np.abs(csr - dense) <= bound * norms)
    for x in (v, v[:, :2], mixed):
        ratios = spectral._neighbour_ratios(pair, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            dense = np.where(np.abs(x) > spectral.COMPONENT_GUARD, -(pair.h0 @ x) / x, np.nan)
        assert np.array_equal(np.isnan(ratios), np.isnan(dense))
        live = ~np.isnan(dense)
        limit = np.broadcast_to(bound * np.linalg.norm(x, axis=0), x.shape)
        assert np.all((np.abs(ratios - dense) * np.abs(x))[live] <= limit[live])


@pytest.mark.parametrize("name", ["toy1", "random-d252"])
def test_h0_products_on_csr_match_dense(name):
    if name == "toy1":
        pair = clique_pair(toy_example_1(0.5).graph)
    else:
        pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    for s in (0.0, 0.3, 0.7, 1.0):
        assert_h0_products_match_dense(pair, s)
    assert spectral._h0_norm(pair) == np.max(np.abs(pair.h0).sum(axis=1))
    # with the dense h0 spoilt, the products, norms and slopes still read the CSR form
    v = decompose_interpolated(pair, 0.3)[1]
    stack = v[None, :, :2]
    before = (spectral._hdot_apply(pair, v), spectral._neighbour_ratios(pair, v),
              spectral._gap_slopes(pair, stack), spectral.resolution_floor(pair, 0.3))
    spoilt = replace(pair)
    object.__setattr__(spoilt, "h0", np.full_like(pair.h0, np.nan))
    object.__setattr__(spoilt, "csr_terms", pair.csr_terms)
    after = (spectral._hdot_apply(spoilt, v), spectral._neighbour_ratios(spoilt, v),
             spectral._gap_slopes(spoilt, stack), spectral.resolution_floor(spoilt, 0.3))
    for x, y in zip(before, after):
        assert np.array_equal(x, y, equal_nan=True)


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    s=st.floats(0.0, 1.0),
)
def test_h0_products_on_csr_match_dense_on_random_instances(n, data, seed, alpha, mixer, s):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    assume(pair.dim <= 70)
    assert_h0_products_match_dense(pair, s)


def test_failure_condition_at_start_equals_mixer_gap():
    pair = clique_pair(toy_example_1(0.5).graph)
    w0, _ = eigendecompose(pair.h0)
    r = failure_condition_residual(pair, 0.0)
    assert r == pytest.approx(w0[1] - w0[0], abs=1e-10)


def test_failure_condition_shrinks_with_alpha():
    def min_abs(alpha):
        pair = clique_pair(toy_example_1(alpha).graph)
        vals = []
        for s in np.linspace(0.05, 0.95, 46):
            r = failure_condition_residual(pair, s)
            if r is not None:
                vals.append(abs(r))
        return min(vals)

    assert min_abs(0.66) < min_abs(0.0)


def test_failure_condition_rejects_degenerate_ground():
    from fractions import Fraction

    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    with pytest.raises(DegeneracyError):
        failure_condition_residual(pair, 0.5)


# ---------------------------------------------------------------------------
# squared-gap bounds


def point_on_sweep(pair, s):
    """The anti-crossing point at s, on the overlap series of a 51-point sweep."""
    swp = sweep(pair, np.linspace(0.0, 1.0, 51))
    return compute_overlaps(swp, partition_final_levels(pair)).at(s)


def test_bounds_upper_holds_at_ground_state(bundles):
    b = bundles("toy1", 0.0)
    gs = int(np.argmin(b.pair.h1_diag))
    gb = min_gap_bounds(b.series.at(b.mg.s_star), gs)
    assert isinstance(gb, GapBounds)
    assert gb.upper_holds


def test_bounds_two_level_closed_form():
    """The reported hold/violate booleans must match the closed-form sign
    structure of the ratios (here they have opposite signs, so the upper
    bound is genuinely violated while the lower one holds)."""
    oracle = TwoLevelOracle(0.0, 1.0, 1.0)
    pair = two_level_pair(0.0, 1.0, 1.0)
    res = min_gap(pair, tol=1e-12)
    gb = min_gap_bounds(point_on_sweep(pair, res.s_star), 0)
    v = oracle.vectors(res.s_star)
    # ratios <neigh(x_0)|v_k> / <x_0|v_k> with neigh(x_0) = c * x_1
    r0 = 1.0 * v[1, 0] / v[0, 0]
    r1 = 1.0 * v[1, 1] / v[0, 1]
    f2 = (1.0 - res.s_star) ** 2
    assert gb.upper == pytest.approx(f2 * (r0**2 + r1**2), rel=1e-9)
    assert gb.lower == pytest.approx(f2 * (r0**2 - r1**2), rel=1e-9)
    assert gb.upper_holds == (r0 * r1 >= 0)
    assert gb.lower_holds == (r1 * (r1 - r0) >= 0)
    assert gb.lower_holds and not gb.upper_holds


def test_bounds_guard_skips_vanishing_component():
    pair = clique_pair(toy_example_1(0.5).graph)
    order = np.argsort(pair.h1_diag)
    assert min_gap_bounds(point_on_sweep(pair, 1.0), int(order[5])) is None


# ---------------------------------------------------------------------------
# one eigensolver route: Lanczos or dense MRRR behind ``_eigensolve``

_SOLVERS = [
    *((module, name) for module in (scipy.linalg, np.linalg) for name in ("eigh", "eigvalsh")),
    (scipy.sparse.linalg, "eigsh"),
]


def _above_the_cut():
    pair = clique_pair(random_instance(11, 4, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    assert pair.dim >= LANCZOS_MIN_DIM
    return pair


def test_every_spectrum_comes_from_one_function(monkeypatch):
    # (caller, its caller) of every eigensolver call
    callers = []
    for module, name in _SOLVERS:

        def recording(*args, _solver=getattr(module, name), **kwargs):
            frame = sys._getframe(1)
            callers.append((frame.f_code.co_name, frame.f_back.f_code.co_name))
            assert frame.f_globals["__name__"] == "mingap.spectral"
            return _solver(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
    for pair, grid in ((clique_pair(toy_example_1(0.5).graph), 1001), (_above_the_cut(), 101)):
        report, swp, _ = build_report(pair, grid_points=grid)
        min_gap(pair, sweep=swp)
        wilkinson_fit(swp, report.s_star, window=report.wilkinson.window)
    min_gap(clique_pair(toy_example_1(0.5).graph))
    result = CliRunner().invoke(main, ["verify", "--fixture", "toy1", "--grid", "101"])
    assert result.exit_code == 0, result.output
    # LAPACK is called from _mrrr only, ARPACK from _lanczos only, and
    # both only on behalf of _eigensolve
    assert {caller for caller, _ in callers} == {"_mrrr", "_lanczos"}
    assert {route for _, route in callers} == {"_eigensolve"}


def _recording_routes(monkeypatch):
    routes = []
    for name in ("_mrrr", "_lanczos"):
        original = getattr(spectral, name)

        def recording(*args, _name=name, _original=original, **kwargs):
            routes.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, recording)
    return routes


def test_lanczos_runs_where_it_is_exact_and_mrrr_elsewhere(monkeypatch):
    routes = _recording_routes(monkeypatch)
    big, small = _above_the_cut(), clique_pair(toy_example_1(0.5).graph)
    cases = [
        ((big, 0.5, 2, True), "_lanczos"),
        ((big, 0.0, 1, True), "_lanczos"),
        ((big, 0.5, 2, False), "_mrrr"),
        ((big, 0.5, 3, True), "_mrrr"),
        ((big, 0.5, None, True), "_mrrr"),
        ((big, 1.0, 2, True), "_mrrr"),
        ((small, 0.5, 2, True), "_mrrr"),
        ((_two_copies_pair(), 0.5, 2, True), "_mrrr"),
        ((_two_copies_pair(1e-8), 0.5, 2, True), "_mrrr"),
    ]
    for (pair, s, levels, lanczos), route in cases:
        routes.clear()
        spectral._eigensolve(pair, s, levels=levels, vectors=False, lanczos=lanczos)
        assert routes == [route], (pair.dim, s, levels, lanczos)


def test_lanczos_is_arpack_on_the_csr_matrix():
    # the operator ARPACK gets is only the CSR product: eigenpairs bit for
    # bit those of eigsh on the CSR matrix itself
    pair = _above_the_cut()
    start = np.random.default_rng(spectral._LANCZOS_SEED).uniform(-1.0, 1.0, pair.dim)
    for s in np.linspace(0.0, 0.98, 50):
        w, v = spectral._lanczos(pair, s, 2)
        w_ref, v_ref = scipy.sparse.linalg.eigsh(
            interpolate_csr(pair, s), k=2, which="SA", tol=0, v0=start,
            maxiter=spectral._LANCZOS_MAXITER,
        )
        order = np.argsort(w_ref)
        assert np.array_equal(w, w_ref[order]) and np.array_equal(v, v_ref[:, order]), s


def test_sparse_form_lives_and_dies_with_its_pair():
    # H0's CSR form is kept on the pair, in no cache and no reference
    # cycle: dropping the pair frees it without a garbage collection
    pair = _above_the_cut()
    spectral._eigensolve(pair, 0.5, levels=2, lanczos=True)
    assert "csr_terms" in vars(pair) and "mixer_connected" in vars(pair)
    ref = weakref.ref(pair)
    gc.disable()
    try:
        del pair
        assert ref() is None
    finally:
        gc.enable()


def test_more_than_two_levels_stay_dense_at_a_degenerate_level():
    # the transverse field at s=0 has E1 = -7 nine times over; a Krylov
    # solve from one start vector holds one copy of each level in exact
    # arithmetic, so it reads the two lowest (distinct) levels right and
    # may drop copies of the sixth
    pair = clique_pair(random_instance(9, 4, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph, "transverse_field")
    assert pair.dim >= LANCZOS_MIN_DIM
    two = spectral._eigensolve(pair, 0.0, levels=2, vectors=False, lanczos=True)
    six = spectral._eigensolve(pair, 0.0, levels=6, vectors=False, lanczos=True)
    assert np.max(np.abs(two - [-9.0, -7.0])) <= 1e-12
    assert np.max(np.abs(six - [-9.0, -7.0, -7.0, -7.0, -7.0, -7.0])) <= 1e-12


def _two_copies_pair(link=0.0):
    """Two identical 165-state chains joined by one bond of strength
    ``link`` (none by default): every level of H(s) is doubly degenerate,
    the ground level too, exactly without the bond and to round-off with
    a weak one."""
    basis = enumerate_basis(11, 4)
    half = basis.dim // 2
    chain = -(np.eye(half, k=1) + np.eye(half, k=-1))
    target = np.random.default_rng(5).uniform(-1.0, 1.0, half)
    h0 = np.zeros((basis.dim, basis.dim))
    h0[:half, :half] = h0[half:, half:] = chain
    h0[half - 1, half] = h0[half, half - 1] = -link
    return HamiltonianPair(
        basis=basis, h0=h0, h1_diag=build_diagonal_target(np.concatenate([target, target]), basis)
    )


@pytest.mark.parametrize("link", [0.0, 1e-8])
def test_copies_with_a_degenerate_ground_level_read_as_degenerate(link):
    # routes: test_lanczos_runs_where_it_is_exact_and_mrrr_elsewhere.  The
    # weak bond connects the mixer; a Lanczos sweep of that pair read
    # E2 - E0 at some points, and all_degenerate was lost
    pair = _two_copies_pair(link)
    assert pair.dim >= LANCZOS_MIN_DIM
    assert pair.mixer_connected == (link > 0)
    res = min_gap(pair, sweep=sweep(pair, np.linspace(0.0, 1.0, 51), levels=2))
    assert res.all_degenerate and not res.degenerate_at_end
    assert res.delta_min <= 1e-12


def _narrow_crossing_above_the_cut(coupling, start):
    """d=330: the V of test_min_gap_resolves_a_minimum_narrower_than_tol
    on states 0 and 1 (gap minimum ~2 ``coupling`` (1-s*) at
    s* ~ start / (1 + start)), under a chain of the other 328 states at
    energy >= 3, linked to state 1 by 1e-3 so that the mixer graph is
    connected."""
    basis = enumerate_basis(11, 4)
    d = basis.dim
    h0 = np.diag(np.concatenate([[start, 0.0], np.full(d - 2, 5.0)]))
    h0[0, 1] = h0[1, 0] = -coupling
    h0[1, 2] = h0[2, 1] = -1e-3
    chain = np.arange(2, d - 1)
    h0[chain, chain + 1] = h0[chain + 1, chain] = -1.0
    target = np.concatenate([[0.0, 1.0], np.full(d - 2, 5.0)])
    return HamiltonianPair(basis=basis, h0=h0, h1_diag=build_diagonal_target(target, basis))


# Gap minima above the cut and below the resolution floor.
_NARROW_MINIMA = {
    "vee-1e-12": lambda: _narrow_crossing_above_the_cut(1e-12, 0.7),
    "vee-1e-16": lambda: _narrow_crossing_above_the_cut(1e-16, 1.3),
    # Delta_min 1.8e-15 at s* = 0.99916
    "random-d462": lambda: clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=2, alpha=1e-3).graph),
}


@pytest.mark.parametrize("name", sorted(_NARROW_MINIMA))
def test_narrow_minimum_above_the_cut_matches_a_dense_run(monkeypatch, name):
    pair = _NARROW_MINIMA[name]()
    assert pair.dim >= LANCZOS_MIN_DIM and pair.mixer_connected
    grid = np.linspace(0.0, 1.0, 101)
    res = min_gap(pair, sweep=sweep(pair, grid, levels=2))
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", pair.dim + 1)
    ref = min_gap(pair, sweep=sweep(pair, grid, levels=2))
    assert ref.delta_min < 1e-10
    norm = np.max(np.abs(pair.h0).sum(axis=1)) + np.max(np.abs(pair.h1_diag))
    floor = 4 * np.finfo(float).eps * norm
    assert res.s_star == pytest.approx(ref.s_star, abs=1e-9)
    assert abs(res.delta_min - ref.delta_min) <= floor
    # a grid point on the minimum itself: Lanczos reads the two lowest
    # levels there, not E0 and E2
    w = spectral._lanczos(pair, ref.s_star, 2, vectors=False)
    w_ref = scipy.linalg.eigvalsh(interpolate(pair, ref.s_star), subset_by_index=[0, 1])
    assert np.max(np.abs(w - w_ref)) <= 1e-12
    assert abs((w[1] - w[0]) - (w_ref[1] - w_ref[0])) <= floor


def _report_routes(monkeypatch, pair, grid_points):
    """``build_report`` on ``pair``; returns the report and the solver
    routes taken by min_gap and after it."""
    routes = _recording_routes(monkeypatch)
    marks = []
    original = anticrossing.min_gap

    def marking(*args, **kwargs):
        marks.append(len(routes))
        result = original(*args, **kwargs)
        marks.append(len(routes))
        return result

    monkeypatch.setattr(anticrossing, "min_gap", marking)
    report, _, _ = build_report(pair, grid_points=grid_points)
    return report, routes[marks[0] : marks[1]], routes[marks[1] :]


def test_probes_after_a_resolved_gap_minimum_run_lanczos(monkeypatch):
    # the report-d462 instance: every gap the report reads after min_gap
    # is at least a Delta_min above the resolution floor
    pair = clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    report, refinement, after = _report_routes(monkeypatch, pair, 201)
    assert report.delta_min > spectral.resolution_floor(pair, report.s_star)
    assert report.wilkinson is not None and report.rotation is not None
    assert refinement and set(refinement) == {"_mrrr"}
    # s* in full, then the fit window and samples, the step probes, s* +- h
    assert after[0] == "_mrrr" and set(after[1:]) == {"_lanczos"}
    assert len(after) >= 1 + 2 + 25 + 2 + 2


@pytest.mark.parametrize("name", sorted(_NARROW_MINIMA))
def test_probes_after_an_unresolved_gap_minimum_stay_dense(monkeypatch, name):
    pair = _NARROW_MINIMA[name]()
    report, _, after = _report_routes(monkeypatch, pair, 101)
    assert 0.0 < report.s_star < 1.0
    assert report.delta_min <= spectral.resolution_floor(pair, report.s_star)
    # no fit window is sought at an unresolved minimum, and a given one is
    # sampled densely
    assert report.wilkinson is None
    assert after and set(after) == {"_mrrr"}
    routes = _recording_routes(monkeypatch)
    half = 0.5 * min(1e-3, report.s_star, 1.0 - report.s_star)
    window = (report.s_star - half, report.s_star + half)
    wilkinson_fit(sweep(pair, [0.0, 1.0], levels=2), report.s_star, window=window,
                  delta_min=report.delta_min)
    assert len(routes) == 2 + 25 and set(routes[2:]) == {"_mrrr"}


def test_verify_derivative_group_solves_densely(monkeypatch):
    # its central differences read no gap at all, so none of its solves
    # may take the Lanczos route
    routes = _recording_routes(monkeypatch)
    derivative_checks(_above_the_cut(), [0.3, 0.7])
    assert routes and set(routes) == {"_mrrr"}


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(
    n=st.integers(4, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    s=st.floats(0.0, 1.0, exclude_max=True),
    levels=st.sampled_from([1, 2]),
)
def test_lanczos_matches_mrrr_on_random_small_instances(n, data, seed, alpha, mixer, s, levels):
    k = data.draw(st.integers(1, n - 1))
    instance = random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha)
    pair = clique_pair(instance.graph, mixer)
    assume(4 <= pair.dim <= 70 and pair.mixer_connected)
    w, v = spectral._lanczos(pair, s, levels)
    w_ref, v_ref = scipy.linalg.eigh(interpolate(pair, s), driver="evr")
    assert np.max(np.abs(w - w_ref[:levels])) <= 1e-12
    assert np.array_equal(spectral._lanczos(pair, s, levels, vectors=False), w)
    for c in range(levels):
        # a vector is determined up to sign where its level is isolated
        separation = np.min(np.abs(np.delete(w_ref, c) - w_ref[c]))
        if separation > 1e-3:
            u = v[:, c] * np.sign(v[:, c] @ v_ref[:, c])
            assert np.max(np.abs(u - v_ref[:, c])) <= 1e-10


def _failing_solver(*args, **kwargs):
    raise scipy.linalg.LinAlgError("no convergence")


def _arpack_not_converging(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: no convergence", [], [])


_FAILING_BACKENDS = {
    # (pair, the solvers whose failure it meets, the failure of each)
    "lapack": (lambda: clique_pair(toy_example_1(0.0).graph),
               [(scipy.linalg, "eigh", _failing_solver), (scipy.linalg, "eigvalsh", _failing_solver)]),
    # ARPACK falls back to MRRR, so the dense solve must fail as well
    "arpack": (_above_the_cut,
               [(scipy.sparse.linalg, "eigsh", _arpack_not_converging),
                (scipy.linalg, "eigh", _failing_solver), (scipy.linalg, "eigvalsh", _failing_solver)]),
}
_FAILING_CALLS = {
    "gap_at": lambda swp: _gap_at(swp.pair, 0.5),
    "min_gap": lambda swp: min_gap(swp.pair),
    "wilkinson_fit": lambda swp: wilkinson_fit(swp, 0.69, window=(0.6, 0.8)),
    "sweep": lambda swp: sweep(swp.pair, swp.grid, levels=2),
}


@pytest.mark.parametrize(
    "backend, call",
    [("lapack", c) for c in ("gap_at", "min_gap", "wilkinson_fit")]
    + [("arpack", c) for c in ("sweep", "min_gap")],
    ids=["gap_at", "min_gap", "wilkinson_fit", "arpack-sweep", "arpack-min_gap"],
)
def test_solver_failure_raises_eigendecomposition_error(monkeypatch, backend, call):
    build, solvers = _FAILING_BACKENDS[backend]
    swp = sweep(build(), np.linspace(0.0, 1.0, 51), levels=2)
    for module, name, failure in solvers:
        monkeypatch.setattr(module, name, failure)
    with pytest.raises(EigendecompositionError, match="no convergence"):
        _FAILING_CALLS[call](swp)


def test_arpack_failure_falls_back_to_mrrr(monkeypatch):
    # a point ARPACK does not converge on is solved densely, as if it lay
    # below the cut, and nothing is raised
    pair = _above_the_cut()
    grid = np.linspace(0.0, 1.0, 51)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", pair.dim + 1)
    dense, dense_gap = sweep(pair, grid, levels=2), min_gap(pair, coarse_points=51)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", LANCZOS_MIN_DIM)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _arpack_not_converging)
    routes = _recording_routes(monkeypatch)
    swp = sweep(pair, grid, levels=2)
    assert routes == ["_lanczos", "_mrrr"] * 50 + ["_mrrr"]
    assert np.array_equal(swp.energies, dense.energies)
    assert np.array_equal(swp.vectors, dense.vectors)
    assert min_gap(pair, coarse_points=51) == dense_gap
