import ctypes
import functools
import gc
import json
import sys
import threading
from dataclasses import replace
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mingap import anticrossing, hamiltonian, spectral
from mingap.anticrossing import (
    GapBounds,
    build_report,
    compute_overlaps,
    min_gap_bounds,
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
    degeneracy_tolerance,
    interpolate,
    interpolate_csr,
)
from mingap.spectral import (
    LANCZOS_MIN_DIM,
    DegeneracyError,
    EigendecompositionError,
    _cell_bounds,
    _h0_norm,
    _mrrr,
    _probe,
    decompose_interpolated,
    eigenvalue_derivative,
    eigenvalue_second_derivative,
    eigenvector_derivative,
    energy_identity_residual,
    energy_identity_residuals,
    failure_condition_residual,
    gap_identity_residual,
    gap_identity_residuals,
    min_gap,
    resolution_floor,
    sweep,
)

from conftest import min_gap_of
from oracles import (
    TwoLevelOracle,
    dense_gap,
    fine_scan_min_gap,
    jacobi_eigh,
    lowest_rows,
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
# dense eigendecomposition (MRRR, the reference solver)


def test_eigendecompose_two_by_two():
    w, v = _mrrr(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


def test_eigendecompose_diagonal():
    w, v = _mrrr(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_eigendecompose_residual_and_orthonormality():
    pair = clique_pair(toy_example_1(0.5).graph)
    h = interpolate(pair, 0.5)
    w, v = _mrrr(h)
    for k in range(pair.dim):
        r = np.linalg.norm(h @ v[:, k] - w[k] * v[:, k])
        assert r <= 1e-10 * (1 + abs(w[k]))
    assert np.linalg.norm(v.T @ v - np.eye(pair.dim)) <= 1e-10


@pytest.mark.parametrize("order", ["rows", "cols"])
def test_eigendecompose_against_jacobi(order):
    """Independent-solver cross-check at the toy instance midpoint."""
    pair = clique_pair(toy_example_1(0.5).graph)
    h = interpolate(pair, 0.5)
    w, _ = _mrrr(h)
    w_j, _ = jacobi_eigh(h, sweep_order=order)
    assert np.max(np.abs(w - w_j)) <= 1e-9


@pytest.mark.parametrize("levels", [None, 2])
def test_dense_solves_leave_a_held_matrix_unchanged(monkeypatch, levels):
    # only the H(s) that _eigensolve forms is handed to LAPACK to overwrite
    # (Fortran-ordered, overwrite_a); a matrix a caller holds, in either
    # order, is left unchanged, and every route returns the bits of SciPy's
    # MRRR solve of a copy
    pair = clique_pair(toy_example_1(0.5).graph)
    h = interpolate(pair, 0.5)
    subset = None if levels is None else [0, levels - 1]
    w_ref, v_ref = scipy.linalg.eigh(h.copy(), driver="evr", subset_by_index=subset)
    calls = []
    eigh = scipy.linalg.eigh

    def recording(a, **kwargs):
        calls.append((a.flags.f_contiguous, kwargs["overwrite_a"]))
        return eigh(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", recording)
    for held in (h, np.asfortranarray(h), h.T):
        before = held.copy()
        w, v = _mrrr(held, levels)
        assert np.array_equal(held, before)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    assert [overwrite for _, overwrite in calls] == [False] * 3
    h1, h0 = pair.h1_diag.copy(), pair.csr_terms[0].copy()
    w, v = spectral._eigensolve(pair, 0.5, levels)
    assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
    assert calls[-1] == (True, True)
    assert np.array_equal(pair.h1_diag, h1) and np.array_equal(pair.csr_terms[0].data, h0.data)
    assert np.array_equal(interpolate(pair, 0.5), h)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_endpoints(bundles):
    b = bundles("toy1", 0.5)
    w0, _ = _mrrr(b.pair.h0)
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


def test_sweep_lowest_levels_and_gaps_go_by_value():
    # the gauge may order the levels of a degenerate cluster against their
    # values; gaps() reads them in value order
    pair = clique_pair(toy_example_1(0.5).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 3), levels=3)
    swap = [1, 0, 2]
    swapped = replace(swp, energies=swp.energies[:, swap], vectors=swp.vectors[:, :, swap])
    assert np.array_equal(swapped.gaps(), swp.gaps())
    assert np.all(swp.gaps() >= 0)


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


def _cut_cluster_start(pair, s, keep):
    """First column of the degenerate cluster of H(s) that level ``keep``
    cuts (consecutive levels within the sweep's ``degeneracy_tolerance``
    of the kept ones), or ``keep`` when it cuts none."""
    w = np.linalg.eigvalsh(interpolate(pair, s))
    if keep == len(w):
        return keep
    tol = degeneracy_tolerance(w[:keep])
    lo = keep
    while lo > 0 and w[lo] - w[lo - 1] <= tol:
        lo -= 1
    return lo


def assert_sweep_matches_gauge_oracle(pair, grid, levels):
    """``sweep`` equals, bit for bit, the gauge threaded point by point
    (``oracles.threaded_gauge``) over the same solves of every grid point.
    The gauge of the columns of a degenerate cluster that the last kept
    level cuts is arbitrary (the overlaps that thread it can be round-off),
    so there the two need only span the same subspace."""
    keep = None if levels is None else min(max(levels, 2), pair.dim)
    swp = sweep(pair, grid, levels=levels)
    energies, vectors = threaded_gauge(
        spectral._eigensolve(pair, s, levels=keep, lanczos=True) for s in swp.grid
    )
    assert np.array_equal(swp.energies, energies)
    for s, ours, theirs in zip(swp.grid, swp.vectors, vectors):
        lo = _cut_cluster_start(pair, s, ours.shape[1])
        assert np.array_equal(ours[:, :lo], theirs[:, :lo])
        a, b = ours[:, lo:], theirs[:, lo:]
        assert np.max(np.abs(a @ a.T - b @ b.T), initial=0.0) <= 1e-12


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
    nk=st.integers(3, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    levels=st.sampled_from([1, 2, 6, None]),
    points=st.integers(2, 61),
)
# level 6 cuts a twofold level from the seventh point on
@example(nk=(7, 1), seed=0, alpha=0.0, mixer="swap_cycle", levels=6, points=9)
def test_sweep_gauge_matches_oracle_on_random_instances(nk, seed, alpha, mixer, levels, points):
    n, k = nk
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

    def counting(pair, s, levels=None, lanczos=False):
        calls.append(levels)
        if lanczos:
            lanczos_calls.extend(np.atleast_1d(s))
        return original(pair, s, levels=levels, lanczos=lanczos)

    for module in (spectral, anticrossing):
        monkeypatch.setattr(module, "_eigensolve", counting)
    pair = clique_pair(toy_example_1(0.5).graph)
    report, series, point = build_report(pair, grid_points=201)
    swp = series.sweep
    assert report.rotation is not None and report.solution_derivative is not None
    assert swp.vectors.shape == (201, pair.dim, 2)
    assert point.series.solution.shape == (201, 2)
    # s* alone is decomposed in full; every other solve asks for two levels
    assert calls.count(None) == 1
    assert set(calls) == {None, 2}
    # the Lanczos route is open to the sweep points and, the gap minimum
    # being resolved, to the probes placed after it: 4 fit-window probes
    # and the 22 fit samples besides the window's ends, which the last
    # probe solved, and its centre, which is s* here; min_gap's refinement
    # probes and s* stay dense, and the rotation checks make no solve
    assert report.delta_min > spectral.resolution_floor(pair, report.s_star)
    assert np.array_equal(lanczos_calls[:201], swp.grid)
    assert len(lanczos_calls) == 201 + 4 + 22


# ---------------------------------------------------------------------------
# min gap


def test_min_gap_zero_target_flagged_degenerate():
    basis = enumerate_basis(6, 3)
    pair = HamiltonianPair(
        basis=basis,
        h0=build_swap_mixer(6, 3),
        h1_diag=build_diagonal_target(np.zeros(20), basis),
    )
    res = min_gap_of(pair)
    assert res.s_star == 1.0
    assert res.degenerate_at_end
    assert res.delta_min <= 1e-12


def test_min_gap_regression_constants():
    pair = clique_pair(toy_example_1(0.0).graph)
    res = min_gap_of(pair)
    s_star, delta = res.s_star, res.delta_min
    assert s_star == pytest.approx(TOY1_ALPHA0_S_STAR, abs=1e-7)
    assert delta == pytest.approx(TOY1_ALPHA0_DELTA_MIN, rel=1e-9)
    assert not res.degenerate_at_end and not res.all_degenerate


def test_min_gap_two_level_closed_form():
    oracle = TwoLevelOracle(0.0, 1.0, 1.0)
    pair = two_level_pair(0.0, 1.0, 1.0)
    res = min_gap_of(pair)
    hyp = oracle.hyperbola()
    # s locatable only to the flat-minimum noise floor sqrt(eps Delta / Delta'')
    assert res.s_star == pytest.approx(hyp["s_star"], abs=1e-7)
    assert res.delta_min == pytest.approx(hyp["delta_min"], rel=1e-12)


@pytest.mark.parametrize("coupling", [1e-12, 1e-13])
@pytest.mark.parametrize("start", [0.7, 1.3])
def test_min_gap_resolves_a_minimum_narrower_than_tol(coupling, start):
    # H(s) = (1-s) [[start, -c], [-c, 0]] + s diag(0, 1): the gap is
    # sqrt((start - (1 + start) s)^2 + 4 c^2 (1-s)^2), a V of slope
    # 1 + start far wider than its apex, Delta_min / slope << 1e-10
    basis = enumerate_basis(1)
    h0 = np.array([[start, -coupling], [-coupling, 0.0]])
    pair = HamiltonianPair(basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 1.0], basis))
    slope = 1.0 + start
    s_star = (slope * start + 4 * coupling**2) / (slope**2 + 4 * coupling**2)
    delta = np.hypot(start - slope * s_star, 2 * coupling * (1.0 - s_star))
    res = min_gap_of(pair)
    assert res.s_star == pytest.approx(s_star, abs=1e-14)
    assert abs(res.delta_min - delta) <= 4 * np.finfo(float).eps * slope


def test_min_gap_alpha_trend():
    deltas = []
    for alpha in (0.0, 0.2, 0.4, 0.5, 0.6, 0.66):
        pair = clique_pair(toy_example_1(alpha).graph)
        deltas.append(min_gap_of(pair).delta_min)
    assert all(a > b for a, b in zip(deltas, deltas[1:]))


def test_min_gap_needs_a_sweep_over_the_whole_interval():
    pair = clique_pair(toy_example_1(0.5).graph)
    with pytest.raises(ValueError):
        min_gap(sweep(pair, np.linspace(0.0, 0.9, 91)))
    with pytest.raises(ValueError):
        min_gap(sweep(pair, np.linspace(0.1, 1.0, 91)))


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
    res = min_gap_of(pair)
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
# the smallest grid gap at s=1 and the gap slope positive at both ends of
# the last cell: the gap peaks inside it, then dips 2.5e-7 below the gap
# at s=1 at s~0.99996, with no swap of the ground vector across the cell
@example(n=8, seed=362, alpha=0.1875, grid_points=51)
# the smallest grid gap at s=1, the oracle's minimum 8.9e-14 at s=1-2.9e-11,
# within a few resolution floors (2.2e-14 at s=1) of zero
@example(n=5, seed=118365489, alpha=2**-33, grid_points=51)
# a dip to 2.5416e-11 just before s=1, 5e-13 below the gap at s=1
@example(n=6, seed=226482830, alpha=2**-32, grid_points=51)
def test_min_gap_on_a_sweep_matches_fine_scan(n, seed, alpha, grid_points):
    pair = clique_pair(random_instance(n, n // 2, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    res = min_gap(sweep(pair, np.linspace(0.0, 1.0, grid_points)))
    assert_matches_fine_scan(pair, res)


def test_min_gap_finds_a_dip_inside_a_cell_the_ground_vector_swaps_across():
    # both end slopes of the last cell are positive: the gap rises from
    # s=0.99, peaks, dips to 6.1e-7 at s~0.99941 and rises again; the
    # ground vector swaps character across the cell (overlap 0.0077)
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=238811247, alpha=0.0015187877390547833)
    pair = clique_pair(instance.graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 101))
    assert abs(swp.vectors[-2, :, 0] @ swp.vectors[-1, :, 0]) < 0.01
    assert_matches_fine_scan(pair, min_gap(swp))


def test_min_gap_narrows_a_swap_cell_where_the_gap_slope_turns():
    # the gap slope turns from negative to positive across the last cell,
    # which holds a wide local minimum (6.1e-4 at s~0.99992) and, where
    # the ground vector swaps character, a narrow one (3.5e-13 at
    # s~0.98239); a golden section over the whole cell stops in the wide one
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=223765, alpha=0.03125)
    pair = clique_pair(instance.graph)
    res = min_gap(sweep(pair, np.linspace(0.0, 1.0, 51)))
    assert res.delta_min < 1e-12
    assert_matches_fine_scan(pair, res)


def test_min_gap_finds_a_dip_beside_the_final_splitting():
    # final levels within alpha=1e-8: between s=1 and s=1-5.3e-9 the gap
    # sits at the final splitting 1.9e-10, then falls in a V of width
    # 3e-10 to a few 1e-15 at s=1-5.5e-9 (40-digit mpmath: 2.9e-15); a
    # bounded search of the whole last cell stops on the plateau
    instance = random_instance(8, 4, 0.5, 0.5, 1.5, seed=223765, alpha=1e-8)
    pair = clique_pair(instance.graph)
    res = min_gap(sweep(pair, np.linspace(0.0, 1.0, 101)))
    assert res.delta_min < 1e-13 and 0.0 < 1.0 - res.s_star < 1e-8
    assert_matches_fine_scan(pair, res)


def test_min_gap_keeps_the_exact_gap_at_s1_over_round_off():
    # three final levels within 2e-183: the gap falls to s=1, where H is
    # diagonal and reads 1.7e-184 exactly; the golden section on the
    # last cell read 0.0 at s=0.99996, which is round-off
    instance = random_instance(7, 3, 0.5, 0.5, 1.5, seed=1930, alpha=2.5938840776952347e-183)
    pair = clique_pair(instance.graph)
    res = min_gap(sweep(pair, np.linspace(0.0, 1.0, 51)))
    assert res.s_star == 1.0 and res.degenerate_at_end
    assert_matches_fine_scan(pair, res)


def test_min_gap_reads_the_sweep_in_place():
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 201))
    tracemalloc.start()
    try:
        min_gap(swp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < swp.vectors.nbytes / 4


@settings(max_examples=25, deadline=None, database=None)
@given(
    nk=st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    levels=st.sampled_from([2, 6, None]),
    points=st.integers(51, 201),
)
def test_min_gap_reads_the_grid_in_blocks_as_in_one_pass_on_random_instances(
    nk, seed, alpha, mixer, levels, points
):
    # the grid's rows, taken in blocks of _STACK_LENGTH points, have the
    # bits of one pass over the whole grid; so min_gap, which reads nothing
    # else of the sweep, gives the result it gave from that pass
    n, k = nk
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    assume(pair.dim <= 70)
    swp = sweep(pair, np.linspace(0.0, 1.0, points), levels=levels)
    one_pass = lowest_rows(swp.energies, swp.vectors, pair.csr_terms[0], pair.h1_diag)
    assert np.array_equal(spectral._grid_rows(swp), one_pass)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_grid_rows", lambda _: one_pass.copy())
        from_one_pass = min_gap(swp)
    assert min_gap(swp) == from_one_pass


def test_min_gap_probes_each_point_once(monkeypatch):
    # on the d=462 instance of the benchmark's report workload the search
    # makes at most 11 solves, every one of them a probe of a new point
    pair = clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 201), levels=2)
    probes, solves = [], []
    probe, eigensolve = spectral._probe, spectral._eigensolve

    def probing(pair, s):
        probes.append(s)
        return probe(pair, s)

    def solving(pair, s, levels=None, lanczos=False):
        solves.append(s)
        return eigensolve(pair, s, levels=levels, lanczos=lanczos)

    monkeypatch.setattr(spectral, "_probe", probing)
    monkeypatch.setattr(spectral, "_eigensolve", solving)
    res = min_gap(swp)
    assert solves == probes and len(probes) <= 11
    assert len(set(probes)) == len(probes) and not set(probes) & set(swp.grid)
    assert res.s_star in probes


def test_min_gap_probes_nothing_once_the_gap_at_s1_reads_zero(monkeypatch):
    # a fourfold final ground level: the gap at s=1 is exactly 0 and no gap
    # lies below 0, so no cell is searched
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=3535840493, alpha=0.0).graph)
    swp = sweep(pair, np.linspace(0.0, 1.0, 51), levels=2)
    probes, probe = [], spectral._probe

    def probing(pair, s):
        probes.append(s)
        return probe(pair, s)

    monkeypatch.setattr(spectral, "_probe", probing)
    res = min_gap(swp)
    assert (res.s_star, res.delta_min, res.degenerate_at_end, probes) == (1.0, 0.0, True, [])


def _cell_bound(pair, a, b, ends):
    """The bound of ``_cell_bounds`` on the one cell [a, b] from the rows
    (E0, E1, E0') ``ends`` at a and b."""
    norm = _h0_norm(pair) + float(np.max(np.abs(pair.h1_diag)))
    return float(_cell_bounds(np.array([a, b]), np.array(ends), norm)[0][0])


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(5, 8),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    at_minimum=st.booleans(),
    start=st.floats(0.0, 1.0),
    width=st.floats(-8.0, 0.0),
)
def test_cell_bound_lies_below_the_fine_scan_minimum_of_random_cells(
    n, seed, alpha, at_minimum, start, width
):
    # a cell of width 10**width anywhere, or around min_gap's s* from 51
    # points (``start`` then places s* inside it), where the bound is tight
    pair = clique_pair(random_instance(n, n // 2, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    width = 10.0**width
    if at_minimum:
        s_star = min_gap(sweep(pair, np.linspace(0.0, 1.0, 51), levels=2)).s_star
        start = s_star - start * width
    a, b = max(start, 0.0), min(start + width, 1.0)
    assume(a < b)
    bound = _cell_bound(pair, a, b, [_probe(pair, a), _probe(pair, b)])
    _, delta = fine_scan_min_gap(pair.h0, pair.h1_diag, points=201, cell=(a, b))
    assert bound <= delta + max(resolution_floor(pair, 0.0), resolution_floor(pair, 1.0))


@settings(max_examples=200, deadline=None, database=None)
@given(
    e1=st.floats(0.01, 10.0),
    coupling=st.floats(1e-6, 10.0),
    start=st.floats(0.0, 1.0),
    width=st.floats(-8.0, 0.0),
)
def test_cell_bound_lies_below_the_two_level_gap(e1, coupling, start, width):
    # exact end data; the gap, the norm of an affine map of s, is convex,
    # so its minimum on the cell is at s* clipped to the cell
    oracle, pair = TwoLevelOracle(0.0, e1, coupling), two_level_pair(0.0, e1, coupling)
    a, b = start, min(start + 10.0**width, 1.0)
    assume(a < b)
    ends = [[*oracle.values(s), oracle.value_derivatives(s)[0]] for s in (a, b)]
    lowest = np.diff(oracle.values(np.clip(oracle.hyperbola()["s_star"], a, b)))[0]
    # up to the round-off of the 2x2 arithmetic
    assert _cell_bound(pair, a, b, ends) <= lowest + 8 * np.finfo(float).eps * (e1 + coupling)


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
    s_star = min_gap_of(pair).s_star
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


@pytest.mark.parametrize("end", ["below", "above"])
def test_out_of_range_indices_are_rejected(end):
    # -1 read level d-1 (basis state d-1) as a NumPy index would; d raised
    # a bare IndexError
    pair = clique_pair(toy_example_1(0.5).graph)
    index = -1 if end == "below" else pair.dim
    dec = decompose_interpolated(pair, 0.5)
    point = compute_overlaps(sweep(pair, np.linspace(0.0, 1.0, 11))).at(0.5)
    calls = {
        "k": [lambda f=f: f(pair, 0.5, index, decomposition=dec) for f in (
            eigenvalue_derivative, eigenvector_derivative, eigenvalue_second_derivative)]
        + [lambda: energy_identity_residual(pair, 0.5, 0, index, decomposition=dec)],
        "i": [lambda: energy_identity_residual(pair, 0.5, index, 0, decomposition=dec),
              lambda: gap_identity_residual(pair, 0.5, index, decomposition=dec),
              lambda: min_gap_bounds(point, index)],
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=rf"^{name}={index} is out of range 0\.\.{pair.dim - 1}$"):
                call()


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
    vector, on matrix columns, on the (T, d, m) stack ``_slopes``
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
              spectral._slopes(pair, stack), spectral.resolution_floor(pair, 0.3))
    spoilt = replace(pair)
    object.__setattr__(spoilt, "h0", np.full_like(pair.h0, np.nan))
    object.__setattr__(spoilt, "csr_terms", pair.csr_terms)
    after = (spectral._hdot_apply(spoilt, v), spectral._neighbour_ratios(spoilt, v),
             spectral._slopes(spoilt, stack), spectral.resolution_floor(spoilt, 0.3))
    for x, y in zip(before, after):
        assert np.array_equal(x, y, equal_nan=True)


def test_nothing_reads_the_dense_h0(monkeypatch, tmp_path):
    # the pair holds H0 as CSR only: a report, a scan and a verify run
    # build no dense copy of it
    def unreadable(self, pair, owner=None):
        if pair is None:
            raise AttributeError("h0")
        raise AssertionError("the dense h0 was read")

    monkeypatch.setattr(hamiltonian._HeldAsCsr, "__get__", unreadable)
    for pair in (clique_pair(toy_example_1(0.5).graph), _above_the_cut()):
        with pytest.raises(AssertionError):
            pair.h0
        report, _, _ = build_report(pair, grid_points=101, levels=6)
        assert report.rotation is not None
    for args in (["scan", "--fixture", "toy1", "--grid", "101", "--out", str(tmp_path)],
                 ["verify", "--fixture", "toy1", "--grid", "101"]):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0 and result.exception is None, result.output


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
    w0, _ = _mrrr(pair.h0)
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


def test_failure_condition_is_the_gap_identity_row_of_the_solution_state():
    # d=126 at s=0.9: the gap identity's residual at the solution state is
    # 1.3e-5, so the ratio difference reads 6.014123e-02 against
    # Delta/(1-s) = 6.014125e-02; the ``gap_identity`` check of ``mingap
    # verify`` owns that bound, and the call returns the difference
    pair = clique_pair(random_instance(9, 4, 0.5, 0.5, 1.5, seed=0, alpha=0.3).graph)
    s = 0.9
    r = failure_condition_residual(pair, s)
    assert r == pytest.approx(6.01412e-02, abs=1e-7)
    w, v = decompose_interpolated(pair, s)
    gs = pair.final_levels.unique_ground_index
    row = gap_identity_residuals(pair, s, decomposition=(w, v))[gs]
    assert abs(r - (w[1] - w[0] - row) / (1.0 - s)) <= 1e-12


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
    return compute_overlaps(swp).at(s)


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
    res = min_gap_of(pair)
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
        _, series, point = build_report(pair, grid_points=grid)
        min_gap(series.sweep)
        wilkinson_fit(point)
    min_gap_of(clique_pair(toy_example_1(0.5).graph))
    build_report(clique_pair(toy_example_2(0.2).graph), grid_points=201, levels=6)
    result = CliRunner().invoke(main, ["verify", "--fixture", "toy1", "--grid", "101"])
    assert result.exit_code == 0, result.output
    # SciPy's LAPACK is called from _mrrr only, NumPy's from _syevd only
    # (the six-level sweep), ARPACK from _lanczos only, and all of them
    # only on behalf of _eigensolve
    assert {caller for caller, _ in callers} == {"_mrrr", "_syevd", "_lanczos"}
    assert {route for _, route in callers} == {"_eigensolve"}


def _recording_routes(monkeypatch):
    routes = []
    for name in ("_mrrr", "_syevd", "_lanczos"):
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
        spectral._eigensolve(pair, s, levels=levels, lanczos=lanczos)
        assert routes == [route], (pair.dim, s, levels, lanczos)
    # more than two but fewer than all levels, below the cut, is NumPy's
    # eigh; one or two levels, all levels and the lowest few from the cut
    # on stay MRRR
    middle = clique_pair(random_instance(8, 3, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    assert small.dim < spectral._SYEVD_MAX_DIM <= middle.dim
    cases = [
        ((small, 0.5, 6), "_syevd"),
        ((small, 1.0, 3), "_syevd"),
        ((small, 0.5, small.dim - 1), "_syevd"),
        ((small, 0.5, 2), "_mrrr"),
        ((small, 0.5, small.dim), "_mrrr"),
        ((small, 0.5, None), "_mrrr"),
        ((middle, 0.5, 6), "_mrrr"),
    ]
    for (pair, s, levels), route in cases:
        routes.clear()
        spectral._eigensolve(pair, s, levels=levels, lanczos=True)
        assert routes == [route], (pair.dim, s, levels)


# ---------------------------------------------------------------------------
# NumPy's eigh for small multi-level solves, stacked over a sweep's grid


@pytest.mark.parametrize("points", [2, 63, 64, 65, 1001])
def test_stacked_sweep_equals_per_point_solves(monkeypatch, points):
    # chunk boundaries at 64 points: each matrix gets the same bits in a
    # stack as alone, and those are NumPy's eigh of interpolate's H(s)
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, points)
    routes = _recording_routes(monkeypatch)
    assert_sweep_matches_gauge_oracle(pair, grid, 6)
    chunks = -(-points // spectral._STACK_LENGTH)
    assert routes == ["_syevd"] * (chunks + points)
    stacked = np.empty((points, pair.dim, 6))
    energies = np.empty((points, 6))
    for t in range(0, points, spectral._STACK_LENGTH):
        part = slice(t, t + spectral._STACK_LENGTH)
        energies[part], stacked[part] = spectral._eigensolve(pair, grid[part], levels=6)
    for t, s in enumerate(grid):
        w, v = np.linalg.eigh(interpolate(pair, s))
        assert np.array_equal(energies[t], w[:6]) and np.array_equal(stacked[t], v[:, :6]), s


def _assert_point_set_equals_per_point_solves(pair, ss, levels, lanczos):
    """``_eigensolve`` of the point set ``ss`` holds, bit for bit, the
    solves of its points one at a time, stacked."""
    energies, vectors = spectral._eigensolve(pair, ss, levels, lanczos)
    m = pair.dim if levels is None else levels
    assert energies.shape == (len(ss), m) and vectors.shape == (len(ss), pair.dim, m)
    for t, s in enumerate(ss):
        w, v = spectral._eigensolve(pair, s, levels, lanczos)
        assert np.array_equal(energies[t], w) and np.array_equal(vectors[t], v), (s, levels)


@settings(max_examples=25, deadline=None, database=None)
@given(
    n=st.integers(3, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    points=st.integers(1, 130),
    lanczos=st.booleans(),
)
def test_point_set_solves_equal_per_point_solves_on_random_small_instances(
    n, data, seed, alpha, mixer, points, lanczos
):
    # up to 130 points: the NumPy route's stacks cross the 64-point boundary
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    levels = data.draw(st.one_of(st.integers(1, pair.dim - 1), st.none()))
    ss = data.draw(st.lists(st.floats(0.0, 1.0), min_size=points, max_size=points))
    _assert_point_set_equals_per_point_solves(pair, np.array(sorted(ss)), levels, lanczos)


def test_point_set_solves_equal_per_point_solves_above_the_lanczos_cut(monkeypatch):
    # s = 1 leaves the Lanczos route for MRRR inside the same point set
    routes = _recording_routes(monkeypatch)
    pair = _above_the_cut()
    _assert_point_set_equals_per_point_solves(pair, np.linspace(0.0, 1.0, 6), 2, True)
    assert routes == ["_lanczos"] * 5 + ["_mrrr"] + ["_lanczos"] * 5 + ["_mrrr"]


def _isolated(w: np.ndarray, m: int, separation: float) -> np.ndarray:
    """Which of the lowest m of the levels ``w`` lie at least
    ``separation`` from every other level."""
    distance = np.abs(w[:m, None] - w[None, :])
    np.fill_diagonal(distance, np.inf)
    return distance.min(axis=1) >= separation


@pytest.mark.parametrize("levels", [3, 6])
@pytest.mark.parametrize("name", ["toy1", "toy2"])
def test_stacked_route_agrees_with_mrrr_on_the_alpha_ladder(name, levels):
    # energies to 8 eps ||H||, and the overlap families of every level at
    # least 1e-3 from the others to 1e-12 (a weight's round-off grows as
    # eps ||H|| over the distance to the nearest level)
    builder = {"toy1": toy_example_1, "toy2": toy_example_2}[name]
    eps = np.finfo(float).eps
    for alpha in TOY_LADDER:
        pair = clique_pair(builder(alpha).graph)
        grid = np.linspace(0.0, 1.0, 101)
        swp = sweep(pair, grid, levels=levels)
        got = anticrossing._overlap_families(swp.vectors, pair.final_levels)
        for t, s in enumerate(grid):
            h = interpolate(pair, s)
            w, v = _mrrr(h, levels)
            norm = np.max(np.sum(np.abs(h), axis=1))
            assert np.max(np.abs(np.sort(swp.energies[t]) - w)) <= 8 * eps * norm, (alpha, s)
            keep = _isolated(_mrrr(h)[0], levels, 1e-3)
            want = anticrossing._overlap_families(v, pair.final_levels)
            compared = [(got[0][t], want[0], keep[0]), (got[1][t], want[1], keep[1])]
            if want[2] is not None:
                compared.append((got[2][t][keep], want[2][keep], True))
            for a, b, isolated in compared:
                if isolated:
                    assert np.max(np.abs(a - b), initial=0.0) <= 1e-12, (alpha, s)


def test_a_numpy_failure_inside_a_stack_names_its_point(monkeypatch):
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, 101)
    bad = interpolate(pair, grid[70])  # in the second stack
    eigh = np.linalg.eigh

    def failing(a, *args, **kwargs):
        if any(np.array_equal(h, bad) for h in a.reshape(-1, *bad.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(EigendecompositionError, match=f"at s={grid[70]}: "):
        sweep(pair, grid, levels=6)
    with pytest.raises(EigendecompositionError, match=f"at s={grid[70]}: "):
        spectral._eigensolve(pair, grid[70], levels=6)


def test_stacked_route_rejects_a_nan_as_mrrr_does():
    # HamiltonianPair accepts a NaN in h1_diag; the solve refuses it
    pair = clique_pair(toy_example_1(0.5).graph)
    h1 = pair.h1_diag.copy()
    h1[3] = np.nan
    broken = HamiltonianPair(basis=pair.basis, h0=pair.h0, h1_diag=h1)
    for levels in (6, 2):
        with pytest.raises(ValueError, match="infs or NaNs"):
            spectral._eigensolve(broken, 0.5, levels=levels)
    with pytest.raises(ValueError, match="infs or NaNs"):
        sweep(broken, np.linspace(0.0, 1.0, 11), levels=6)


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


@settings(max_examples=50, deadline=None, database=None)
@given(
    nk=st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    s=st.floats(0.0, 1.0),
    x_seed=st.integers(0, 2**32 - 1),
)
# the pair of _above_the_cut(), which the Lanczos route solves
@example(nk=(11, 4), seed=3, alpha=0.3, mixer="swap_chain", s=0.5, x_seed=0)
def test_lanczos_operator_is_the_csr_product_on_random_instances(nk, seed, alpha, mixer, s, x_seed):
    # the product ARPACK steps with is the CSR matrix's, bit for bit
    n, k = nk
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    x = np.random.default_rng(x_seed).standard_normal(pair.dim)
    got = spectral._csr_operator(pair, s).matvec(x)
    assert got.tobytes() == (interpolate_csr(pair, s) @ x).tobytes()


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
    two, _ = spectral._eigensolve(pair, 0.0, levels=2, lanczos=True)
    six, _ = spectral._eigensolve(pair, 0.0, levels=6, lanczos=True)
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
    res = min_gap(sweep(pair, np.linspace(0.0, 1.0, 51), levels=2))
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
    res = min_gap(sweep(pair, grid, levels=2))
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", pair.dim + 1)
    ref = min_gap(sweep(pair, grid, levels=2))
    assert ref.delta_min < 1e-10
    norm = np.max(np.abs(pair.h0).sum(axis=1)) + np.max(np.abs(pair.h1_diag))
    floor = 4 * np.finfo(float).eps * norm
    assert res.s_star == pytest.approx(ref.s_star, abs=1e-9)
    assert abs(res.delta_min - ref.delta_min) <= floor
    # a grid point on the minimum itself: Lanczos reads the two lowest
    # levels there, not E0 and E2
    w, _ = spectral._lanczos(pair, ref.s_star, 2)
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
    # s* in full, then the fit window and the samples that no probe solved
    assert after[0] == "_mrrr" and set(after[1:]) == {"_lanczos"}
    assert len(after) >= 1 + 2 + 22


@pytest.mark.parametrize("name", sorted(_NARROW_MINIMA))
def test_probes_after_an_unresolved_gap_minimum_stay_dense(monkeypatch, name):
    pair = _NARROW_MINIMA[name]()
    report, _, after = _report_routes(monkeypatch, pair, 101)
    assert 0.0 < report.s_star < 1.0
    assert report.delta_min <= spectral.resolution_floor(pair, report.s_star)
    # no fit window is sought at an unresolved minimum: s* in full is the
    # one solve after min_gap
    assert report.wilkinson is None
    assert after == ["_mrrr"]


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
    for c in range(levels):
        # a vector is determined up to sign where its level is isolated
        separation = np.min(np.abs(np.delete(w_ref, c) - w_ref[c]))
        if separation > 1e-3:
            u = v[:, c] * np.sign(v[:, c] @ v_ref[:, c])
            assert np.max(np.abs(u - v_ref[:, c])) <= 1e-10


def _probe_matches_values_only_mrrr(pair, s, levels):
    """The eigenvalues of an MRRR eigenpair solve of ``levels`` < d at s
    are those of the values-only solve, bit for bit.  The values-only
    solve runs inside the route call, so under the same OpenBLAS thread
    count (one below the cut)."""
    values_only = []
    mrrr = spectral._mrrr

    def recording(h, levels=None):
        values_only.append(scipy.linalg.eigvalsh(
            interpolate(pair, s), driver="evr", subset_by_index=[0, levels - 1]
        ))
        return mrrr(h, levels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_mrrr", recording)
        w, _ = spectral._eigensolve(pair, s, levels)
    assert len(values_only) == 1
    assert np.array_equal(w, values_only[0]), (pair.dim, s, levels)


@settings(max_examples=30, deadline=None, database=None)
@given(
    n=st.integers(3, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    s=st.floats(0.0, 1.0),
    levels=st.sampled_from([1, 2]),
)
def test_probe_eigenvalues_match_values_only_mrrr_on_random_small_instances(
    n, data, seed, alpha, mixer, s, levels
):
    # a subset MRRR solve finds its eigenvalues by bisection with or
    # without vectors, so a probe that reads only the gap loses no bits
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    assume(levels < pair.dim)
    _probe_matches_values_only_mrrr(pair, s, levels)


def test_probe_eigenvalues_match_values_only_mrrr_at_the_verify_points():
    # the d=252 instance of the benchmark's verify workload, at the 21
    # points of ``mingap verify``
    pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    for s in np.linspace(0.0, 1.0, 21):
        for levels in (1, 2):
            _probe_matches_values_only_mrrr(pair, s, levels)


def test_a_failing_probe_names_its_point(monkeypatch):
    # the sweep first, then MRRR fails: min_gap's first solve is Brent's
    # first probe, at the cubic's minimum inside a grid cell
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, 201)
    swp = sweep(pair, grid, levels=2)
    probed = []

    def recording(pair, s):
        probed.append(s)
        return interpolate(pair, s)

    def failing(h, levels=None):
        raise EigendecompositionError(f"eigensolver failed on dim {h.shape[0]}: no convergence")

    monkeypatch.setattr(spectral, "interpolate", recording)
    monkeypatch.setattr(spectral, "_mrrr", failing)
    with pytest.raises(EigendecompositionError) as err:
        min_gap(swp)
    assert len(probed) == 1 and 0.0 < probed[0] < 1.0 and probed[0] not in grid
    assert str(err.value) == f"at s={probed[0]}: eigensolver failed on dim 20: no convergence"
    # a sweep's failing point is named once
    with pytest.raises(EigendecompositionError) as err:
        sweep(pair, grid, levels=2)
    assert str(err.value) == "at s=0.0: eigensolver failed on dim 20: no convergence"


def _failing_solver(*args, **kwargs):
    raise scipy.linalg.LinAlgError("no convergence")


def _arpack_not_converging(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: no convergence", [], [])


_FAILING_BACKENDS = {
    # (pair, the solvers whose failure it meets, the failure of each)
    "lapack": (lambda: clique_pair(toy_example_1(0.0).graph),
               [(scipy.linalg, "eigh", _failing_solver)]),
    # ARPACK falls back to MRRR, so the dense solve must fail as well
    "arpack": (_above_the_cut,
               [(scipy.sparse.linalg, "eigsh", _arpack_not_converging),
                (scipy.linalg, "eigh", _failing_solver)]),
}
# Each builds its input from a sweep while the solvers work, and returns
# the call to make once they fail.
_FAILING_CALLS = {
    "min_gap": lambda swp: functools.partial(min_gap, swp),
    "wilkinson_fit": lambda swp: functools.partial(
        wilkinson_fit, compute_overlaps(swp).at(0.69)
    ),
    "sweep": lambda swp: functools.partial(sweep, swp.pair, swp.grid, levels=2),
}


@pytest.mark.parametrize(
    "backend, call",
    [("lapack", c) for c in ("min_gap", "wilkinson_fit")]
    + [("arpack", c) for c in ("sweep", "min_gap")],
    ids=["min_gap", "wilkinson_fit", "arpack-sweep", "arpack-min_gap"],
)
def test_solver_failure_raises_eigendecomposition_error(monkeypatch, backend, call):
    build, solvers = _FAILING_BACKENDS[backend]
    call = _FAILING_CALLS[call](sweep(build(), np.linspace(0.0, 1.0, 51), levels=2))
    for module, name, failure in solvers:
        monkeypatch.setattr(module, name, failure)
    with pytest.raises(EigendecompositionError, match="no convergence"):
        call()


def test_arpack_failure_falls_back_to_mrrr(monkeypatch):
    # a point ARPACK does not converge on is solved densely, as if it lay
    # below the cut, and nothing is raised
    pair = _above_the_cut()
    grid = np.linspace(0.0, 1.0, 51)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", pair.dim + 1)
    dense, dense_gap = sweep(pair, grid, levels=2), min_gap_of(pair, 51)
    monkeypatch.setattr(spectral, "LANCZOS_MIN_DIM", LANCZOS_MIN_DIM)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _arpack_not_converging)
    routes = _recording_routes(monkeypatch)
    swp = sweep(pair, grid, levels=2)
    assert routes == ["_lanczos", "_mrrr"] * 50 + ["_mrrr"]
    assert np.array_equal(swp.energies, dense.energies)
    assert np.array_equal(swp.vectors, dense.vectors)
    assert min_gap_of(pair, 51) == dense_gap


# ---------------------------------------------------------------------------
# one OpenBLAS thread for every solve below ``_BLAS_THREADS_MIN_DIM``


@pytest.fixture
def blas_threads():
    """The (get, set) thread-count functions of every loaded OpenBLAS, set
    to 2 threads; the counts found are restored afterwards."""
    controls = spectral._openblas_thread_counts()
    if not controls:
        pytest.skip("no OpenBLAS library found in this process: the pin does nothing here")
    found = _thread_counts(controls)
    try:
        _set_thread_counts(controls, 2)
        if _thread_counts(controls) != [2] * len(controls):
            pytest.skip("OpenBLAS is built single-threaded here: there is no count to pin")
        yield controls
    finally:
        for (_, set_), count in zip(controls, found):
            set_(count)


def _thread_counts(controls):
    return [get() for get, _ in controls]


def _set_thread_counts(controls, count):
    for _, set_ in controls:
        set_(count)


def _recording_thread_counts(monkeypatch, controls, fail=False):
    """Wrap both solver routes to record the OpenBLAS thread counts each
    solve runs under (and, with ``fail``, to raise after recording)."""
    seen = []
    for name in ("_mrrr", "_syevd", "_lanczos"):
        original = getattr(spectral, name)

        def recording(*args, _original=original, **kwargs):
            seen.append(tuple(_thread_counts(controls)))
            if fail:
                raise EigendecompositionError("failing on purpose")
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, recording)
    return seen


def test_solves_below_the_cut_run_on_one_thread_and_restore_the_count(monkeypatch, blas_threads):
    pair = clique_pair(toy_example_1(0.5).graph)
    assert pair.dim < spectral._BLAS_THREADS_MIN_DIM
    seen = _recording_thread_counts(monkeypatch, blas_threads)
    for count in (2, 3):
        _set_thread_counts(blas_threads, count)
        seen.clear()
        spectral._eigensolve(pair, 0.5, levels=2)
        sweep(pair, np.linspace(0.0, 1.0, 11))
        sweep(pair, np.linspace(0.0, 1.0, 101), levels=6)
        min_gap_of(pair, 51)
        assert seen and set(seen) == {(1,) * len(blas_threads)}
        assert _thread_counts(blas_threads) == [count] * len(blas_threads)


def test_the_count_is_restored_after_a_solve_that_raises(monkeypatch, blas_threads):
    pair = clique_pair(toy_example_1(0.5).graph)
    seen = _recording_thread_counts(monkeypatch, blas_threads, fail=True)
    with pytest.raises(EigendecompositionError):
        spectral._eigensolve(pair, 0.5, levels=2)
    with pytest.raises(EigendecompositionError, match="at s=0.0"):
        sweep(pair, np.linspace(0.0, 1.0, 11))
    assert seen == [(1,) * len(blas_threads)] * 2
    assert _thread_counts(blas_threads) == [2] * len(blas_threads)


def test_nested_scopes_pin_once_and_restore_at_the_outermost_exit(blas_threads):
    one, two = [1] * len(blas_threads), [2] * len(blas_threads)
    pair = clique_pair(toy_example_1(0.5).graph)
    with spectral._ONE_BLAS_THREAD:
        with spectral._ONE_BLAS_THREAD:
            assert _thread_counts(blas_threads) == one
            spectral._eigensolve(pair, 0.5, levels=2)
        assert _thread_counts(blas_threads) == one
    assert _thread_counts(blas_threads) == two


def _numpy_openblas_threads():
    """The thread-count getter of the OpenBLAS that NumPy loaded (found by
    path under NumPy's install, as ``spectral`` finds every one), or None."""
    root = str(Path(np.__file__).resolve().parent.parent)
    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    paths = {f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]}
    for path in sorted(p for p in paths if p.startswith(root) and "numpy" in p):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.restype, get.argtypes = ctypes.c_int, ()
                return get
    return None


def test_numpys_openblas_runs_on_one_thread_inside_the_scope(blas_threads):
    # the stacked route calls NumPy's LAPACK, which links its own OpenBLAS
    get = _numpy_openblas_threads()
    if get is None:
        pytest.skip("NumPy's OpenBLAS is not found by path here")
    assert get() == 2
    with spectral._ONE_BLAS_THREAD:
        assert get() == 1
    assert get() == 2


def test_python_threads_sweeping_at_once_restore_the_count(monkeypatch, blas_threads):
    # more sweeping threads than cores, switching often: a lost update of
    # the scope's depth would leave a solve on the caller's count or the
    # count unrestored
    pair = clique_pair(toy_example_1(0.5).graph)
    grid = np.linspace(0.0, 1.0, 201)
    expected = sweep(pair, grid)
    seen = _recording_thread_counts(monkeypatch, blas_threads)
    start = threading.Barrier(4, timeout=60)
    results, errors = [], []

    def sweeping():
        try:
            start.wait()
            for _ in range(3):
                results.append(sweep(pair, grid))
        except BaseException as err:  # surfaced below, in the test's thread
            errors.append(err)

    workers = [threading.Thread(target=sweeping) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors and len(results) == 12
    assert set(seen) == {(1,) * len(blas_threads)}
    assert _thread_counts(blas_threads) == [2] * len(blas_threads)
    for swp in results:
        assert np.array_equal(swp.energies, expected.energies)
        assert np.array_equal(swp.vectors, expected.vectors)


def test_solves_from_the_cut_keep_the_callers_count(monkeypatch, blas_threads):
    big = clique_pair(random_instance(12, 4, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    assert big.dim >= spectral._BLAS_THREADS_MIN_DIM > LANCZOS_MIN_DIM
    seen = _recording_thread_counts(monkeypatch, blas_threads)
    for lanczos in (True, False):
        spectral._eigensolve(big, 0.5, levels=2, lanczos=lanczos)
    assert seen == [(2,) * len(blas_threads)] * 2
    assert _thread_counts(blas_threads) == [2] * len(blas_threads)


def test_report_does_not_depend_on_the_callers_thread_count(blas_threads):
    # the d=252 instance of the benchmark's verify workload; with the
    # solves on the caller's threads, the dense probes of min_gap read
    # s* 0.9560090058576113 on one thread and 0.9560090026233817 on two
    pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    reports = []
    for count in (1, 2):
        _set_thread_counts(blas_threads, count)
        reports.append(json.dumps(build_report(pair, grid_points=201)[0].to_dict()))
        assert _thread_counts(blas_threads) == [count] * len(blas_threads)
    assert reports[0] == reports[1]
