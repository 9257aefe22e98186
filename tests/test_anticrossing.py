import contextlib
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mingap.basis import enumerate_basis
from mingap.clique import random_instance, toy_example_1, toy_example_2
from mingap.hamiltonian import (
    HamiltonianPair,
    build_diagonal_target,
    clique_pair,
    interpolate,
)
from mingap import anticrossing, spectral
from mingap.spectral import DegeneracyError, min_gap, resolution_floor, sweep as spectral_sweep
from mingap.anticrossing import (
    AntiCrossingPoint,
    StationarityError,
    SwapMeasurement,
    build_report,
    compute_overlaps,
    gap_decomposition_residual,
    measure_choi,
    measure_solution_swap,
    min_gap_bounds,
    partition_final_levels,
    rotation_residuals,
    solution_derivative_residuals,
    wilkinson_fit,
)

from conftest import min_gap_of
from oracles import TwoLevelOracle, first_order_rotation, higher_level_couplings, swap_window_scan


def point_at(pair, swp, s):
    """The anti-crossing point at s, on the overlap series of ``swp``."""
    return compute_overlaps(swp).at(s)


def sharp_two_level(coupling=1e-3):
    """Diagonal trade with a tiny coupling: a sharp interior anti-crossing
    near s = 1/2."""
    basis = enumerate_basis(1)
    h0 = np.array([[1.0, -coupling], [-coupling, 0.0]])
    return HamiltonianPair(
        basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 1.0], basis)
    )


def symmetric_two_level():
    basis = enumerate_basis(1)
    h0 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    return HamiltonianPair(
        basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 1.0], basis)
    )


# ---------------------------------------------------------------------------
# final-level partition


def test_partition_toy1_alpha_zero(bundles):
    part = bundles("toy1", 0.0).partition
    assert [len(m) for m in part.members] == [1, 8, 9, 2]
    assert part.energies == (0.0, 1.0, 2.0, 3.0)
    assert part.unique_ground_index is not None


def test_partition_toy1_alpha_half(bundles):
    b = bundles("toy1", 0.5)
    part = b.partition
    assert len(part.members[0]) == 1 and len(part.members[1]) == 1
    assert part.members[0][0] == b.pair.basis.index_of("111000")
    assert part.members[1][0] == b.pair.basis.index_of("000111")
    assert part.energies[0] == -1.5 and part.energies[1] == -1.25


def test_partition_all_distinct_singletons():
    basis = enumerate_basis(2)
    pair = HamiltonianPair(
        basis=basis,
        h0=np.zeros((4, 4)),
        h1_diag=build_diagonal_target([3.0, 1.0, 0.0, 2.0], basis),
    )
    part = partition_final_levels(pair)
    assert all(len(m) == 1 for m in part.members)
    assert part.energies == (0.0, 1.0, 2.0, 3.0)


def test_partition_degenerate_ground():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    part = partition_final_levels(pair)
    assert len(part.members[0]) == 2
    assert part.unique_ground_index is None


# ---------------------------------------------------------------------------
# overlap series


@pytest.mark.parametrize("name,alpha", [("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.2)])
def test_overlap_normalization(bundles, name, alpha):
    series = bundles(name, alpha).series
    assert np.max(np.abs(series.in_ground.sum(axis=1) - 1.0)) <= 1e-10
    assert np.max(np.abs(series.in_excited.sum(axis=1) - 1.0)) <= 1e-10
    assert np.max(np.abs(series.solution.sum(axis=1) - 1.0)) <= 1e-10
    for arr in (series.in_ground, series.in_excited, series.solution):
        assert np.min(arr) >= -1e-15 and np.max(arr) <= 1.0 + 1e-12


def test_overlap_endpoint_values(bundles):
    series = bundles("toy1", 0.5).series
    assert series.in_ground[-1, 0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(series.in_ground[-1, 1:]) <= 1e-12
    assert series.solution[-1, 0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name,alpha", [("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.2)])
def test_overlap_consistency_identities(bundles, name, alpha):
    series = bundles(name, alpha).series
    assert np.max(np.abs(series.solution[:, 0] - series.in_ground[:, 0])) <= 1e-12
    assert np.max(np.abs(series.solution[:, 1] - series.in_excited[:, 0])) <= 1e-12


def test_overlaps_swap_across_crossing(bundles):
    b = bundles("toy1", 0.0)
    s_star = b.mg.s_star
    grid = b.series.grid
    before = grid < s_star - 0.03
    after = grid > s_star + 0.03
    a0, a1 = b.series.in_ground[:, 0], b.series.in_ground[:, 1]
    assert np.all(a1[before & (grid > 0.55)] > a0[before & (grid > 0.55)])
    assert np.all(a0[after] > a1[after])


def test_overlaps_third_level_involvement(bundles):
    """Near alpha = 1/2 the instantaneous ground vector leans on the third
    final level just before the crossing, which is what breaks the
    four-quantity parametrization."""
    b = bundles("toy1", 0.5)
    star = b.series.at(b.mg.s_star)
    assert star.in_ground[2] > 0.3
    assert star.in_ground[1] < 0.05
    grid = b.series.grid
    a0, a2 = b.series.in_ground[:, 0], b.series.in_ground[:, 2]
    before = (grid > b.mg.s_star - 0.05) & (grid < b.mg.s_star - 0.005)
    assert np.max(a2[before]) > 0.5
    assert np.all(a2[grid > b.mg.s_star + 0.05] < a0[grid > b.mg.s_star + 0.05])


def test_overlaps_fourth_level_in_relabelled_fixture(bundles):
    b = bundles("toy2", 0.2)
    star = b.series.at(b.mg.s_star)
    assert star.in_ground[3] > 0.25
    assert star.in_excited[3] > 0.25


def test_compute_overlaps_degenerate_ground_omits_the_solution():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    series = compute_overlaps(swp)
    assert series.solution is None
    assert series.at(0.5).solution is None


@pytest.mark.parametrize("graph", [
    toy_example_1(0.0).graph,  # degenerate levels
    toy_example_1(Fraction(2, 3)).graph,  # degenerate final ground level
    random_instance(9, 4, 0.5, 0.5, 1.5, seed=1, alpha=0.3).graph,  # 126 levels of one member
])
def test_overlap_families_match_a_per_level_loop(graph):
    # the weights of a level, one sum of squares per level, bit for bit, on
    # a grid and at one point
    pair = clique_pair(graph)
    vectors = spectral_sweep(pair, np.linspace(0.0, 1.0, 11), levels=2).vectors
    for v in (vectors, vectors[4]):
        in_ground, in_excited, _ = anticrossing._overlap_families(v, pair.final_levels)
        for l, members in enumerate(pair.final_levels.members):
            sel = list(members)
            assert np.array_equal(in_ground[..., l], np.sum(v[..., sel, 0] ** 2, axis=-1))
            assert np.array_equal(in_excited[..., l], np.sum(v[..., sel, 1] ** 2, axis=-1))


@settings(max_examples=20, deadline=None, database=None)
@given(
    nk=st.integers(3, 7).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    levels=st.sampled_from([2, 6]),
)
# alpha 0 leaves only the missing edges in the energy: five 2-cliques tie
# for the final ground level
@example(nk=(6, 2), seed=0, alpha=0.0, mixer="swap_chain", levels=6)
def test_overlap_series_is_the_families_of_its_sweep_on_random_instances(
    nk, seed, alpha, mixer, levels
):
    n, k = nk
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 41), levels=levels)
    series = compute_overlaps(swp)
    assert "_families" not in vars(series)  # nothing computed before a read
    in_ground, in_excited, solution = anticrossing._overlap_families(swp.vectors, pair.final_levels)
    assert series.grid is swp.grid
    assert np.array_equal(series.in_ground, in_ground)
    assert np.array_equal(series.in_excited, in_excited)
    if pair.final_levels.unique_ground_index is None:
        assert solution is None and series.solution is None
    else:
        assert np.array_equal(series.solution, solution)
    # computed once and kept
    assert series.in_ground is series.in_ground and series.in_excited is series.in_excited


def assert_report_series_is_its_sweeps(pair, grid_points=51):
    """``build_report`` hands out the overlap series of the sweep it
    searched, for every outcome, and the point at s* on that series."""
    searched = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anticrossing, "min_gap", lambda swp: searched.append(swp) or min_gap(swp))
        report, series, point = build_report(pair, grid_points=grid_points)
    assert series.sweep is searched[0]
    assert np.array_equal(series.grid, np.linspace(0.0, 1.0, grid_points))
    interior = not (report.all_degenerate or report.degenerate_at_end) and 0 < report.s_star < 1
    assert (point is not None) == interior
    if point is not None:
        assert point.series is series and point.s == report.s_star
        assert report.delta_min == point.delta
    in_ground, in_excited, solution = anticrossing._overlap_families(
        series.sweep.vectors, pair.final_levels
    )
    assert np.array_equal(series.in_ground, in_ground)
    assert np.array_equal(series.in_excited, in_excited)
    if solution is None:
        assert series.solution is None
    else:
        assert np.array_equal(series.solution, solution)
    return report


@settings(max_examples=20, deadline=None, database=None)
@given(
    nk=st.integers(3, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
    seed=st.integers(0, 2**32 - 1),
    # alpha 0 and 1e-10 draw degenerate final ground levels, and with them
    # gap minima at s=1
    alpha=st.sampled_from([0.0, 1e-10, 0.3, 0.6666666666666666]),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
)
@example(nk=(6, 2), seed=0, alpha=0.0, mixer="swap_chain")
def test_report_series_is_its_sweeps_on_random_instances(nk, seed, alpha, mixer):
    n, k = nk
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    assert_report_series_is_its_sweeps(pair)


def _gap_smallest_at_zero():
    """A two-level pair whose gap grows from s=0 on:
    Delta(s)^2 = (2 + 8 s)^2 + 4 (1 - s)^2."""
    basis = enumerate_basis(1)
    h0 = np.array([[-1.0, -1.0], [-1.0, 1.0]])
    return HamiltonianPair(basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 10.0], basis))


def _two_uncoupled_copies():
    """Two copies of one chain with one target, unlinked: every level is
    doubly degenerate at every s."""
    basis = enumerate_basis(4, 2)
    h0 = np.kron(np.eye(2), -(np.eye(3, k=1) + np.eye(3, k=-1)))
    return HamiltonianPair(
        basis=basis, h0=h0, h1_diag=build_diagonal_target([0.0, 1.0, 2.0] * 2, basis)
    )


@pytest.mark.parametrize("build, outcome", [
    (lambda: clique_pair(toy_example_1(0.5).graph), "interior"),
    (_gap_smallest_at_zero, "boundary"),
    (lambda: clique_pair(toy_example_1(Fraction(2, 3)).graph), "degenerate_at_end"),
    (_two_uncoupled_copies, "all_degenerate"),
], ids=["interior", "boundary", "degenerate_at_end", "all_degenerate"])
def test_report_series_is_its_sweeps_for_every_outcome(build, outcome):
    report = assert_report_series_is_its_sweeps(build())
    assert report.all_degenerate == (outcome == "all_degenerate")
    assert report.degenerate_at_end == (outcome == "degenerate_at_end")
    assert any("at the boundary" in w for w in report.warnings) == (outcome == "boundary")


# ---------------------------------------------------------------------------
# hyperbola fit


def test_wilkinson_recovers_exact_hyperbola():
    pair = symmetric_two_level()
    oracle = TwoLevelOracle(0.0, 1.0, 1.0).hyperbola()
    mg = min_gap_of(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    fit = wilkinson_fit(point_at(pair, swp, mg.s_star))
    assert fit.valid
    assert fit.slope_difference == pytest.approx(oracle["slope_difference"], abs=1e-6)
    assert fit.slope_mean == pytest.approx(oracle["slope_mean"], abs=1e-6)
    assert fit.gap_fit == pytest.approx(oracle["delta_min"], abs=1e-6)
    assert fit.energy_center == pytest.approx(oracle["energy_center"], abs=1e-6)
    assert fit.rms_residual <= 1e-6


def test_wilkinson_valid_on_strong_crossing(bundles):
    b = bundles("toy1", 0.0)
    fit = wilkinson_fit(b.series.at(b.mg.s_star))
    assert fit.valid
    assert fit.gap_fit == pytest.approx(b.mg.delta_min, rel=0.05)
    assert fit.rms_residual <= 0.05 * b.mg.delta_min


def test_wilkinson_rejects_straight_levels():
    basis = enumerate_basis(1)
    pair = HamiltonianPair(
        basis=basis,
        h0=np.diag([0.0, 1.0]),
        h1_diag=build_diagonal_target([0.0, 1.0], basis),
    )
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    fit = wilkinson_fit(point_at(pair, swp, 0.5))
    assert not fit.valid
    assert fit.rms_residual <= 1e-10  # parallel lines fit perfectly, yet no bend


def _linear_ladder_window(pair, s_star, delta):
    """The fit window of a walk down the whole ladder: the first half-width
    cap * 0.999 / 1.3^n, n = 0 .. 199, on which the gap of a dense
    two-level solve stays at most 3 Delta, or n = 200."""
    cap = min(s_star, 1.0 - s_star)
    half = cap * 0.999
    for _ in range(200):
        solves = [spectral._eigensolve(pair, s, levels=2) for s in (s_star - half, s_star + half)]
        if max(w[1] - w[0] for w, _ in solves) <= 3.0 * delta:
            break
        half /= 1.3
    return (s_star - half, s_star + half)


@contextlib.contextmanager
def _window_probes():
    """A scope in which the fit window's probes of H at s +- h are counted;
    yields the list of probed points.  Every solve of the fit is one
    point-set call: a probe of the window holds s - h and s + h, the
    samples are one call of the 23 of 25 points that no probe solved, or
    22 where the centre sample is s* itself."""
    probes = []
    eigensolve = anticrossing._eigensolve

    def counting(pair, s, levels=None, lanczos=False):
        assert len(s) in (2, 22, 23)
        if len(s) == 2:
            probes.extend(s.tolist())
        return eigensolve(pair, s, levels, lanczos)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anticrossing, "_eigensolve", counting)
        yield probes


def _assert_window_of_the_ladder(pair, swp):
    """The fit window at the sweep's gap minimum is the linear ladder's, in
    at most four rungs; returns False (and checks nothing) where the gap
    minimum is not resolved."""
    point = compute_overlaps(swp).at(min_gap(swp).s_star)
    if point.delta <= resolution_floor(pair, point.s):
        return False
    with _window_probes() as probes:
        window, _ = anticrossing._auto_fit_window(point)
    assert window == _linear_ladder_window(pair, point.s, point.delta)
    assert len(probes) <= 8
    return True


@pytest.mark.parametrize("builder", [toy_example_1, toy_example_2])
def test_fit_window_is_the_ladder_rung_found_from_the_hyperbola(builder):
    # the alpha ladder of the benchmark's toy workload; its last rungs fall
    # below the resolution floor on toy2 (and on toy1 at 0.66666)
    alphas = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.66, 0.6666, 0.66666)
    resolved = 0
    for alpha in alphas:
        pair = clique_pair(builder(alpha).graph)
        swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 1001), levels=2)
        resolved += _assert_window_of_the_ladder(pair, swp)
    assert resolved >= 9


def test_fit_window_is_the_ladder_rung_above_the_lanczos_cut():
    pair = clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 201), levels=2)
    assert _assert_window_of_the_ladder(pair, swp)


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(3, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
)
def test_fit_window_is_the_ladder_rung_on_random_instances(n, data, seed, alpha, mixer):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    with _window_probes() as probes:
        report, _, point = build_report(pair, grid_points=51)
    assume(point is not None and point.delta > resolution_floor(pair, point.s))
    assert report.wilkinson.window == _linear_ladder_window(pair, point.s, point.delta)
    assert len(probes) <= 8


@pytest.mark.parametrize("instance", [
    lambda: toy_example_1(0.5),
    lambda: random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3),
], ids=["toy1", "d462"])
def test_a_report_solves_no_point_twice_but_s_star(monkeypatch, instance):
    # s* is solved by min_gap's dense probe and in full; the fit takes its
    # window's ends from the last window probe, and a centre sample at s*
    # from the full solve
    pair = clique_pair(instance().graph)
    points = []
    eigensolve = spectral._eigensolve

    def recording(pair, s, levels=None, lanczos=False):
        points.extend(np.atleast_1d(s).tolist())
        return eigensolve(pair, s, levels, lanczos)

    for module in (spectral, anticrossing):
        monkeypatch.setattr(module, "_eigensolve", recording)
    report, _, point = build_report(pair, grid_points=201)
    assert report.wilkinson is not None
    assert {s for s in points if points.count(s) > 1} == {point.s}
    assert points.count(point.s) == 2


# ---------------------------------------------------------------------------
# swap measurements


def test_choi_satisfied_on_plain_crossing(bundles):
    b = bundles("toy1", 0.0)
    m = measure_choi(b.series.at(b.mg.s_star))
    assert m.satisfied
    assert m.direction_ok
    assert 0.2 < m.gamma < 0.35
    assert 0.1 < m.epsilon < 0.2


def test_choi_not_satisfied_with_third_level(bundles):
    b = bundles("toy1", 0.5)
    m = measure_choi(b.series.at(b.mg.s_star))
    assert not m.satisfied
    assert m.gamma > 0.5


def test_solution_swap_satisfied_on_both(bundles):
    for name, alpha, gamma_cap in (("toy1", 0.0, 0.25), ("toy1", 0.5, 0.1)):
        b = bundles(name, alpha)
        m = measure_solution_swap(b.series.at(b.mg.s_star))
        assert m.satisfied
        assert m.gamma <= gamma_cap
        assert m.epsilon <= 0.1


def test_solution_swap_rejects_intermediate_crossing(bundles):
    """At the earlier crossing between the first and second excited levels
    the solution weight sits in several levels at once, so the relaxed
    parametrization correctly refuses it."""
    b = bundles("toy2", 0.2)
    gap12 = b.sweep.energies[:, 2] - b.sweep.energies[:, 1]
    mask = (b.sweep.grid > 0.3) & (b.sweep.grid < b.mg.s_star - 0.02)
    idx = int(np.argmin(np.where(mask, gap12, np.inf)))
    s12 = float(b.sweep.grid[idx])
    point = b.series.at(s12)
    m = measure_solution_swap(point)
    assert not m.satisfied
    assert point.solution[2] > 0.1  # more than two levels carry the solution


def test_sharp_two_level_measures_near_zero():
    pair = sharp_two_level()
    mg = min_gap_of(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 1001))
    point = point_at(pair, swp, mg.s_star)
    for measure in (measure_choi, measure_solution_swap):
        m = measure(point)
        assert m.satisfied
        assert m.gamma <= 1e-4
        assert m.epsilon <= 1e-2


def test_measure_with_explicit_window(bundles):
    b = bundles("toy1", 0.0)
    point = b.series.at(b.mg.s_star)
    m = measure_choi(point, window=(b.mg.s_star - 0.037, b.mg.s_star + 0.037))
    assert m.satisfied
    assert m.window == (b.mg.s_star - 0.037, b.mg.s_star + 0.037)
    with pytest.raises(ValueError):
        measure_choi(point, window=(b.mg.s_star - 1e-5, b.mg.s_star + 1e-5))


def test_subsumption_on_shared_window(bundles):
    """Whenever the four-quantity measurement is satisfied, the relaxed one
    must hold with parameters no worse, on the same window."""
    b = bundles("toy1", 0.0)
    point = b.series.at(b.mg.s_star)
    choi = measure_choi(point)
    assert choi.satisfied
    relaxed = measure_solution_swap(point, window=choi.window)
    assert relaxed.satisfied
    assert relaxed.gamma <= choi.gamma
    assert relaxed.epsilon <= choi.epsilon + 1e-9


def window_oracle(point, pairs, extra_epsilon=0.0):
    """``oracles.swap_window_scan`` at ``point``: the clauses evaluated one
    symmetric window at a time."""
    return SwapMeasurement(*swap_window_scan(point.series.grid, point.s, pairs, extra_epsilon))


def assert_swaps_match_window_oracle(point):
    """Both swap measurements at ``point`` equal the window-by-window scan
    over the weight pairs each reads."""
    series = point.series
    a0, a1 = ((series.in_ground[:, k], float(point.in_ground[k])) for k in (0, 1))
    b0, b1 = ((series.in_excited[:, k], float(point.in_excited[k])) for k in (0, 1))
    assert measure_choi(point) == window_oracle(point, [(a0, a1), (b1, b0)])
    if point.solution is not None:
        g0, g1 = ((series.solution[:, k], float(point.solution[k])) for k in (0, 1))
        expected = window_oracle(point, [(g0, g1)], abs(g0[1] - g1[1]))
        assert measure_solution_swap(point) == expected


@pytest.mark.parametrize("name", ["toy1", "toy2"])
def test_swap_windows_match_oracle_on_the_alpha_ladder(name):
    builder = {"toy1": toy_example_1, "toy2": toy_example_2}[name]
    for alpha in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.66, 0.6666, 0.66666):
        _, _, point = build_report(clique_pair(builder(alpha).graph), grid_points=201)
        assert_swaps_match_window_oracle(point)


def test_swap_windows_match_oracle_at_d252():
    pair = clique_pair(random_instance(10, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    _, _, point = build_report(pair, grid_points=101)
    assert_swaps_match_window_oracle(point)


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    grid_points=st.integers(51, 301),
)
def test_swap_windows_match_oracle_on_random_instances(n, data, seed, alpha, grid_points):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    report, _, point = build_report(pair, grid_points=grid_points)
    if point is None:
        return
    if point.series.partition.level_count < 2:
        # one final level (all targets within the degeneracy tolerance):
        # there is no pair of levels to swap, and no oracle to match
        assert report.choi is None and report.solution_swap is None
    else:
        assert_swaps_match_window_oracle(point)


def test_swap_window_ties_keep_the_narrowest():
    """A clean step swap scores gamma 0 on every window; the first, the
    narrowest, is kept."""
    grid = np.linspace(0.0, 1.0, 101)
    point = SimpleNamespace(s=0.5, series=SimpleNamespace(grid=grid))
    rising = (grid > 0.5).astype(float)
    pairs = [((rising, 0.5), (1.0 - rising, 0.5))]
    m = anticrossing._measure_swap(point, pairs)
    assert m == window_oracle(point, pairs)
    assert m.gamma == 0.0
    assert m.window == (0.5 - 0.01, 0.5 + 0.01)


def test_swap_without_a_window_reports_the_epsilon_at_the_point():
    """s* within one grid spacing of s = 1: no symmetric window holds two
    grid points, and each measurement reports its own epsilon at s*, with
    the empty window (s*, s*) of floats."""
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=1, alpha=0.3).graph)
    report, _, point = build_report(pair, grid_points=201)
    assert 1.0 - report.s_star < 1.0 / 200
    assert_swaps_match_window_oracle(point)
    solution = report.solution_swap
    assert (solution.satisfied, solution.gamma, solution.direction_ok) == (False, 1.0, False)
    assert solution.epsilon == pytest.approx(0.9999968, abs=1e-7)
    assert solution.epsilon == max(abs(point.solution[0] - point.solution[1]),
                                   abs(point.solution[0] - 0.5), abs(point.solution[1] - 0.5))
    assert report.choi.epsilon == max(abs(x - 0.5) for x in (*point.in_ground[:2],
                                                             *point.in_excited[:2]))
    for m in (report.choi, solution):
        assert m.window == (report.s_star, report.s_star)
        assert all(type(x) is float for x in m.window)


# ---------------------------------------------------------------------------
# gap decomposition identity


@pytest.mark.parametrize("name,alpha", [("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.2)])
def test_gap_decomposition_at_minimum(bundles, name, alpha):
    b = bundles(name, alpha)
    residual = gap_decomposition_residual(b.series.at(b.mg.s_star))
    assert residual <= 1e-6 * (1.0 + b.mg.delta_min)


def test_gap_decomposition_rejects_non_stationary(bundles):
    b = bundles("toy1", 0.5)
    with pytest.raises(StationarityError):
        gap_decomposition_residual(b.series.at(0.4))


def test_gap_decomposition_two_level():
    # exact identity; numerically limited by how well the flat minimum can
    # be located, which is what the contract tolerance accounts for
    pair = sharp_two_level()
    mg = min_gap_of(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    residual = gap_decomposition_residual(point_at(pair, swp, mg.s_star))
    assert residual <= 1e-6 * (1.0 + mg.delta_min)


# ---------------------------------------------------------------------------
# epsilon bound


def test_epsilon_bound_margin_on_fixture(bundles):
    b = bundles("toy1", 0.0)
    report, _, _ = build_report(b.pair)
    assert report.choi.satisfied
    margin = report.epsilon_bound_margin
    assert margin is not None and margin >= 0
    # K = 2 (E0 + E1 + 2M) on shifted energies = 2 (0 + 1 + 2*3) = 14
    assert margin == pytest.approx(14 * report.choi.epsilon - report.delta_min, abs=1e-12)


def test_epsilon_bound_not_applicable(bundles):
    b = bundles("toy1", 0.5)
    report, _, _ = build_report(b.pair)
    assert not report.choi.satisfied
    assert report.epsilon_bound_margin is None


# ---------------------------------------------------------------------------
# rotation at the gap minimum


def test_rotation_two_level_second_order():
    pair = sharp_two_level()
    mg = min_gap_of(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    point = point_at(pair, swp, mg.s_star)
    rot = rotation_residuals(point)
    assert rot.coupling_above_max == 0.0
    assert rot.residual_ground <= 2e-4
    assert rot.beta == pytest.approx(1000.0, rel=1e-2)


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.6, 0.66])
def test_beta_nonnegative_under_solution_gauge(bundles, alpha):
    b = bundles("toy1", alpha)
    rot = rotation_residuals(b.series.at(b.mg.s_star))
    assert rot.beta >= 0


def test_beta_invariant_under_psd_shift(bundles):
    b = bundles("toy1", 0.5)
    shifted = HamiltonianPair(
        basis=b.pair.basis,
        h0=b.pair.h0,
        h1_diag=b.pair.h1_diag - np.min(b.pair.h1_diag),
    )
    swp = spectral_sweep(shifted, np.linspace(0.0, 1.0, 101))
    mg = min_gap_of(shifted)
    assert mg.s_star == pytest.approx(b.mg.s_star, abs=1e-8)
    rot_ref = rotation_residuals(b.series.at(b.mg.s_star))
    rot_shift = rotation_residuals(point_at(shifted, swp, mg.s_star))
    assert rot_shift.beta == pytest.approx(rot_ref.beta, rel=1e-6)
    assert rot_shift.beta >= 0


def test_rotation_reasonable_on_fixture(bundles):
    b = bundles("toy1", 0.66)
    rot = rotation_residuals(b.series.at(b.mg.s_star))
    assert rot.residual_ground <= 0.05
    assert rot.residual_excited <= 0.05
    assert rot.coupling_above_max > 0  # higher-level couplings do not vanish here


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    grid_points=st.integers(51, 201),
)
def test_rotation_matches_first_order_oracle_on_random_instances(n, data, seed, alpha, grid_points):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    gs = pair.final_levels.unique_ground_index
    assume(gs is not None)
    report, _, point = build_report(pair, grid_points=grid_points)
    # round-off mixes v0 and v1 by about eps ||H|| / Delta; above 1e-6 that
    # stays below the bounds
    assume(point is not None and report.delta_min >= 1e-6)
    # the gauge of v1 rests on its solution entry, so the solution state
    # must take part in both levels
    assume(report.rotation is not None and min(point.solution[:2]) >= 1e-6)
    beta, ground, excited = first_order_rotation(pair.h0, pair.h1_diag, point.s, gs)
    assert report.rotation.beta == pytest.approx(beta, rel=1e-8)
    assert report.rotation.residual_ground == pytest.approx(ground, rel=1e-6)
    assert report.rotation.residual_excited == pytest.approx(excited, rel=1e-6)


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
)
def test_first_order_couplings_match_the_full_product_on_random_instances(n, data, seed, alpha, mixer):
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    _, _, point = build_report(pair, grid_points=101)
    assume(point is not None and point.v.shape[1] > 2)
    try:
        _, upper, _ = point.first_order
    except ValueError:
        assume(False)
    oracle = higher_level_couplings(pair.h0, pair.h1_diag, point.v)
    # relative to ||H1 - H0||_inf, which bounds every coupling: one that a
    # symmetry forbids reads round-off in both products
    norm = np.max(np.abs(np.diag(pair.h1_diag) - pair.h0).sum(axis=1))
    assert np.max(np.abs(upper - oracle)) <= 1e-13 * norm


@settings(max_examples=20, deadline=None, database=None)
@given(
    n=st.integers(3, 7),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.0, 1.0),
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
)
def test_report_derivatives_are_the_public_derivatives_on_random_instances(
    n, data, seed, alpha, mixer
):
    # the report's rotation and solution-derivative checks and the public
    # derivatives read the same first-order kernel at s*
    k = data.draw(st.integers(1, n - 1))
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph, mixer)
    report, _, point = build_report(pair, grid_points=101)
    assume(point is not None and report.solution_derivative is not None)
    dec = (point.w, point.v)
    try:
        dv = [spectral.eigenvector_derivative(pair, point.s, level, decomposition=dec)
              for level in (0, 1)]
        d2 = [spectral.eigenvalue_second_derivative(pair, point.s, level, decomposition=dec)
              for level in (0, 1)]
    except DegeneracyError:
        assume(False)
    v, beta, gs = point.v, report.rotation.beta, pair.final_levels.unique_ground_index
    # dv_n/ds holds -+beta v_(1-n) beside its higher-level part, so the part
    # taken from it carries round-off of eps |beta|: the residuals, relative
    # to |beta|, agree to 1e-12 relative or 1e-13 absolute
    assert report.rotation.residual_ground == pytest.approx(
        np.linalg.norm(dv[0] + beta * v[:, 1]) / abs(beta), rel=1e-12, abs=1e-13)
    assert report.rotation.residual_excited == pytest.approx(
        np.linalg.norm(dv[1] - beta * v[:, 0]) / abs(beta), rel=1e-12, abs=1e-13)
    sd = report.solution_derivative
    assert sd.g0_prime == pytest.approx(2.0 * v[gs, 0] * dv[0][gs], rel=1e-12, abs=1e-13 * abs(beta))
    assert sd.g1_prime == pytest.approx(2.0 * v[gs, 1] * dv[1][gs], rel=1e-12, abs=1e-13 * abs(beta))
    couplings = point._lowest_couplings
    coefficients = spectral._first_order(couplings, point.w, [0, 1])
    for level in (0, 1):
        assert d2[level] == pytest.approx(
            2.0 * np.sum(couplings[level] * coefficients[level]), rel=1e-12)


def test_first_order_is_computed_once_per_point(monkeypatch):
    # the coupling, the fit's start, the stationarity slope,
    # rotation_residuals and solution_derivative_residuals share one
    # two-column product with H1 - H0, the point's kernel
    pair = clique_pair(toy_example_1(0.5).graph)
    shapes = []
    hdot = spectral._hdot_apply

    def recording(pair, v):
        shapes.append(v.shape)
        return hdot(pair, v)

    monkeypatch.setattr(spectral, "_hdot_apply", recording)
    report, _, point = build_report(pair, grid_points=201)
    assert report.rotation is not None and report.solution_derivative is not None
    assert shapes.count((pair.dim, 2)) == 1
    assert report.rotation.beta == report.solution_derivative.beta == point.first_order[0]


# The traced peak of build_report (grid 201) beyond its sweep's arrays, in
# dense d x d float64 matrices.  At the full solve at s*, where it is
# reached, it holds the H(s) that LAPACK overwrites, the eigenvectors and
# LAPACK's workspace; the overlap series is computed later, on its first
# read, and min_gap copies no sweep vectors beyond one block of points.
# Measured 2.16 at d=462 and 2.04 at d=1716 (C(13,6), the CI job); the bound
# leaves 0.24 above the d=462 value, less than the 0.87 that the overlap
# series of a d=462 report (T x final levels, twice) adds if it is held
# through that solve.
REPORT_PEAK_MATRICES = 2.4


def report_peak_matrices(n: int, k: int) -> float:
    pair = clique_pair(random_instance(n, k, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    tracemalloc.start()
    try:
        swp = build_report(pair, grid_points=201)[1].sweep
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - swp.energies.nbytes - swp.vectors.nbytes) / (pair.dim**2 * 8)


def test_report_memory_at_d462():
    assert report_peak_matrices(11, 5) <= REPORT_PEAK_MATRICES


# ---------------------------------------------------------------------------
# solution-weight derivatives


def test_solution_derivative_two_level_limit():
    pair = sharp_two_level()
    mg = min_gap_of(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    point = point_at(pair, swp, mg.s_star)
    sd = solution_derivative_residuals(point)
    assert sd.sum_residual <= 1e-10
    assert sd.diff_residual <= 1e-3


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, 0.6, 0.66])
def test_solution_derivative_signs(bundles, alpha):
    b = bundles("toy1", alpha)
    sd = solution_derivative_residuals(b.series.at(b.mg.s_star))
    assert sd.g0_prime > 0 and sd.g1_prime < 0


def test_solution_weights_balanced_at_strong_crossing(bundles):
    b = bundles("toy1", 0.66)
    star = b.series.at(b.mg.s_star)
    m = measure_solution_swap(star)
    assert abs(star.solution[0] - 0.5) <= m.epsilon + 1e-12
    assert abs(star.solution[1] - 0.5) <= m.epsilon + 1e-12


def test_solution_swap_needs_unique_ground():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    point = compute_overlaps(swp).at(0.5)
    for window in (None, (0.4, 0.6)):
        with pytest.raises(DegeneracyError):
            measure_solution_swap(point, window=window)


def test_solution_derivative_needs_unique_ground():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    with pytest.raises(DegeneracyError):
        solution_derivative_residuals(compute_overlaps(swp).at(0.5))


# ---------------------------------------------------------------------------
# report assembly


def test_report_names_an_unresolved_gap_as_the_skip_cause():
    pair = clique_pair(toy_example_2(0.66666).graph)
    report, _, star = build_report(pair)
    assert star.delta <= resolution_floor(pair, star.s), "float64 is expected to read no gap at this s*"
    assert abs(star.coupling) > 1e-9  # the levels do couple; the gap is what is lost
    skips = [w for w in report.warnings if "skipped" in w]
    assert len(skips) == 4  # hyperbola fit, gap decomposition, rotation, solution derivative
    # every stage quotes the one gap it read, the point's
    cause = star.unresolved
    assert all(w.endswith(cause) for w in skips), skips
    assert not any("coupling" in w or "at a resolved gap" in w for w in skips)


def test_fit_of_an_unresolved_gap_is_skipped_with_that_cause():
    # the gap reads 0.0 here; a search for the window would walk down the
    # ladder to a rung narrower than one ulp of s*
    pair = clique_pair(toy_example_2(0.6666).graph)
    report, _, star = build_report(pair)
    assert star.delta <= resolution_floor(pair, star.s)
    cause = star.unresolved
    assert report.wilkinson is None
    assert f"hyperbola fit skipped: {cause}" in report.warnings
    with pytest.raises(ValueError, match="not resolved in float64"):
        wilkinson_fit(star)


def test_report_names_a_coupling_at_round_off_as_the_skip_cause():
    # Delta 0.889 is resolved, but <v0|H1-H0|v1> reads -6.9e-17 against a
    # floor of 2.4e-15: taken at face value it gave beta -7.7e-17 and
    # residual_ground 1.8e16
    pair = clique_pair(random_instance(3, 2, 0.5, 0.5, 1.5, seed=190, alpha=0.0).graph)
    report, _, star = build_report(pair, grid_points=51)
    floor = resolution_floor(pair, star.s)
    assert star.delta > floor and abs(star.coupling) <= floor
    assert report.rotation is None and report.solution_derivative is None
    skips = [w for w in report.warnings if "check skipped" in w]
    assert len(skips) == 2 and all("no anti-crossing coupling" in w for w in skips), skips


def test_report_json_round_trip(bundles):
    b = bundles("toy1", 0.5)
    report, _, _ = build_report(b.pair)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(payload)
    assert parsed["s_star"] == report.s_star
    assert parsed["choi"]["satisfied"] is False
    assert parsed["solution_swap"]["satisfied"] is True
    assert parsed["rotation"]["beta"] == report.rotation.beta


def test_report_decomposes_s_star_once(bundles, monkeypatch):
    b = bundles("toy1", 0.0)
    solves = []
    eigh, sweep = scipy.linalg.eigh, anticrossing.spectral_sweep

    def recording(a, *args, **kwargs):
        solves.append((np.array(a, copy=True), kwargs.get("subset_by_index")))
        return eigh(a, *args, **kwargs)

    def sweep_then_record(*args, **kwargs):
        # the solvers are recorded from the end of the report's sweep on
        swp = sweep(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "eigh", recording)
        return swp

    monkeypatch.setattr(anticrossing, "spectral_sweep", sweep_then_record)
    report, _, _ = build_report(b.pair)
    h_star = interpolate(b.pair, report.s_star)
    # one full decomposition, at s*; every other solve is of two levels
    full = [h for h, subset in solves if subset is None]
    assert len(full) == 1 and np.array_equal(full[0], h_star)
    assert all(subset == [0, 1] for _, subset in solves if subset is not None)
    # min_gap's probes, the hyperbola fit's window and samples and s*
    assert len(solves) <= 600


def test_a_point_is_solved_once(bundles, monkeypatch):
    b = bundles("toy1", 0.5)
    calls = []
    original = spectral._eigensolve

    def recording(pair, s, levels=None, lanczos=False):
        calls.append((s, levels))
        return original(pair, s, levels=levels, lanczos=lanczos)

    monkeypatch.setattr(spectral, "_eigensolve", recording)
    point = b.series.at(b.mg.s_star)
    assert isinstance(point, AntiCrossingPoint)
    assert calls == [(b.mg.s_star, None)]  # the one full decomposition
    measure_choi(point)
    measure_solution_swap(point)
    gap_decomposition_residual(point)
    # the rotation checks read first-order perturbation theory off the
    # same decomposition
    rot = rotation_residuals(point)
    sd = solution_derivative_residuals(point)
    assert len(calls) == 1
    assert sd.beta == rot.beta
    # the point a report hands out sits at its s*
    report, _, returned = build_report(b.pair)
    assert isinstance(returned, AntiCrossingPoint) and returned.s == report.s_star
    del calls[:]
    assert rotation_residuals(returned) == report.rotation
    assert solution_derivative_residuals(returned) == report.solution_derivative
    assert min_gap_bounds(returned, b.partition.unique_ground_index) is not None
    assert calls == []


def test_report_brackets_the_gap_minimum_on_its_sweep(bundles, monkeypatch):
    b = bundles("toy1", 0.0)
    calls = []

    def counting(pair, s):
        calls.append(s)
        return original(pair, s)

    original = spectral._probe
    monkeypatch.setattr(spectral, "_probe", counting)
    report, _, _ = build_report(b.pair)
    # the branch-and-bound from the sweep's grid and its closing vertex
    # probe; no scan (a golden section over the grid's cells made 38)
    assert 0 < len(calls) <= 15
    assert report.s_star == pytest.approx(b.mg.s_star, abs=1e-7)


@pytest.mark.parametrize("pairs, grid_points", [
    # the alpha ladder of the benchmark's toy workload: at 0.6666 toy1's
    # search reads 1.006750e-12 and the full solve at s* 1.006972e-12
    (lambda: [clique_pair(builder(alpha).graph) for builder in (toy_example_1, toy_example_2)
              for alpha in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.66, 0.6666, 0.66666)], 1001),
    (lambda: [clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)], 201),
], ids=["toy-ladder", "d462"])
def test_report_states_the_gap_its_point_read(pairs, grid_points):
    for pair in pairs():
        report, _, point = build_report(pair, grid_points=grid_points)
        assert report.delta_min == point.delta


@pytest.mark.parametrize("grid_points", [51, 201])
def test_report_finds_a_minimum_narrower_than_its_grid(grid_points):
    # the smallest grid gap sits at s=1; the anti-crossing is far narrower
    # than the grid spacing, and only the gap slope changes sign around it
    pair = clique_pair(toy_example_2(0.66666).graph)
    report, series, _ = build_report(pair, grid_points=grid_points)
    assert np.argmin(series.sweep.gaps()) == grid_points - 1
    assert report.s_star == pytest.approx(min_gap_of(pair).s_star, abs=1e-6)


@pytest.mark.parametrize("seed, alpha", [(1, 0.3), (2, 0.3), (2, 0.6)])
def test_report_refines_a_minimum_inside_the_last_cell(seed, alpha):
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    report, _, _ = build_report(pair, grid_points=201)
    assert 0.999 < report.s_star < 1.0
    assert not any("boundary" in w for w in report.warnings)
    mg = min_gap_of(pair)  # checked against the fine-scan oracle in test_spectral
    assert report.s_star == pytest.approx(mg.s_star, abs=1e-6)
    assert report.delta_min == pytest.approx(mg.delta_min, rel=1e-9)


@pytest.mark.parametrize("name, alpha", [("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.2)])
def test_report_matches_standalone_measurements(bundles, name, alpha):
    b = bundles(name, alpha)
    report, _, returned = build_report(b.pair)
    point = returned.series.at(report.s_star)  # solved afresh, not the report's cached point
    assert report.wilkinson == wilkinson_fit(point)
    assert report.choi == measure_choi(point)
    assert report.solution_swap == measure_solution_swap(point)
    assert report.rotation == rotation_residuals(point)
    assert report.solution_derivative == solution_derivative_residuals(point)
    assert report.gap_decomposition_residual == gap_decomposition_residual(point)


def test_report_degenerate_ground_path():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    report, _, point = build_report(pair, grid_points=101)
    assert report.ground_degenerate
    assert report.degenerate_at_end
    assert report.choi is None and report.solution_swap is None
    assert any("degenerate" in w for w in report.warnings)
    assert point is None


def test_report_on_one_final_level_skips_the_swap_measurements():
    # all three target energies lie within the degeneracy tolerance, yet
    # the gap minimum is interior: no pair of final levels to swap
    pair = clique_pair(random_instance(3, 1, 0.5, 0.5, 1.5, seed=1, alpha=1e-10).graph)
    assert partition_final_levels(pair).level_count == 1
    report, _, point = build_report(pair, grid_points=101)
    assert point is not None and 0.0 < report.s_star < 1.0
    assert report.choi is None and report.solution_swap is None
    assert "one final energy level; swap measurements skipped" in report.warnings
    with pytest.raises(ValueError, match="two final energy levels"):
        measure_choi(point)


def test_report_zero_target_path():
    basis = enumerate_basis(2)
    pair = HamiltonianPair(
        basis=basis,
        h0=np.diag([0.0, 0.0, 0.0, 0.0]) - (np.ones((4, 4)) - np.eye(4)),
        h1_diag=build_diagonal_target(np.zeros(4), basis),
    )
    report, _, _ = build_report(pair, grid_points=101)
    assert report.degenerate_at_end
    assert report.delta_min <= 1e-12
