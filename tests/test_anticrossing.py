import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
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
    StepSizeError,
    SwapMeasurement,
    build_report,
    compute_overlaps,
    epsilon_bound_margin,
    gap_decomposition_residual,
    measure_choi,
    measure_solution_swap,
    min_gap_bounds,
    partition_final_levels,
    rotation_residuals,
    solution_derivative_residuals,
    wilkinson_fit,
)

from oracles import TwoLevelOracle, swap_window_scan


def point_at(pair, swp, s):
    """The anti-crossing point at s, on the overlap series of ``swp``."""
    return compute_overlaps(swp, partition_final_levels(pair)).at(s)


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
    part = partition_final_levels(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    series = compute_overlaps(swp, part)
    assert series.solution is None
    assert series.at(0.5).solution is None


# ---------------------------------------------------------------------------
# hyperbola fit


def test_wilkinson_recovers_exact_hyperbola():
    pair = symmetric_two_level()
    oracle = TwoLevelOracle(0.0, 1.0, 1.0).hyperbola()
    mg = min_gap(pair, tol=1e-12)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    fit = wilkinson_fit(swp, mg.s_star)
    assert fit.valid
    assert fit.slope_difference == pytest.approx(oracle["slope_difference"], abs=1e-6)
    assert fit.slope_mean == pytest.approx(oracle["slope_mean"], abs=1e-6)
    assert fit.gap_fit == pytest.approx(oracle["delta_min"], abs=1e-6)
    assert fit.energy_center == pytest.approx(oracle["energy_center"], abs=1e-6)
    assert fit.rms_residual <= 1e-6


def test_wilkinson_valid_on_strong_crossing(bundles):
    b = bundles("toy1", 0.0)
    fit = wilkinson_fit(b.sweep, b.mg.s_star)
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
    fit = wilkinson_fit(swp, 0.5, window=(0.3, 0.7))
    assert not fit.valid
    assert fit.rms_residual <= 1e-10  # parallel lines fit perfectly, yet no bend


def _linear_ladder_window(pair, s_star, delta_min):
    """The fit window of a walk down the whole ladder: the first half-width
    cap * 0.999 / 1.3^n, n = 0 .. 199, on which the dense gap stays at most
    3 Delta_min, or n = 200."""
    cap = min(s_star, 1.0 - s_star)
    half = cap * 0.999
    for _ in range(200):
        edges = (spectral._gap_at(pair, s_star - half), spectral._gap_at(pair, s_star + half))
        if max(edges) <= 3.0 * delta_min:
            break
        half /= 1.3
    return (s_star - half, s_star + half)


def _assert_window_of_the_ladder(monkeypatch, pair, swp):
    """The fit window at the sweep's gap minimum is the linear ladder's, in
    at most four rungs; returns False (and checks nothing) where the gap
    minimum is not resolved."""
    mg = min_gap(pair, sweep=swp)
    resolved = bool(mg.delta_min > resolution_floor(pair, mg.s_star))
    if not resolved:
        return False
    probes = []

    def counting(pair, s, lanczos=False):
        probes.append(s)
        return spectral._gap_at(pair, s, lanczos)

    with monkeypatch.context() as patch:
        patch.setattr(anticrossing, "_gap_at", counting)
        window = anticrossing._auto_fit_window(swp, mg.s_star, mg.delta_min)
    assert window == _linear_ladder_window(pair, mg.s_star, mg.delta_min)
    assert len(probes) <= 8
    return True


@pytest.mark.parametrize("builder", [toy_example_1, toy_example_2])
def test_fit_window_is_the_ladder_rung_found_from_the_hyperbola(monkeypatch, builder):
    # the alpha ladder of the benchmark's toy workload; its last rungs fall
    # below the resolution floor on toy2 (and on toy1 at 0.66666)
    alphas = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.63, 0.66, 0.6666, 0.66666)
    resolved = 0
    for alpha in alphas:
        pair = clique_pair(builder(alpha).graph)
        swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 1001), levels=2)
        resolved += _assert_window_of_the_ladder(monkeypatch, pair, swp)
    assert resolved >= 9


def test_fit_window_is_the_ladder_rung_above_the_lanczos_cut(monkeypatch):
    pair = clique_pair(random_instance(11, 5, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 201), levels=2)
    assert _assert_window_of_the_ladder(monkeypatch, pair, swp)


def test_wilkinson_window_validation(bundles):
    b = bundles("toy1", 0.5)
    with pytest.raises(ValueError):
        wilkinson_fit(b.sweep, b.mg.s_star, samples=5)
    with pytest.raises(ValueError):
        wilkinson_fit(b.sweep, b.mg.s_star, window=(b.mg.s_star + 0.01, 1.0))


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
    mg = min_gap(pair, tol=1e-12)
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
    found = swap_window_scan(
        anticrossing._swap_clauses, point.series.grid, point.s, pairs, extra_epsilon
    )
    return SwapMeasurement(*found) if isinstance(found, tuple) else found


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
    # with one final level (all targets within the degeneracy tolerance)
    # the report's Choi measurement raises
    assume(partition_final_levels(pair).level_count >= 2)
    _, _, point = build_report(pair, grid_points=grid_points)
    if point is not None:
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
    mg = min_gap(pair, tol=1e-12)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    residual = gap_decomposition_residual(point_at(pair, swp, mg.s_star))
    assert residual <= 1e-6 * (1.0 + mg.delta_min)


# ---------------------------------------------------------------------------
# epsilon bound


def test_epsilon_bound_margin_on_fixture(bundles):
    b = bundles("toy1", 0.0)
    report, _, _ = build_report(b.pair, precomputed_sweep=b.sweep)
    assert report.choi.satisfied
    margin = epsilon_bound_margin(report, b.partition)
    assert margin is not None and margin >= 0
    # K = 2 (E0 + E1 + 2M) on shifted energies = 2 (0 + 1 + 2*3) = 14
    assert margin == pytest.approx(14 * report.choi.epsilon - report.delta_min, abs=1e-12)


def test_epsilon_bound_not_applicable(bundles):
    b = bundles("toy1", 0.5)
    report, _, _ = build_report(b.pair, precomputed_sweep=b.sweep)
    assert not report.choi.satisfied
    assert epsilon_bound_margin(report, b.partition) is None
    assert report.epsilon_bound_margin is None


# ---------------------------------------------------------------------------
# rotation at the gap minimum


def test_rotation_two_level_second_order():
    pair = sharp_two_level()
    mg = min_gap(pair, tol=1e-12)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    point = point_at(pair, swp, mg.s_star)
    coarse = rotation_residuals(point, h=2e-5)
    fine = rotation_residuals(point, h=1e-5)
    assert coarse.coupling_above_max == 0.0
    assert fine.residual_ground <= 2e-4
    ratio = coarse.residual_ground / fine.residual_ground
    assert 3.2 <= ratio <= 4.8
    assert fine.beta == pytest.approx(1000.0, rel=1e-2)


def test_rotation_step_too_large_raises():
    pair = sharp_two_level(coupling=1e-5)  # crossing much narrower than 1e-4
    mg = min_gap(pair, tol=1e-12)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    point = point_at(pair, swp, mg.s_star)
    with pytest.raises(StepSizeError):
        rotation_residuals(point, h=1e-4)
    with pytest.raises(ValueError):
        rotation_residuals(point, h=1e-3)
    auto = rotation_residuals(point)  # auto-selection shrinks instead
    assert auto.step < 1e-6


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
    mg = min_gap(shifted, tol=1e-10)
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


# ---------------------------------------------------------------------------
# solution-weight derivatives


def test_solution_derivative_two_level_limit():
    pair = sharp_two_level()
    mg = min_gap(pair, tol=1e-12)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 101))
    point = point_at(pair, swp, mg.s_star)
    coarse = solution_derivative_residuals(point, h=2e-5)
    fine = solution_derivative_residuals(point, h=1e-5)
    assert fine.sum_residual <= 1e-10
    assert fine.diff_residual <= 1e-3
    assert 3.2 <= coarse.diff_residual / fine.diff_residual <= 4.8


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
    part = partition_final_levels(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    point = compute_overlaps(swp, part).at(0.5)
    for window in (None, (0.4, 0.6)):
        with pytest.raises(DegeneracyError):
            measure_solution_swap(point, window=window)


def test_solution_derivative_needs_unique_ground():
    pair = clique_pair(toy_example_1(Fraction(2, 3)).graph)
    part = partition_final_levels(pair)
    swp = spectral_sweep(pair, np.linspace(0.0, 1.0, 51))
    with pytest.raises(DegeneracyError):
        solution_derivative_residuals(compute_overlaps(swp, part).at(0.5))


# ---------------------------------------------------------------------------
# report assembly


def test_report_names_an_unresolved_gap_as_the_skip_cause():
    pair = clique_pair(toy_example_2(0.66666).graph)
    report, _, star = build_report(pair)
    assert star.delta <= resolution_floor(pair, star.s), "float64 is expected to read no gap at this s*"
    coupling = float(star.v[:, 0] @ spectral._hdot_apply(pair, star.v[:, 1]))
    assert abs(coupling) > 1e-9  # the levels do couple; the gap is what is lost
    skips = [w for w in report.warnings if "skipped" in w]
    assert len(skips) == 4  # hyperbola fit, gap decomposition, rotation, solution derivative
    assert all("not resolved in float64" in w for w in skips), skips
    assert not any("coupling" in w or "refine the gap minimum" in w for w in skips)


def test_fit_of_an_unresolved_gap_is_skipped_with_that_cause():
    # the report's Delta_min reads 0.0 here; a search for the default window
    # would walk down the ladder to a rung narrower than one ulp of s*
    pair = clique_pair(toy_example_2(0.6666).graph)
    report, swp, _ = build_report(pair)
    assert report.delta_min <= resolution_floor(pair, report.s_star)
    cause = anticrossing._unresolved(report.s_star, report.delta_min)
    assert report.wilkinson is None
    assert f"hyperbola fit skipped: {cause}" in report.warnings
    with pytest.raises(ValueError, match="not resolved in float64"):
        wilkinson_fit(swp, report.s_star, delta_min=report.delta_min)
    # a given window is still fitted
    fit = wilkinson_fit(swp, report.s_star, window=(0.99, 0.995), delta_min=report.delta_min)
    assert fit.window == (0.99, 0.995)


def test_report_json_round_trip(bundles):
    b = bundles("toy1", 0.5)
    report, _, _ = build_report(b.pair, precomputed_sweep=b.sweep)
    payload = json.dumps(report.to_dict(), sort_keys=True)
    parsed = json.loads(payload)
    assert parsed["s_star"] == report.s_star
    assert parsed["choi"]["satisfied"] is False
    assert parsed["solution_swap"]["satisfied"] is True
    assert parsed["rotation"]["beta"] == report.rotation.beta


def _recording(inputs, solver):
    def wrapper(a, *args, **kwargs):
        inputs.append(np.array(a, copy=True))
        return solver(a, *args, **kwargs)

    return wrapper


def test_report_decomposes_s_star_once(bundles, monkeypatch):
    b = bundles("toy1", 0.0)  # the sweep is built before the solvers are recorded
    eigh_inputs, eigvalsh_inputs = [], []
    monkeypatch.setattr(scipy.linalg, "eigh", _recording(eigh_inputs, scipy.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "eigvalsh", _recording(eigvalsh_inputs, scipy.linalg.eigvalsh))
    report, _, _ = build_report(b.pair, precomputed_sweep=b.sweep)
    h_star = interpolate(b.pair, report.s_star)
    assert sum(np.array_equal(h, h_star) for h in eigh_inputs) == 1
    # min_gap's refinement, the hyperbola fit's samples, the step search
    # and s*, s* +- h
    assert len(eigh_inputs) + len(eigvalsh_inputs) <= 600


def test_a_point_is_solved_once(bundles, monkeypatch):
    b = bundles("toy1", 0.5)
    calls = []
    original = spectral._eigensolve

    def recording(pair, s, levels=None, vectors=True, lanczos=False):
        calls.append((s, levels, vectors))
        return original(pair, s, levels=levels, vectors=vectors, lanczos=lanczos)

    monkeypatch.setattr(spectral, "_eigensolve", recording)
    point = b.series.at(b.mg.s_star)
    assert isinstance(point, AntiCrossingPoint)
    assert calls == [(b.mg.s_star, None, True)]  # the one full decomposition
    measure_choi(point)
    measure_solution_swap(point)
    gap_decomposition_residual(point)
    assert len(calls) == 1
    rot = rotation_residuals(point)
    searched = calls[1:]
    assert searched and all(levels is not None for _, levels, _ in searched)
    # gap probes of the step search, then one pair of vector solves at s* +- step
    assert [s for s, _, vectors in searched if vectors] == [point.s + rot.step, point.s - rot.step]
    sd = solution_derivative_residuals(point)
    assert len(calls) == 1 + len(searched)
    assert (sd.beta, sd.step) == (rot.beta, rot.step)
    # the point a report hands out sits at its s*, and its step search and
    # solves at s* +- step are already cached
    report, _, returned = build_report(b.pair, precomputed_sweep=b.sweep)
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

    original = spectral._gap_at
    monkeypatch.setattr(spectral, "_gap_at", counting)
    report, _, _ = build_report(b.pair, precomputed_sweep=b.sweep)
    # Brent's search on the two cells around the smallest sweep gap, and
    # its closing vertex probe; no scan (the golden section made 38)
    assert len(calls) <= 15
    assert report.s_star == pytest.approx(b.mg.s_star, abs=1e-7)


@pytest.mark.parametrize("grid_points", [51, 201])
def test_report_finds_a_minimum_narrower_than_its_grid(grid_points):
    # the smallest grid gap sits at s=1; the anti-crossing is far narrower
    # than the grid spacing, and only the gap slope changes sign around it
    pair = clique_pair(toy_example_2(0.66666).graph)
    report, swp, _ = build_report(pair, grid_points=grid_points)
    assert np.argmin(swp.gaps()) == grid_points - 1
    assert report.s_star == pytest.approx(min_gap(pair).s_star, abs=1e-6)


@pytest.mark.parametrize("seed, alpha", [(1, 0.3), (2, 0.3), (2, 0.6)])
def test_report_refines_a_minimum_inside_the_last_cell(seed, alpha):
    pair = clique_pair(random_instance(8, 4, 0.5, 0.5, 1.5, seed=seed, alpha=alpha).graph)
    report, _, _ = build_report(pair, grid_points=201)
    assert 0.999 < report.s_star < 1.0
    assert not any("boundary" in w for w in report.warnings)
    mg = min_gap(pair)  # checked against the fine-scan oracle in test_spectral
    assert report.s_star == pytest.approx(mg.s_star, abs=1e-6)
    assert report.delta_min == pytest.approx(mg.delta_min, rel=1e-9)


@pytest.mark.parametrize("name, alpha", [("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.2)])
def test_report_matches_standalone_measurements(bundles, name, alpha):
    b = bundles(name, alpha)
    report, _, returned = build_report(b.pair, precomputed_sweep=b.sweep)
    point = returned.series.at(report.s_star)  # solved afresh, not the report's cached point
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
