"""Acceptance suite: one test per exit criterion, asserted at the stated
tolerance, with a pass/fail line per criterion in the terminal summary.

Where a criterion's figure is a property of the instance rather than of
the method (the four-quantity swap parameters on the plain crossing, and
the rotation residuals, whose size is set by the coupling to higher
levels), the measurement is checked against an independent oracle from
``oracles.py`` at a tight tolerance instead of against a fixed number.
"""

import filecmp
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from click.testing import CliRunner

from mingap.cli import derivative_checks, identity_checks, main as cli_main

from mingap.basis import enumerate_basis
from mingap.clique import brute_force, random_instance, toy_example_1
from mingap.hamiltonian import build_clique_target, clique_pair
from mingap.spectral import decompose_interpolated, resolution_floor
from mingap.anticrossing import (
    build_report,
    gap_decomposition_residual,
    measure_choi,
    measure_solution_swap,
    rotation_residuals,
    solution_derivative_residuals,
)

from conftest import record_criterion
from oracles import (
    choi_window_minimum,
    first_order_rotation,
    four_quantity_epsilon,
    level_weights,
)

# choi-satisfied random instances, frozen from a seed scan:
# (seed, n, k, edge probability, alpha), weights uniform in [0.5, 1.5]
CHOI_PASSING_INSTANCES = (
    (6, 5, 2, 0.4, 0.2),
    (19, 6, 2, 0.5, 0.2),
    (21, 5, 3, 0.4, 0.3),
    (22, 6, 3, 0.5, 0.4),
    (24, 5, 2, 0.4, 0.2),
    (26, 7, 2, 0.6, 0.3),
    (37, 6, 2, 0.5, 0.2),
    (56, 7, 2, 0.6, 0.3),
    (59, 7, 3, 0.6, 0.4),
    (67, 6, 2, 0.5, 0.2),
)


def test_criterion_1_encoding_correctness():
    start = time.perf_counter()
    basis = enumerate_basis(6, 3)
    formula_ok = True
    for alpha in (0.0, 0.5, 2 / 3):
        h1 = build_clique_target(toy_example_1(alpha).graph, basis)
        formula_ok &= h1[basis.index_of("111000")] == -3 * alpha
        formula_ok &= h1[basis.index_of("000111")] == 1 - 4.5 * alpha

    mismatches = 0
    for seed in range(50):
        n = 5 + seed % 4
        k = 2 + (seed // 4) % 2
        p = (0.3, 0.5, 0.7)[seed % 3]
        alpha = (0.0, 0.25, 0.5, 0.8)[seed % 4]
        inst = random_instance(n, k, p, 0.5, 2.0, seed=seed, alpha=alpha)
        b = enumerate_basis(n, k)
        h1 = build_clique_target(inst.graph, b)
        table = brute_force(inst).table
        if not np.array_equal(np.sort(h1), np.sort([e for _, e in table])):
            mismatches += 1
            continue
        for subset, energy in table:
            bits = "".join("1" if i + 1 in subset else "0" for i in range(n))
            if h1[b.index_of(bits)] != energy:
                mismatches += 1
                break

    elapsed = time.perf_counter() - start
    ok = formula_ok and mismatches == 0 and elapsed < 5.0
    record_criterion(
        1, ok,
        f"clique energies bit-exact vs formulas and solver on 50 instances ({elapsed:.1f}s)",
    )
    assert formula_ok
    assert mismatches == 0
    assert elapsed < 5.0


def _asserted(checks):
    """The checks of a verify group that carry a tolerance."""
    return [c for c in checks if c["status"] in ("pass", "fail")]


def test_criterion_2_projection_identities(bundles):
    start = time.perf_counter()
    checks = []
    for name, alpha in (("toy1", 0.0), ("toy1", 0.5), ("toy2", 0.0), ("toy2", 0.5)):
        pair = bundles(name, alpha).pair
        dense = [(s, decompose_interpolated(pair, s)) for s in np.linspace(0.0, 1.0, 21)]
        checks += _asserted(identity_checks(pair, dense))
    worst = max(checks, key=lambda c: c["value"])
    failed = [c for c in checks if c["status"] != "pass"]
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed < 10.0
    record_criterion(
        2, ok,
        f"eigenvalue/gap projection identities, max relative residual {worst['value']:.2e} "
        f"<= {worst['tolerance']:.0e} ({elapsed:.1f}s)",
    )
    assert not failed, failed
    assert elapsed < 10.0


def test_criterion_3_derivatives_vs_finite_differences(bundles):
    start = time.perf_counter()
    b = bundles("toy1", 0.5)
    points = [s for s in np.linspace(0.04, 0.96, 24) if abs(s - b.mg.s_star) > 0.03][:20]
    assert len(points) == 20
    checks = _asserted(derivative_checks(b.pair, points))
    assert len(checks) == 3
    failed = [c for c in checks if c["status"] != "pass"]
    elapsed = time.perf_counter() - start
    ok = not failed and elapsed < 10.0
    record_criterion(
        3, ok,
        "derivatives vs finite differences: "
        + "/".join(f"{c['value']:.1e}" for c in checks) + " <= "
        + "/".join(f"{c['tolerance']:.0e}" for c in checks) + f" ({elapsed:.1f}s)",
    )
    assert not failed, failed
    assert elapsed < 10.0


def test_criterion_4_gap_decomposition(bundles):
    start = time.perf_counter()
    worst_rel = 0.0
    cases = [("toy1", a) for a in (0.0, 0.2, 0.5, 0.6, 0.66)] + [("toy2", 0.2)]
    for name, alpha in cases:
        b = bundles(name, alpha)
        residual = gap_decomposition_residual(b.series.at(b.mg.s_star))
        worst_rel = max(worst_rel, residual / (1.0 + b.mg.delta_min))
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-6 and elapsed < 30.0
    record_criterion(
        4, ok,
        f"min-gap level decomposition, worst residual {worst_rel:.2e} <= 1e-06 "
        f"({elapsed:.1f}s)",
    )
    assert worst_rel <= 1e-6
    assert elapsed < 30.0


def test_criterion_5_definition_behavior(bundles):
    start = time.perf_counter()
    plain = bundles("toy1", 0.0)
    shifted = bundles("toy1", 0.5)

    plain_point = plain.series.at(plain.mg.s_star)
    shifted_point = shifted.series.at(shifted.mg.s_star)
    choi_plain = measure_choi(plain_point)
    relaxed_plain = measure_solution_swap(plain_point, window=choi_plain.window)
    choi_shifted = measure_choi(shifted_point)
    relaxed_shifted = measure_solution_swap(shifted_point)

    structure_ok = (
        choi_plain.satisfied
        and not choi_shifted.satisfied
        and relaxed_shifted.satisfied
        and relaxed_shifted.gamma <= 0.1
        and relaxed_shifted.epsilon <= 0.1
        and relaxed_plain.satisfied
        and relaxed_plain.gamma <= choi_plain.gamma
        and relaxed_plain.epsilon <= choi_plain.epsilon + 1e-9
    )
    # independent route: epsilon from a Jacobi decomposition at s*, gamma and
    # window from a brute-force search over every symmetric grid window
    a_star, b_star = level_weights(
        plain.pair.h0, plain.pair.h1_diag, plain.mg.s_star, plain.partition.members
    )
    oracle_epsilon = four_quantity_epsilon(a_star, b_star)
    oracle_gamma, oracle_window = choi_window_minimum(
        plain.series.grid, plain.series.in_ground, plain.series.in_excited,
        plain.mg.s_star, a_star, b_star,
    )
    # weight outside the two lowest final levels at s*: clause 1 keeps gamma
    # at least this large for every window
    leakage_floor = 1.0 - min(a_star[0] + a_star[1], b_star[0] + b_star[1])
    oracle_ok = (
        abs(choi_plain.epsilon - oracle_epsilon) <= 1e-9
        and abs(choi_plain.gamma - oracle_gamma) <= 1e-9
        and np.allclose(choi_plain.window, oracle_window, rtol=0.0, atol=1e-9)
        and choi_plain.gamma >= leakage_floor - 1e-9
    )
    elapsed = time.perf_counter() - start
    ok = structure_ok and oracle_ok and elapsed < 30.0
    record_criterion(
        5, ok,
        "definition behavior: structure reproduced; relaxed parameters on the shifted "
        f"crossing ({relaxed_shifted.gamma:.3f}, {relaxed_shifted.epsilon:.3f}) <= 0.1; "
        f"four-quantity parameters on the plain crossing ({choi_plain.gamma:.3f}, "
        f"{choi_plain.epsilon:.3f}) vs oracle ({oracle_gamma:.3f}, {oracle_epsilon:.3f}), "
        f"leakage floor {leakage_floor:.3f} ({elapsed:.1f}s)",
    )
    assert choi_plain.satisfied
    assert not choi_shifted.satisfied
    assert relaxed_shifted.satisfied
    assert relaxed_shifted.gamma <= 0.1 and relaxed_shifted.epsilon <= 0.1
    assert relaxed_plain.satisfied
    assert relaxed_plain.gamma <= choi_plain.gamma
    assert relaxed_plain.epsilon <= choi_plain.epsilon + 1e-9
    assert elapsed < 30.0
    assert abs(choi_plain.epsilon - oracle_epsilon) <= 1e-9, (
        f"four-quantity epsilon {choi_plain.epsilon:.6f} vs Jacobi oracle "
        f"{oracle_epsilon:.6f}"
    )
    assert abs(choi_plain.gamma - oracle_gamma) <= 1e-9, (
        f"four-quantity gamma {choi_plain.gamma:.6f} on window {choi_plain.window} vs "
        f"brute-force minimum {oracle_gamma:.6f} on window {oracle_window}"
    )
    assert np.allclose(choi_plain.window, oracle_window, rtol=0.0, atol=1e-9), (
        choi_plain.window, oracle_window,
    )
    assert choi_plain.gamma >= leakage_floor - 1e-9, (
        f"four-quantity gamma {choi_plain.gamma:.6f} below the leakage floor "
        f"{leakage_floor:.6f} that clause 1 imposes at s*"
    )


def test_criterion_6_epsilon_bound_margins(bundles):
    start = time.perf_counter()
    failures = []

    b = bundles("toy1", 0.0)
    report, _, _ = build_report(b.pair)
    if not (report.choi.satisfied and report.epsilon_bound_margin >= 0):
        failures.append(("toy1", 0.0, report.epsilon_bound_margin))

    for seed, n, k, p, alpha in CHOI_PASSING_INSTANCES:
        inst = random_instance(n, k, p, 0.5, 1.5, seed=seed, alpha=alpha)
        pair = clique_pair(inst.graph)
        report, _, _ = build_report(pair, grid_points=501)
        if report.choi is None or not report.choi.satisfied:
            failures.append((seed, "not satisfied"))
        elif report.epsilon_bound_margin is None or report.epsilon_bound_margin < 0:
            failures.append((seed, report.epsilon_bound_margin))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record_criterion(
        6, ok,
        f"epsilon bound margin nonnegative on 11 satisfied instances ({elapsed:.1f}s)",
    )
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_7_rotation_and_solution_derivatives(bundles):
    start = time.perf_counter()
    # each ladder runs into the tiny-gap regime (Delta_min down to 1e-12 on
    # toy1 and 2e-9 on toy2)
    ladders = {"toy1": (0.6, 0.63, 0.66, 0.666, 0.6666), "toy2": (0.6, 0.63, 0.66)}
    rows = []
    # independent route: beta and the higher-level part of the first-order
    # vector derivatives, from a Jacobi decomposition at s*; the rotation
    # residuals measure exactly that part
    for name, alphas in ladders.items():
        for alpha in alphas:
            b = bundles(name, alpha)
            point = b.series.at(b.mg.s_star)
            rows.append(SimpleNamespace(
                name=name, alpha=alpha, delta=b.mg.delta_min,
                rot=rotation_residuals(point), sd=solution_derivative_residuals(point),
                oracle=first_order_rotation(
                    b.pair.h0, b.pair.h1_diag, b.mg.s_star, b.partition.unique_ground_index
                ),
                # beta = coupling / Delta carries the relative error of
                # Delta, which float64 holds to about d eps ||H|| (LAPACK's
                # bound; the resolution floor takes d^2)
                beta_tol=1e-8 + resolution_floor(b.pair, point.s) / (b.pair.dim * point.delta),
            ))

    signs_ok = all(r.sd.g0_prime > 0 and r.sd.g1_prime < 0 for r in rows)
    trend_ok = True
    for name in ladders:
        deltas = [r.delta for r in rows if r.name == name]
        slopes = [abs(r.sd.g0_prime) for r in rows if r.name == name]
        trend_ok &= all(d1 > d2 for d1, d2 in zip(deltas, deltas[1:])) and all(
            s1 < s2 for s1, s2 in zip(slopes, slopes[1:])
        )
    solution_ok = all(r.sd.sum_residual <= 1e-2 and r.sd.diff_residual <= 1e-2 for r in rows)

    def rel(x, ref):
        return abs(x - ref) / abs(ref)

    beta_ok = all(rel(r.rot.beta, r.oracle[0]) <= r.beta_tol for r in rows)
    rotation_ok = all(
        rel(r.rot.residual_ground, r.oracle[1]) <= 1e-3
        and rel(r.rot.residual_excited, r.oracle[2]) <= 1e-3
        for r in rows
    )
    rotation_lines = "; ".join(
        f"{r.name}@{r.alpha}: ({r.rot.residual_ground:.3e}, {r.rot.residual_excited:.3e}) vs "
        f"higher-level part ({r.oracle[1]:.3e}, {r.oracle[2]:.3e})"
        for r in rows
    )

    elapsed = time.perf_counter() - start
    ok = signs_ok and trend_ok and solution_ok and beta_ok and rotation_ok and elapsed < 60.0
    record_criterion(
        7, ok,
        "rotation/solution derivatives: signs and 1/gap trend hold, solution residuals "
        "<= 1e-02, beta within 1e-08 (plus the float64 error of Delta) and rotation "
        f"residuals within 1e-03 of the first-order oracle, {rotation_lines} ({elapsed:.1f}s)",
    )
    assert signs_ok
    assert trend_ok, [(r.name, r.alpha, r.delta, r.sd.g0_prime) for r in rows]
    assert solution_ok, [(r.name, r.alpha, r.sd.sum_residual, r.sd.diff_residual) for r in rows]
    assert elapsed < 60.0
    assert beta_ok, [(r.name, r.alpha, r.rot.beta, r.oracle[0], r.beta_tol) for r in rows]
    assert rotation_ok, "rotation residuals vs first-order oracle: " + rotation_lines


def test_criterion_8_multi_level_dominance(bundles):
    start = time.perf_counter()
    b = bundles("toy2", 0.2)
    grid = b.series.grid
    intervals = []
    for level in (2, 1, 0):
        dominant = grid[b.series.solution[:, level] > 0.5]
        intervals.append((float(dominant[0]), float(dominant[-1])) if len(dominant) else None)
    present = all(iv is not None for iv in intervals)
    ordered = present and intervals[0][1] < intervals[1][0] < intervals[1][1] < intervals[2][0]
    elapsed = time.perf_counter() - start
    ok = present and ordered and elapsed < 10.0
    record_criterion(
        8, ok,
        f"solution weight dominance passes through levels 2 -> 1 -> 0 at {intervals} "
        f"({elapsed:.1f}s)",
    )
    assert present
    assert ordered, intervals
    assert elapsed < 10.0


def test_criterion_9_deterministic_outputs(tmp_path):
    start = time.perf_counter()
    runner = CliRunner()
    dirs = []
    for tag in ("one", "two"):
        workdir = tmp_path / tag
        workdir.mkdir()
        with runner.isolated_filesystem(temp_dir=workdir):
            result = runner.invoke(
                cli_main,
                ["scan", "--fixture", "toy1", "--alpha", "0,0.5", "--grid", "201",
                 "--out", "run"],
            )
            assert result.exit_code == 0, result.output
            dirs.append(Path.cwd() / "run")

    differing = []
    for sub in sorted(p.relative_to(dirs[0]) for p in dirs[0].rglob("*") if p.is_file()):
        if not filecmp.cmp(dirs[0] / sub, dirs[1] / sub, shallow=False):
            differing.append(str(sub))
    elapsed = time.perf_counter() - start
    ok = not differing and elapsed < 60.0
    record_criterion(
        9, ok, f"repeated scans byte-identical across all emitted files ({elapsed:.1f}s)"
    )
    assert not differing, differing
    assert elapsed < 60.0

