"""Anti-crossing analysis on top of a spectral sweep.

Computes the overlap families (final levels inside the two lowest
instantaneous vectors, and the solution state across all instantaneous
levels), fits the two-branch hyperbola around the gap minimum, measures
the swap structure under both the four-quantity (Choi) parametrization
and the relaxed solution-based one, and evaluates the identities that tie
the minimum gap to those quantities.

Measured (gamma, epsilon) are the smallest parameters for which the swap
clauses hold on the window; they quantify anti-crossing strength and are
never thresholded here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.optimize

from .hamiltonian import HamiltonianPair
from .spectral import (
    DegeneracyError,
    MinGapResult,
    SpectralSweep,
    decompose_interpolated,
    degeneracy_tolerance,
    min_gap,
    sweep as spectral_sweep,
    _central_solves,
    _eigensolve,
    _gap_at,
    _gap_slopes,
    _hdot_apply,
    _neighbour_ratios,
    resolution_floor,
)


class StationarityError(ValueError):
    """The supplied point is not a stationary point of the gap."""


class StepSizeError(ValueError):
    """Finite-difference step too large for the anti-crossing width."""


@dataclass(frozen=True)
class FinalLevelPartition:
    """Basis states grouped into (possibly degenerate) final energy levels,
    ascending in energy."""

    energies: tuple[float, ...]
    members: tuple[tuple[int, ...], ...]
    tol: float

    @property
    def level_count(self) -> int:
        return len(self.energies)

    @property
    def unique_ground_index(self) -> int | None:
        """Basis index of the solution state, or None if the lowest final
        level is degenerate."""
        if len(self.members[0]) == 1:
            return self.members[0][0]
        return None


def partition_final_levels(pair: HamiltonianPair, tol: float | None = None) -> FinalLevelPartition:
    """Single-linkage clustering of the target energies: a new level starts
    wherever consecutive sorted energies are more than ``tol`` apart."""
    values = pair.h1_diag
    if tol is None:
        tol = degeneracy_tolerance(values)
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    order = np.argsort(values, kind="stable")
    groups: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] > tol:
            groups.append([])
        groups[-1].append(int(idx))
    return FinalLevelPartition(
        energies=tuple(float(np.mean(values[g])) for g in groups),
        members=tuple(tuple(sorted(g)) for g in groups),
        tol=float(tol),
    )


@dataclass(frozen=True)
class OverlapSeries:
    """Overlap families over the sweep grid.

    ``in_ground[t, k]`` is the weight of final level k inside the
    instantaneous ground vector (``in_excited`` likewise for the first
    excited vector); ``solution[t, k]`` is the weight of the solution state
    in the k-th instantaneous vector, for the m levels the sweep kept
    (``solution`` has the shape (T, m); a column inside a degenerate
    cluster that level m cuts holds an arbitrary mix of that cluster, and
    it is None when the final ground level is degenerate).  All are
    squared overlaps, so they are insensitive to the sweep's sign gauge.
    """

    grid: np.ndarray = field(repr=False)
    in_ground: np.ndarray = field(repr=False)
    in_excited: np.ndarray = field(repr=False)
    solution: np.ndarray | None = field(repr=False)
    partition: FinalLevelPartition
    sweep: SpectralSweep

    def at(self, s: float) -> AntiCrossingPoint:
        """H(s) decomposed once at s, with the local gauge fixed: the ground
        vector has positive entry sum (it is sign-definite for these
        mixers) and the excited vector points away from the solution state
        (with a degenerate final ground level, it couples to the ground
        vector with a nonnegative element of H1 - H0).  With this
        convention beta comes out nonnegative at a genuine anti-crossing."""
        pair = self.sweep.pair
        gs = self.partition.unique_ground_index
        w, v = decompose_interpolated(pair, s)
        # C order: BLAS sums a strided column in another order than a
        # contiguous one, so the layout fixes the last bits of beta and of
        # the rotation residuals.  The solve's workspace is freed by now, so
        # the copy raises neither the held memory nor the peak.
        v = v.copy()
        if float(np.sum(v[:, 0])) < 0:
            v[:, 0] = -v[:, 0]
        if v[gs, 1] > 0 if gs is not None else float(v[:, 0] @ _hdot_apply(pair, v[:, 1])) < 0:
            v[:, 1] = -v[:, 1]
        return AntiCrossingPoint(
            series=self, s=s, delta=float(w[1] - w[0]), v=v,
            in_ground=np.array([float(np.sum(v[m, 0] ** 2)) for m in self.partition.members]),
            in_excited=np.array([float(np.sum(v[m, 1] ** 2)) for m in self.partition.members]),
            solution=v[gs, :] ** 2 if gs is not None else None,
        )


def compute_overlaps(sweep: SpectralSweep, partition: FinalLevelPartition) -> OverlapSeries:
    """Evaluate the overlap families on the sweep grid.  The solution
    series is present exactly when the final ground state is unique."""
    gs = partition.unique_ground_index
    t_count = len(sweep.grid)
    levels = partition.level_count
    a = np.empty((t_count, levels))
    b = np.empty((t_count, levels))
    for l, members in enumerate(partition.members):
        sel = list(members)
        a[:, l] = np.sum(sweep.vectors[:, sel, 0] ** 2, axis=1)
        b[:, l] = np.sum(sweep.vectors[:, sel, 1] ** 2, axis=1)
    g = sweep.vectors[:, gs, :] ** 2 if gs is not None else None
    return OverlapSeries(
        grid=sweep.grid, in_ground=a, in_excited=b, solution=g,
        partition=partition, sweep=sweep,
    )


@dataclass(frozen=True)
class AntiCrossingPoint:
    """One full decomposition of H(s) at one point (s* in a report), read
    by every measurement there: the gap ``delta``, the gauged eigenvectors
    ``v`` (see ``OverlapSeries.at``) and the overlap families at s.
    ``in_ground`` and ``in_excited`` hold one weight per final level, like
    a row of the series; ``solution`` holds the solution state's weight in
    every one of the d levels at s, where the series keeps only the m levels
    of its sweep (it is None with a degenerate final ground level)."""

    series: OverlapSeries = field(repr=False)
    s: float
    delta: float
    v: np.ndarray = field(repr=False)
    in_ground: np.ndarray
    in_excited: np.ndarray
    solution: np.ndarray | None

    @property
    def pair(self) -> HamiltonianPair:
        return self.series.sweep.pair

    def differences(self, h: float | None = None):
        """Rotation rate beta = <v_0|H1-H0|v_1>/Delta at s, the step (``h``,
        or one selected from the anti-crossing width when it is None) and
        the two lowest eigenvectors at s + step and s - step, sign-aligned
        with s.  The auto-selected step is searched and solved once per
        point."""
        return self._auto_differences if h is None else _central_differences(self, h)

    @cached_property
    def _auto_differences(self):
        return _central_differences(self, None)


# ---------------------------------------------------------------------------
# hyperbola fit


@dataclass(frozen=True)
class WilkinsonFit:
    """Two-branch hyperbola fitted around the gap minimum:

        E_pm(s) = energy_center + slope_mean (s - s*)
                  +- 0.5 sqrt(gap_fit^2 + slope_difference^2 (s - s*)^2)

    ``valid`` requires convergence, a fitted gap within 5% of the measured
    minimum, a small rms residual, and an actual hyperbolic bend inside the
    window (straight non-crossing levels are rejected).
    """

    slope_difference: float
    slope_mean: float
    energy_center: float
    gap_fit: float
    rms_residual: float
    window: tuple[float, float]
    valid: bool


def _auto_fit_window(sweep: SpectralSweep, s_star: float, delta_min: float) -> tuple[float, float]:
    """Largest symmetric window on the ladder of half-widths
    cap * 0.999 / 1.3^n, n = 0 .. 199 (cap: the distance from s* to the
    nearer end of [0, 1]), on which the gap stays at most 3x its minimum;
    rung 200 when none does.

    The search starts at the rung the hyperbola
    Delta^2 = Delta_min^2 + a^2 (s - s*)^2 predicts, the first one within
    the half-width sqrt(8) Delta_min / a where it reaches 3 Delta_min, with
    the slope difference a read from the sweep's gaps at the grid points
    either side of s*.  From there it walks up while the next wider rung
    passes, or down to the first rung that passes; where the gap grows
    away from s* this is the first passing rung from the top.  ``delta_min``
    is above ``resolution_floor`` and every gap probed is at least that
    minimum, so the probes may take the Lanczos route of ``_eigensolve``."""
    pair = sweep.pair
    cap = min(s_star, 1.0 - s_star)
    if cap <= 0:
        raise ValueError("gap minimum sits at the boundary; no fit window")
    rungs = [cap * 0.999]
    for _ in range(200):
        rungs.append(rungs[-1] / 1.3)
    target = 3.0 * delta_min

    def passes(n: int) -> bool:
        if n == len(rungs) - 1:
            return True
        half = rungs[n]
        edges = (_gap_at(pair, s_star - half, lanczos=True),
                 _gap_at(pair, s_star + half, lanczos=True))
        return max(edges) <= target

    grid = sweep.grid
    around = np.clip(
        [np.searchsorted(grid, s_star, side="left") - 1, np.searchsorted(grid, s_star, side="right")],
        0, len(grid) - 1,
    )
    levels = np.sort(sweep.energies[around], axis=1)
    edge = levels[:, 1] - levels[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.sqrt(np.maximum(edge**2 - delta_min**2, 0.0)) / np.abs(grid[around] - s_star)
        predicted = np.sqrt(8.0) * delta_min / np.max(slope)
    # a NaN prediction (no slope read) starts at the widest rung
    n = min(int(np.count_nonzero(np.array(rungs) > predicted)), len(rungs) - 1)
    if passes(n):
        while n > 0 and passes(n - 1):
            n -= 1
    else:
        n += 1
        while not passes(n):
            n += 1
    return (s_star - rungs[n], s_star + rungs[n])


def wilkinson_fit(
    sweep: SpectralSweep,
    s_star: float,
    window: tuple[float, float] | None = None,
    samples: int = 25,
    delta_min: float | None = None,
) -> WilkinsonFit:
    """Least-squares fit of the two lowest levels to the hyperbola branches
    around the gap minimum ``s_star``.  The window defaults to the region
    where the gap is at most three times its minimum; it is resampled at
    ``samples`` points so sharp anti-crossings are resolved below the sweep
    grid spacing.  ``delta_min`` is the gap at s*, read there when not
    given.  Every gap the fit reads is at least that minimum, so above
    ``resolution_floor`` the window probes and the samples may take the
    Lanczos route of ``_eigensolve``; at or below it the default window
    is not sought (the fit is skipped with the unresolved-gap cause), and a
    given window is sampled densely."""
    if samples < 7:
        raise ValueError(f"need at least 7 sample points, got {samples}")
    pair = sweep.pair
    if delta_min is None:
        delta_min = _gap_at(pair, s_star)
    resolved = bool(delta_min > resolution_floor(pair, s_star))
    if window is None:
        if not resolved:
            raise ValueError(_unresolved(s_star, delta_min))
        window = _auto_fit_window(sweep, s_star, delta_min)
    lo, hi = window
    if not (0.0 <= lo < s_star < hi <= 1.0):
        raise ValueError(f"window {window} must bracket s*={s_star} inside [0, 1]")
    ss = np.linspace(lo, hi, samples)
    e0, e1 = np.array([_eigensolve(pair, s, levels=2, vectors=False, lanczos=resolved) for s in ss]).T

    mid_lo = (e0[0] + e1[0]) / 2.0
    mid_hi = (e0[-1] + e1[-1]) / 2.0
    slope0 = (mid_hi - mid_lo) / (ss[-1] - ss[0])
    edge_gap = max(e1[-1] - e0[-1], e1[0] - e0[0])
    half_width = max(hi - s_star, s_star - lo)
    a0 = np.sqrt(max(edge_gap**2 - delta_min**2, 0.0)) / half_width
    center0 = (np.interp(s_star, ss, e0) + np.interp(s_star, ss, e1)) / 2.0

    def residuals(x):
        a, b, center, gap = x
        half = 0.5 * np.sqrt(gap * gap + a * a * (ss - s_star) ** 2)
        mid = center + b * (ss - s_star)
        return np.concatenate([mid - half - e0, mid + half - e1])

    out = scipy.optimize.least_squares(
        residuals,
        x0=[a0, slope0, center0, delta_min],
        bounds=([0.0, -np.inf, -np.inf, 0.0], [np.inf, np.inf, np.inf, np.inf]),
    )
    a_fit, b_fit, center_fit, gap_fit = (float(x) for x in out.x)
    rms = float(np.sqrt(np.mean(out.fun**2)))
    scale = max(delta_min, 1e-300)
    # bend test: the asymptote term must actually matter inside the window,
    # which rejects straight non-crossing levels (they fit with A ~ 0)
    valid = bool(
        out.success
        and abs(gap_fit - delta_min) <= 0.05 * scale + 1e-12
        and rms <= 0.05 * scale + 1e-12
        and a_fit * half_width >= 0.2 * delta_min
    )
    return WilkinsonFit(
        slope_difference=a_fit,
        slope_mean=b_fit,
        energy_center=center_fit,
        gap_fit=gap_fit,
        rms_residual=rms,
        window=(float(lo), float(hi)),
        valid=valid,
    )


# ---------------------------------------------------------------------------
# swap measurements


@dataclass(frozen=True)
class SwapMeasurement:
    """Smallest (gamma, epsilon) for which the swap clauses hold on the
    window; ``satisfied`` additionally requires the right monotone
    directions and parameters small enough to be meaningful (< 1/2)."""

    satisfied: bool
    gamma: float
    epsilon: float
    window: tuple[float, float]
    direction_ok: bool


def _window_indices(grid: np.ndarray, lo: float, hi: float) -> np.ndarray:
    idx = np.nonzero((grid >= lo - 1e-15) & (grid <= hi + 1e-15))[0]
    if len(idx) < 2:
        raise ValueError(f"window ({lo}, {hi}) holds fewer than two grid samples")
    return idx


def _swap_epsilon(pairs, extra_epsilon: float) -> float:
    """The largest of ``extra_epsilon`` and the distances from 1/2 of the
    weights at the point in ``pairs`` (see ``_swap_clauses``)."""
    return float(max(extra_epsilon, *(abs(at - 0.5) for pair in pairs for _, at in pair)))


def _swap_clauses(
    grid: np.ndarray, pairs, lo: float, hi: float, extra_epsilon: float
) -> SwapMeasurement:
    """The swap clauses on the window (lo, hi) over ``pairs`` of (rising,
    falling) weights, each given as (its series on ``grid``, its value at
    the point).  Clause 1 bounds one minus each pair's sum, on the window
    and at the point; clause 3 bounds the weights at the window ends.
    Epsilon is ``_swap_epsilon``."""
    idx = _window_indices(grid, lo, hi)
    sums, ends, direction_ok = [], [], True
    for (rising, r_at), (falling, f_at) in pairs:
        r, f = rising[idx], falling[idx]
        sums += [float(np.min(r + f)), r_at + f_at]
        ends += [r[0], 1.0 - r[-1], 1.0 - f[0], f[-1]]
        direction_ok = bool(direction_ok and r[-1] > r[0] and f[0] > f[-1])
    gamma = float(max(1.0 - min(sums), *ends, 0.0))
    epsilon = _swap_epsilon(pairs, extra_epsilon)
    return SwapMeasurement(
        satisfied=bool(direction_ok and gamma < 0.5 and epsilon < 0.5),
        gamma=gamma,
        epsilon=epsilon,
        window=(float(lo), float(hi)),
        direction_ok=direction_ok,
    )


def _measure_swap(
    point: AntiCrossingPoint, pairs, window=None, extra_epsilon: float = 0.0
) -> SwapMeasurement:
    """``_swap_clauses`` on ``window``, or with ``window=None`` on the first
    smallest-gamma symmetric window around the point whose half-width is a
    whole number of grid spacings (the definition only asks that some
    window works).  The windows are nested, so gamma on all of them comes
    from running minima outward from the narrowest.  With no window of two
    grid points: unsatisfied, gamma 1 and the empty window (s, s)."""
    s_star, grid = point.s, point.series.grid
    if window is not None:
        return _swap_clauses(grid, pairs, window[0], window[1], extra_epsilon)
    spacing = float(np.median(np.diff(grid)))
    reach = min(s_star - grid[0], grid[-1] - s_star) + 1e-15
    halves = np.arange(1, int(reach / spacing) + 2) * spacing
    halves = halves[halves <= reach]
    first = np.searchsorted(grid, s_star - halves - 1e-15, side="left")
    last = np.searchsorted(grid, s_star + halves + 1e-15, side="right") - 1
    held = last - first >= 1
    if not held.any():
        return SwapMeasurement(
            satisfied=False, gamma=1.0, epsilon=_swap_epsilon(pairs, extra_epsilon),
            window=(float(s_star), float(s_star)), direction_ok=False,
        )
    halves, first, last = halves[held], first[held], last[held]
    c = first[0]
    sums, ends = [], []
    for (rising, r_at), (falling, f_at) in pairs:
        total = rising + falling
        inward = np.minimum.accumulate(total[c::-1])[::-1]  # min over [i, c]
        outward = np.minimum.accumulate(total[c:])  # min over [c, c + j]
        sums += [np.minimum(inward[first], outward[last - c]), np.full(len(first), r_at + f_at)]
        ends += [rising[first], 1.0 - rising[last], 1.0 - falling[first], falling[last]]
    gamma = np.maximum(np.maximum(1.0 - np.min(sums, axis=0), np.max(ends, axis=0)), 0.0)
    half = halves[np.argmin(gamma)]
    return _swap_clauses(grid, pairs, s_star - half, s_star + half, extra_epsilon)


def measure_choi(
    point: AntiCrossingPoint, window: tuple[float, float] | None = None
) -> SwapMeasurement:
    """Swap measurement at ``point`` on the four quantities (final ground
    and first excited level inside each of the two lowest instantaneous
    vectors).  ``window=None`` optimizes over symmetric windows around the
    point."""
    if point.series.partition.level_count < 2:
        raise ValueError("needs at least two final energy levels")
    series = point.series
    a0, a1 = ((series.in_ground[:, k], float(point.in_ground[k])) for k in (0, 1))
    b0, b1 = ((series.in_excited[:, k], float(point.in_excited[k])) for k in (0, 1))
    return _measure_swap(point, [(a0, a1), (b1, b0)], window)


def measure_solution_swap(
    point: AntiCrossingPoint, window: tuple[float, float] | None = None
) -> SwapMeasurement:
    """Swap measurement at ``point`` on the solution state's weights in the
    two lowest instantaneous levels (the relaxed parametrization; subsumes
    the four-quantity one whenever that is satisfied)."""
    if point.solution is None:
        raise DegeneracyError("solution series unavailable (degenerate final ground state)")
    g0, g1 = ((point.series.solution[:, k], float(point.solution[k])) for k in (0, 1))
    return _measure_swap(point, [(g0, g1)], window, extra_epsilon=abs(g0[1] - g1[1]))


# ---------------------------------------------------------------------------
# finite differences at the gap minimum


def _select_step(pair: HamiltonianPair, s_star: float, delta_min: float, h: float | None) -> float:
    """Central-difference step around the gap minimum ``s_star``: ``h``
    when given and inside the anti-crossing width, otherwise one chosen
    from that width.  ``delta_min`` is resolved (above
    ``resolution_floor``), and every gap probed here is at least that
    minimum, so the probes may take the Lanczos route of ``_eigensolve``."""

    def widest(x: float) -> float:
        return max(_gap_at(pair, s_star - x, lanczos=True), _gap_at(pair, s_star + x, lanczos=True))

    cap = 0.9 * min(s_star, 1.0 - s_star)
    if cap <= 0:
        raise StepSizeError("gap minimum sits at the boundary")
    if h is not None:
        if not 0 < h <= 1e-4:
            raise ValueError(f"step must lie in (0, 1e-4], got {h}")
        if h >= cap:
            raise StepSizeError(f"step {h} leaves [0, 1] around s*={s_star}")
        edge = widest(h)
        if edge > 2.0 * delta_min:
            raise StepSizeError(
                f"gap grows to {edge:.3e} at s*+-{h:.1e} (over twice the minimum); shrink h"
            )
        return h
    probe = min(1e-3, cap)
    edge = widest(probe)
    slope_diff = np.sqrt(max(edge**2 - delta_min**2, 0.0)) / probe
    if slope_diff > 0:
        h = min(1e-4, cap / 2.0, 0.02 * delta_min / slope_diff)
    else:
        h = min(1e-4, cap / 2.0)
    while h > 1e-12:
        if widest(h) <= 2.0 * delta_min:
            return h
        h /= 2.0
    raise StepSizeError("could not find a step inside the anti-crossing width")


def _unresolved(s_star: float, delta: float) -> str:
    return f"the gap at s*={s_star} is not resolved in float64 (it reads {delta:.3e})"


def _central_differences(point: AntiCrossingPoint, h: float | None):
    """``AntiCrossingPoint.differences``, computed afresh."""
    pair = point.pair
    if point.delta <= resolution_floor(pair, point.s):
        raise ValueError(_unresolved(point.s, point.delta))
    coupling = float(point.v[:, 0] @ _hdot_apply(pair, point.v[:, 1]))
    if abs(coupling) < 1e-300:
        raise ValueError("no anti-crossing coupling between the two lowest levels")
    h = _select_step(pair, point.s, point.delta, h)
    (_, vp), (_, vm) = _central_solves(pair, point.s, h, point.v[:, :2], lanczos=True)
    return coupling / point.delta, h, vp, vm


# ---------------------------------------------------------------------------
# identities at the gap minimum


def gap_decomposition_residual(point: AntiCrossingPoint) -> float:
    """Residual of the stationary-point identity

        Delta(s*) = sum_k E_k(1) [b_k(s*) - a_k(s*)]

    at ``point``, where a_k/b_k are the final-level weights inside the two
    lowest instantaneous vectors.  Rejects a point where the gap derivative
    (computed via Hellmann-Feynman) is too large for the identity's error
    to stay within its contract."""
    pair, s, delta = point.pair, point.s, point.delta
    slope = float(_gap_slopes(pair, point.v[None, :, :2])[0])
    threshold = 1e-6 * (1.0 + delta) / max(1.0 - s, 1e-12)
    if abs(slope) > threshold:
        unresolved = delta <= resolution_floor(pair, s)
        cause = _unresolved(s, delta) if unresolved else "refine the gap minimum first"
        raise StationarityError(
            f"|dDelta/ds| = {abs(slope):.3e} at s*={s} exceeds {threshold:.3e}; {cause}"
        )
    total = 0.0
    for energy, a_k, b_k in zip(point.series.partition.energies, point.in_ground, point.in_excited):
        total += energy * (float(b_k) - float(a_k))
    return abs(delta - total)


@dataclass(frozen=True)
class GapBounds:
    """Squared-gap bounds through one basis state; violations are reported,
    not asserted, because they assume unstated sign conditions."""

    lower: float
    upper: float
    lower_holds: bool
    upper_holds: bool


def min_gap_bounds(point: AntiCrossingPoint, i: int) -> GapBounds | None:
    """Triangle-inequality bounds on Delta^2 at ``point`` built from the
    squared neighbor-to-component ratios of basis state i (None where a
    component is guarded).  The ratios do not depend on the point's sign
    gauge."""
    r0, r1 = _neighbour_ratios(point.pair, point.v[:, :2])[i]
    if np.isnan(r0) or np.isnan(r1):
        return None
    f2 = (1.0 - point.s) ** 2
    q0, q1 = float(r0) ** 2, float(r1) ** 2
    upper = f2 * (q0 + q1)
    lower = f2 * (q0 - q1)
    delta_sq = point.delta**2
    slack = 1e-12 * (1.0 + abs(upper))
    return GapBounds(
        lower=lower,
        upper=upper,
        lower_holds=bool(lower <= delta_sq + slack),
        upper_holds=bool(delta_sq <= upper + slack),
    )


def epsilon_bound_margin(report: "AntiCrossingReport", partition: FinalLevelPartition) -> float | None:
    """Margin of the bound Delta_min <= K * epsilon with
    K = 2 (E_0 + E_1 + 2M) on energies shifted so the lowest is zero
    (M is the shifted maximum).  Only applies when the four-quantity
    measurement is satisfied; returns None otherwise."""
    if report.choi is None or not report.choi.satisfied:
        return None
    if partition.level_count < 2:
        return None
    energies = np.array(partition.energies) - partition.energies[0]
    m = float(np.max(energies))
    k_const = 2.0 * (float(energies[0]) + float(energies[1]) + 2.0 * m)
    return k_const * report.choi.epsilon - report.delta_min


# ---------------------------------------------------------------------------
# eigenvector rotation at the gap minimum


@dataclass(frozen=True)
class RotationResult:
    """How closely the two lowest eigenvectors rotate purely into each
    other at the gap minimum: finite-difference derivatives are compared
    against -beta v_1 and +beta v_0, relative to |beta|.

    ``coupling_above_max`` is the largest schedule-derivative matrix
    element between the two lowest vectors and any higher level; the
    rotation picture treats it as negligible."""

    residual_ground: float
    residual_excited: float
    coupling_above_max: float
    beta: float
    step: float


@dataclass(frozen=True)
class SolutionDerivativeResult:
    """Finite-difference check of the solution-weight derivatives at s*:
    their sum vanishes and their difference equals 4 g01 beta with
    g01 = (g_0 + g_1)/2.  Residuals are relative to |beta|."""

    sum_residual: float
    diff_residual: float
    g0_prime: float
    g1_prime: float
    beta: float
    step: float


def rotation_residuals(point: AntiCrossingPoint, h: float | None = None) -> RotationResult:
    """Check d|v_0>/ds = -beta |v_1> and d|v_1>/ds = +beta |v_0> at the gap
    minimum ``point`` with gauge-aligned central differences (step
    auto-selected from the anti-crossing width when ``h`` is None)."""
    beta, h, vp, vm = point.differences(h)
    v = point.v
    d0 = (vp[:, 0] - vm[:, 0]) / (2.0 * h)
    d1 = (vp[:, 1] - vm[:, 1]) / (2.0 * h)
    res0 = float(np.linalg.norm(d0 + beta * v[:, 1])) / abs(beta)
    res1 = float(np.linalg.norm(d1 - beta * v[:, 0])) / abs(beta)
    upper = np.abs(v[:, :2].T @ _hdot_apply(point.pair, v[:, 2:]))
    coupling_above = float(np.max(upper)) if upper.size else 0.0
    return RotationResult(
        residual_ground=res0,
        residual_excited=res1,
        coupling_above_max=coupling_above,
        beta=beta,
        step=h,
    )


def solution_derivative_residuals(
    point: AntiCrossingPoint, h: float | None = None
) -> SolutionDerivativeResult:
    """Central-difference derivatives of the solution weights g_0, g_1 at
    the gap minimum ``point``, checked against the rotation rate beta (the
    auto-selected step and its solves are shared with
    ``rotation_residuals``)."""
    gs = point.series.partition.unique_ground_index
    if gs is None:
        raise DegeneracyError("needs a unique final ground state")
    beta, h, vp, vm = point.differences(h)
    g0_prime = float(vp[gs, 0] ** 2 - vm[gs, 0] ** 2) / (2.0 * h)
    g1_prime = float(vp[gs, 1] ** 2 - vm[gs, 1] ** 2) / (2.0 * h)
    g01 = float(point.v[gs, 0] ** 2 + point.v[gs, 1] ** 2) / 2.0
    return SolutionDerivativeResult(
        sum_residual=abs(g0_prime + g1_prime) / abs(beta),
        diff_residual=abs(g0_prime - g1_prime - 4.0 * g01 * beta) / abs(beta),
        g0_prime=g0_prime,
        g1_prime=g1_prime,
        beta=beta,
        step=h,
    )


# ---------------------------------------------------------------------------
# full report


@dataclass(frozen=True)
class AntiCrossingReport:
    """Everything measured around the gap minimum of one interpolation."""

    s_star: float
    delta_min: float
    beta: float | None
    ground_degenerate: bool
    degenerate_at_end: bool
    all_degenerate: bool
    wilkinson: WilkinsonFit | None
    choi: SwapMeasurement | None
    solution_swap: SwapMeasurement | None
    gap_decomposition_residual: float | None
    epsilon_bound_margin: float | None
    rotation: RotationResult | None
    solution_derivative: SolutionDerivativeResult | None
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        def plain(obj):
            if isinstance(obj, dict):
                return {k: plain(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [plain(x) for x in obj]
            if isinstance(obj, np.generic):
                return obj.item()
            return obj

        return plain(asdict(self))


def build_report(
    pair: HamiltonianPair,
    grid_points: int = 1001,
    refine_tol: float = 1e-10,
    precomputed_sweep: SpectralSweep | None = None,
    levels: int = 2,
) -> tuple[AntiCrossingReport, SpectralSweep, AntiCrossingPoint | None]:
    """Run the full analysis pipeline for one interpolation: a sweep of the
    lowest ``levels`` eigenpairs (at least two) on ``grid_points`` evenly
    spaced s (unless ``precomputed_sweep`` is given), the gap minimum
    bracketed on that sweep's grid and refined to ``refine_tol``, and every
    measurement at s* read from one decomposition there.

    The report itself reads only the two lowest levels, so the default
    sweep keeps two columns; ask for more to export more levels (the
    returned sweep then has m = min(max(levels, 2), d) columns, with an
    arbitrary gauge inside a degenerate cluster that level m cuts).

    Returns the report, the sweep it was computed from and the point at
    s* that every measurement read (``point.series`` is the overlap series
    on the sweep).  The point is None when no anti-crossing analysis
    applies.
    """
    grid = np.linspace(0.0, 1.0, grid_points)
    swp = precomputed_sweep if precomputed_sweep is not None else spectral_sweep(pair, grid, levels=levels)
    partition = partition_final_levels(pair)
    mg: MinGapResult = min_gap(pair, tol=refine_tol, sweep=swp)

    warnings: list[str] = []
    ground_degenerate = partition.unique_ground_index is None
    if ground_degenerate:
        warnings.append(
            f"final ground level is degenerate ({len(partition.members[0])} states); "
            "solution-based quantities skipped"
        )
    if mg.all_degenerate:
        warnings.append("gap vanishes on the whole interval; no anti-crossing analysis")
    if mg.degenerate_at_end:
        warnings.append("gap minimum sits at s=1 (degenerate final ground state)")

    interior = not (mg.all_degenerate or mg.degenerate_at_end) and 0.0 < mg.s_star < 1.0
    if not interior and not mg.all_degenerate and not mg.degenerate_at_end:
        warnings.append(f"gap minimum at the boundary s={mg.s_star}; no anti-crossing analysis")

    report = AntiCrossingReport(
        s_star=mg.s_star, delta_min=mg.delta_min, beta=None,
        ground_degenerate=ground_degenerate,
        degenerate_at_end=mg.degenerate_at_end, all_degenerate=mg.all_degenerate,
        wilkinson=None, choi=None, solution_swap=None,
        gap_decomposition_residual=None, epsilon_bound_margin=None,
        rotation=None, solution_derivative=None, warnings=tuple(warnings),
    )
    if not interior:
        return report, swp, None

    point = compute_overlaps(swp, partition).at(mg.s_star)

    try:
        wilk = wilkinson_fit(swp, mg.s_star, delta_min=mg.delta_min)
    except ValueError as err:
        wilk = None
        warnings.append(f"hyperbola fit skipped: {err}")

    choi = measure_choi(point)
    solution_swap = None if ground_degenerate else measure_solution_swap(point)

    try:
        decomp_residual = gap_decomposition_residual(point)
    except StationarityError as err:
        decomp_residual = None
        warnings.append(f"gap decomposition skipped: {err}")

    rotation = solution_derivative = None
    try:
        rotation = rotation_residuals(point)
    except ValueError as err:
        warnings.append(f"rotation check skipped: {err}")
        if not ground_degenerate:
            warnings.append(f"solution derivative check skipped: {err}")
    else:
        if not ground_degenerate:
            solution_derivative = solution_derivative_residuals(point)

    report = replace(
        report,
        beta=rotation.beta if rotation is not None else None,
        wilkinson=wilk,
        choi=choi,
        solution_swap=solution_swap,
        gap_decomposition_residual=decomp_residual,
        rotation=rotation,
        solution_derivative=solution_derivative,
        warnings=tuple(warnings),
    )
    report = replace(report, epsilon_bound_margin=epsilon_bound_margin(report, partition))
    return report, swp, point
