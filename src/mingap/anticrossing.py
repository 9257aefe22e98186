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

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
import scipy.optimize

# partition_final_levels is bound here too: the stage spans of
# bench/tracing.py look it up in this module
from .hamiltonian import FinalLevelPartition, HamiltonianPair, partition_final_levels
from .spectral import (
    DegeneracyError,
    MinGapResult,
    SpectralSweep,
    decompose_interpolated,
    min_gap,
    sweep as spectral_sweep,
    _couplings,
    _eigensolve,
    _first_order,
    _hdot_apply,
    _neighbour_ratios,
    _require_index,
    resolution_floor,
)


# Final levels of one member per gather of ``_overlap_families``.
_GATHER_LEVELS = 64


class StationarityError(ValueError):
    """The supplied point is not a stationary point of the gap."""


@dataclass(frozen=True)
class OverlapSeries:
    """Overlap families over the sweep grid, a view of the sweep: each
    family is computed from the sweep's vectors on its first read and then
    kept, so a series nobody reads costs nothing.

    ``in_ground[t, k]`` is the weight of final level k inside the
    instantaneous ground vector (``in_excited`` likewise for the first
    excited vector); ``solution[t, k]`` is the weight of the solution state
    in the k-th instantaneous vector, for the m levels the sweep kept
    (``solution`` has the shape (T, m); a column inside a degenerate
    cluster that level m cuts holds an arbitrary mix of that cluster, and
    it is None when the final ground level is degenerate).  All are
    squared overlaps, so they are insensitive to the sweep's sign gauge.
    """

    sweep: SpectralSweep

    @property
    def grid(self) -> np.ndarray:
        """The sweep's grid."""
        return self.sweep.grid

    @property
    def partition(self) -> FinalLevelPartition:
        """The final levels of the sweep's pair."""
        return self.sweep.pair.final_levels

    @cached_property
    def _families(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        return _overlap_families(self.sweep.vectors, self.partition)

    @property
    def in_ground(self) -> np.ndarray:
        return self._families[0]

    @property
    def in_excited(self) -> np.ndarray:
        return self._families[1]

    @property
    def solution(self) -> np.ndarray | None:
        return self._families[2]

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
        # the rotation residuals.  The H(s) that the solve overwrote in place
        # is freed by now and the copy takes its room: the solve held that
        # matrix and the vectors at once, as the copy does the vectors
        # twice, so it raises neither the held memory nor the peak.
        v = v.copy()
        if float(np.sum(v[:, 0])) < 0:
            v[:, 0] = -v[:, 0]
        if v[gs, 1] > 0 if gs is not None else float(v[:, 0] @ _hdot_apply(pair, v[:, 1])) < 0:
            v[:, 1] = -v[:, 1]
        families = _overlap_families(v, self.partition)
        return AntiCrossingPoint(self, s, float(w[1] - w[0]), w, v, *families)


def _overlap_families(vectors: np.ndarray, partition: FinalLevelPartition):
    """(in_ground, in_excited, solution) of the eigenvectors ``vectors`` at
    one point (d, m) or on a grid (T, d, m): the weight of each final level
    of ``partition`` in columns 0 and 1, and that of the solution state in
    every column (None when the final ground level is degenerate).  The
    levels of one member are gathered ``_GATHER_LEVELS`` at a time (the sum
    of one weight is that weight), so the gathered copy stays small beside
    the families; each larger level takes its own sum."""
    in_ground, in_excited = np.empty((2, *vectors.shape[:-2], partition.level_count))
    single = [l for l, members in enumerate(partition.members) if len(members) == 1]
    for b in range(0, len(single), _GATHER_LEVELS):
        levels = single[b : b + _GATHER_LEVELS]
        states = [partition.members[l][0] for l in levels]
        in_ground[..., levels] = vectors[..., states, 0] ** 2
        in_excited[..., levels] = vectors[..., states, 1] ** 2
    for l, members in enumerate(partition.members):
        if len(members) > 1:
            sel = list(members)
            in_ground[..., l] = np.sum(vectors[..., sel, 0] ** 2, axis=-1)
            in_excited[..., l] = np.sum(vectors[..., sel, 1] ** 2, axis=-1)
    gs = partition.unique_ground_index
    return in_ground, in_excited, vectors[..., gs, :] ** 2 if gs is not None else None


def compute_overlaps(sweep: SpectralSweep) -> OverlapSeries:
    """The overlap families on the sweep grid, over the final levels of its
    pair, as a view of ``sweep``: nothing is computed here, each family on
    its first read.  The solution series is present exactly when the final
    ground state is unique."""
    return OverlapSeries(sweep)


@dataclass(frozen=True)
class AntiCrossingPoint:
    """One full decomposition of H(s) at one point (s* in a report), read
    by every measurement there: the gap ``delta``, the eigenvalues ``w``,
    the gauged eigenvectors ``v`` (see ``OverlapSeries.at``) and the
    overlap families at s.
    ``in_ground`` and ``in_excited`` hold one weight per final level, like
    a row of the series; ``solution`` holds the solution state's weight in
    every one of the d levels at s, where the series keeps only the m levels
    of its sweep (it is None with a degenerate final ground level)."""

    series: OverlapSeries = field(repr=False)
    s: float
    delta: float
    w: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    in_ground: np.ndarray
    in_excited: np.ndarray
    solution: np.ndarray | None

    @property
    def pair(self) -> HamiltonianPair:
        return self.series.sweep.pair

    @cached_property
    def _lowest_couplings(self) -> np.ndarray:
        """The first-order kernel <v_n|H1-H0|v_j>, n = 0, 1, (2, d)."""
        return _couplings(self.pair, self.v, [0, 1])

    @property
    def coupling(self) -> float:
        """<v0|H1-H0|v1> in the point's gauge; the two-level slope
        difference is twice its magnitude."""
        return float(self._lowest_couplings[0, 1])

    @cached_property
    def unresolved(self) -> str | None:
        """The cause when Delta is at or below ``resolution_floor``, else None."""
        if self.delta <= resolution_floor(self.pair, self.s):
            return f"the gap at s*={self.s} is not resolved in float64 (it reads {self.delta:.3e})"
        return None

    @cached_property
    def first_order(self) -> tuple[float, np.ndarray, np.ndarray]:
        """First-order perturbation theory at the point, read off its full
        decomposition:

            dv_n/ds = -+beta v_(1-n) + sum_(j>=2) <v_j|H1-H0|v_n> / (E_n - E_j) v_j

        for n = 0, 1.  Returns beta = <v_0|H1-H0|v_1>/Delta, the couplings
        ``upper[n, j-2]`` = <v_n|H1-H0|v_j> (the point's kernel) and the
        coefficients ``parts[n, j-2]`` = upper[n, j-2] / (E_n - E_j) (of
        ``_first_order``), kept for ``rotation_residuals`` and
        ``solution_derivative_residuals``.  An ``unresolved`` gap, or a
        coupling at or below ``resolution_floor``, raises ValueError first."""
        if self.unresolved:
            raise ValueError(self.unresolved)
        coupling = self.coupling
        if abs(coupling) <= resolution_floor(self.pair, self.s):
            raise ValueError(
                f"no anti-crossing coupling between the two lowest levels (it reads {coupling:.3e})"
            )
        c = self._lowest_couplings
        return coupling / self.delta, c[:, 2:], _first_order(c, self.w, [0, 1])[:, 2:]


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


def _auto_fit_window(point: AntiCrossingPoint) -> tuple[tuple[float, float], np.ndarray | None]:
    """Largest symmetric window around the gap minimum ``point`` on the
    ladder of half-widths cap * 0.999 / 1.3^n, n = 0 .. 199 (cap: the
    distance from s* to the nearer end of [0, 1]), on which the gap stays
    at most 3x its value Delta at the point; rung 200 when none does.
    Returned with the two lowest energies at the window's ends, (2, 2),
    from the probe of its rung (None for rung 200, which is not probed).

    The search starts at the rung the hyperbola
    Delta(s)^2 = Delta^2 + a^2 (s - s*)^2 predicts, the first one within
    the half-width sqrt(8) Delta / a where it reaches 3 Delta, with the
    slope difference a = 2 |<v0|H1-H0|v1>| read off the point.  From there
    it walks up while the next wider rung passes, or down to the first
    rung that passes; where the gap grows away from s* this is the first
    passing rung from the top.  Delta is above ``resolution_floor`` and
    every gap probed is at least Delta, so the probes may take the Lanczos
    route of ``_eigensolve``."""
    pair, s_star, delta = point.pair, point.s, point.delta
    cap = min(s_star, 1.0 - s_star)
    if cap <= 0:
        raise ValueError("gap minimum sits at the boundary; no fit window")
    rungs = [cap * 0.999]
    for _ in range(200):
        rungs.append(rungs[-1] / 1.3)
    target = 3.0 * delta

    edges = {}

    def passes(n: int) -> bool:
        if n == len(rungs) - 1:
            return True
        w, _ = _eigensolve(pair, s_star + np.array([-rungs[n], rungs[n]]), 2, lanczos=True)
        edges[n] = w
        return float(np.max(w[:, 1] - w[:, 0])) <= target

    # an uncoupled pair (a = 0, straight levels) starts at the widest rung
    with np.errstate(divide="ignore"):
        predicted = np.sqrt(8.0) * delta / (2.0 * abs(point.coupling))
    n = min(int(np.count_nonzero(np.array(rungs) > predicted)), len(rungs) - 1)
    if passes(n):
        while n > 0 and passes(n - 1):
            n -= 1
    else:
        n += 1
        while not passes(n):
            n += 1
    return (s_star - rungs[n], s_star + rungs[n]), edges.get(n)


def wilkinson_fit(point: AntiCrossingPoint) -> WilkinsonFit:
    """Least-squares fit of the two lowest levels to the hyperbola branches
    around the gap minimum ``point``, on the window where the gap is at
    most three times its value Delta at the point (``_auto_fit_window``),
    resampled at 25 points so sharp anti-crossings are resolved below the
    sweep grid spacing.  Every gap the fit reads is at least Delta, so the
    window probes and the samples may take the Lanczos route of
    ``_eigensolve``.  No point is solved twice: the two end samples are
    the window probe's solve (the same points on the same route), and a
    centre sample that equals s* is read off the point's full solve.  The
    fit starts from the point's two-level hyperbola.  An ``unresolved`` gap
    raises ValueError with that cause: no window is sought."""
    pair, s_star, delta = point.pair, point.s, point.delta
    if point.unresolved:
        raise ValueError(point.unresolved)
    (lo, hi), edges = _auto_fit_window(point)
    ss = np.linspace(lo, hi, 25)
    energies = np.empty((len(ss), 2))
    held = np.zeros(len(ss), dtype=bool)
    if edges is not None:
        energies[[0, -1]] = edges
        held[[0, -1]] = True
    if ss[12] == s_star:
        energies[12] = point.w[:2]
        held[12] = True
    energies[~held] = _eigensolve(pair, ss[~held], 2, lanczos=True)[0]
    e0, e1 = energies.T
    half_width = max(hi - s_star, s_star - lo)
    c, w = point._lowest_couplings, point.w

    def residuals(x):
        a, b, center, gap = x
        half = 0.5 * np.sqrt(gap * gap + a * a * (ss - s_star) ** 2)
        mid = center + b * (ss - s_star)
        return np.concatenate([mid - half - e0, mid + half - e1])

    out = scipy.optimize.least_squares(
        residuals,
        x0=[2.0 * abs(c[0, 1]), (c[0, 0] + c[1, 1]) / 2.0, (w[0] + w[1]) / 2.0, delta],
        bounds=([0.0, -np.inf, -np.inf, 0.0], [np.inf, np.inf, np.inf, np.inf]),
    )
    a_fit, b_fit, center_fit, gap_fit = (float(x) for x in out.x)
    rms = float(np.sqrt(np.mean(out.fun**2)))
    # bend test: the asymptote term must actually matter inside the window,
    # which rejects straight non-crossing levels (they fit with A ~ 0)
    valid = bool(
        out.success
        and abs(gap_fit - delta) <= 0.05 * delta + 1e-12
        and rms <= 0.05 * delta + 1e-12
        and a_fit * half_width >= 0.2 * delta
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


def _measure_swap(
    point: AntiCrossingPoint, pairs, window=None, extra_epsilon: float = 0.0
) -> SwapMeasurement:
    """The swap clauses over ``pairs`` of (rising, falling) weights, each
    given as (its series on the grid, its value at the point), on
    ``window``, or with ``window=None`` on the first smallest-gamma
    symmetric window around the point whose half-width is a whole number
    of grid spacings (the definition only asks that some window works).
    Clause 1 bounds one minus each pair's sum, on the window and at the
    point; clause 3 bounds the weights at the window ends.  Epsilon is the
    largest of ``extra_epsilon`` and the distances from 1/2 of the weights
    at the point.  The windows are nested, so the smallest sums on all of
    them come from running minima outward from the first.  A given window
    of fewer than two grid points raises ValueError; with no symmetric
    one: unsatisfied, gamma 1 and the empty window (s, s)."""
    s_star, grid = point.s, point.series.grid
    epsilon = float(max(extra_epsilon, *(abs(at - 0.5) for pair in pairs for _, at in pair)))
    if window is None:
        spacing = float(np.median(np.diff(grid)))
        reach = min(s_star - grid[0], grid[-1] - s_star) + 1e-15
        halves = np.arange(1, int(reach / spacing) + 2) * spacing
        halves = halves[halves <= reach]
        lo, hi = s_star - halves, s_star + halves
    else:
        lo, hi = np.array(window[:1], dtype=float), np.array(window[1:], dtype=float)
    first = np.searchsorted(grid, lo - 1e-15, side="left")
    last = np.searchsorted(grid, hi + 1e-15, side="right") - 1
    held = last - first >= 1
    if window is not None and not held[0]:
        raise ValueError(f"window ({window[0]}, {window[1]}) holds fewer than two grid samples")
    if not held.any():
        return SwapMeasurement(
            satisfied=False, gamma=1.0, epsilon=epsilon,
            window=(float(s_star), float(s_star)), direction_ok=False,
        )
    lo, hi, first, last = lo[held], hi[held], first[held], last[held]
    c = first[0]
    sums, ends = [], []
    for (rising, r_at), (falling, f_at) in pairs:
        total = rising + falling
        inward = np.minimum.accumulate(total[c::-1])[::-1]  # min over [i, c]
        outward = np.minimum.accumulate(total[c:])  # min over [c, c + j]
        sums += [np.minimum(inward[first], outward[last - c]), np.full(len(first), r_at + f_at)]
        ends += [rising[first], 1.0 - rising[last], 1.0 - falling[first], falling[last]]
    gamma = np.maximum(np.maximum(1.0 - np.min(sums, axis=0), np.max(ends, axis=0)), 0.0)
    n = int(np.argmin(gamma))
    i, j = first[n], last[n]
    direction_ok = all(r[j] > r[i] and f[i] > f[j] for (r, _), (f, _) in pairs)
    return SwapMeasurement(
        satisfied=bool(direction_ok and gamma[n] < 0.5 and epsilon < 0.5),
        gamma=float(gamma[n]),
        epsilon=epsilon,
        window=(float(lo[n]), float(hi[n])),
        direction_ok=bool(direction_ok),
    )


def measure_choi(
    point: AntiCrossingPoint, window: tuple[float, float] | None = None
) -> SwapMeasurement:
    """Swap measurement at ``point`` on the four quantities (final ground
    and first excited level inside each of the two lowest instantaneous
    vectors).  ``window=None`` optimizes over symmetric windows around the
    point."""
    if point.pair.final_levels.level_count < 2:
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
# identities at the gap minimum


def gap_decomposition_residual(point: AntiCrossingPoint) -> float:
    """Residual of the stationary-point identity

        Delta(s*) = sum_k E_k(1) [b_k(s*) - a_k(s*)]

    at ``point``, where a_k/b_k are the final-level weights inside the two
    lowest instantaneous vectors.  Rejects a point where the gap derivative
    (the Hellmann-Feynman slopes of the point's kernel) is too large for
    the identity's error to stay within its contract."""
    s, delta, c = point.s, point.delta, point._lowest_couplings
    slope = float(c[1, 1] - c[0, 0])
    threshold = 1e-6 * (1.0 + delta) / max(1.0 - s, 1e-12)
    if abs(slope) > threshold:
        cause = f"; {point.unresolved}" if point.unresolved else " at a resolved gap"
        raise StationarityError(
            f"|dDelta/ds| = {abs(slope):.3e} at s*={s} exceeds {threshold:.3e}{cause}"
        )
    total = 0.0
    for energy, a_k, b_k in zip(point.pair.final_levels.energies, point.in_ground, point.in_excited):
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
    gauge.  An index i outside 0..d-1 raises ValueError."""
    _require_index("i", i, point.pair.dim)
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


def _epsilon_margin(
    choi: SwapMeasurement | None, delta_min: float, partition: FinalLevelPartition
) -> float | None:
    """Margin of the bound Delta_min <= K * epsilon with
    K = 2 (E_0 + E_1 + 2M) on energies shifted so the lowest is zero
    (M is the shifted maximum): a report's ``epsilon_bound_margin``.  Only
    applies when the four-quantity measurement ``choi`` is satisfied;
    returns None otherwise."""
    if choi is None or not choi.satisfied or partition.level_count < 2:
        return None
    energies = np.array(partition.energies) - partition.energies[0]
    m = float(np.max(energies))
    k_const = 2.0 * (float(energies[0]) + float(energies[1]) + 2.0 * m)
    return k_const * choi.epsilon - delta_min


# ---------------------------------------------------------------------------
# eigenvector rotation at the gap minimum


@dataclass(frozen=True)
class RotationResult:
    """How closely the two lowest eigenvectors rotate purely into each
    other at the gap minimum: the first-order derivatives d|v_0>/ds and
    d|v_1>/ds are compared against -beta v_1 and +beta v_0, relative to
    |beta|; the residuals are the norms of their higher-level parts.

    ``coupling_above_max`` is the largest schedule-derivative matrix
    element between the two lowest vectors and any higher level; the
    rotation picture treats it as negligible."""

    residual_ground: float
    residual_excited: float
    coupling_above_max: float
    beta: float


@dataclass(frozen=True)
class SolutionDerivativeResult:
    """First-order check of the solution-weight derivatives at s*: their
    sum vanishes and their difference equals 4 g01 beta with
    g01 = (g_0 + g_1)/2.  Residuals are relative to |beta|."""

    sum_residual: float
    diff_residual: float
    g0_prime: float
    g1_prime: float
    beta: float


def rotation_residuals(point: AntiCrossingPoint) -> RotationResult:
    """Check d|v_0>/ds = -beta |v_1> and d|v_1>/ds = +beta |v_0> at the gap
    minimum ``point`` by first-order perturbation theory; makes no solve."""
    beta, upper, parts = point.first_order
    return RotationResult(
        residual_ground=float(np.linalg.norm(parts[0])) / abs(beta),
        residual_excited=float(np.linalg.norm(parts[1])) / abs(beta),
        coupling_above_max=float(np.max(np.abs(upper))) if upper.size else 0.0,
        beta=beta,
    )


def solution_derivative_residuals(point: AntiCrossingPoint) -> SolutionDerivativeResult:
    """First-order derivatives of the solution weights g_n = v_n[gs]^2 at
    the gap minimum ``point``, checked against the rotation rate beta;
    makes no solve."""
    gs = point.pair.final_levels.unique_ground_index
    if gs is None:
        raise DegeneracyError("needs a unique final ground state")
    beta, _, parts = point.first_order
    v = point.v
    g0_prime = float(2.0 * v[gs, 0] * (-beta * v[gs, 1] + v[gs, 2:] @ parts[0]))
    g1_prime = float(2.0 * v[gs, 1] * (beta * v[gs, 0] + v[gs, 2:] @ parts[1]))
    g01 = float(v[gs, 0] ** 2 + v[gs, 1] ** 2) / 2.0
    return SolutionDerivativeResult(
        sum_residual=abs(g0_prime + g1_prime) / abs(beta),
        diff_residual=abs(g0_prime - g1_prime - 4.0 * g01 * beta) / abs(beta),
        g0_prime=g0_prime,
        g1_prime=g1_prime,
        beta=beta,
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
    pair: HamiltonianPair, grid_points: int = 1001, levels: int = 2
) -> tuple[AntiCrossingReport, OverlapSeries, AntiCrossingPoint | None]:
    """Run the full analysis pipeline for one interpolation: a sweep of the
    lowest ``levels`` eigenpairs (at least two) on ``grid_points`` evenly
    spaced s, the gap minimum searched from that sweep's grid
    (``min_gap``), and every measurement at s* read from one decomposition
    there.

    The report itself reads only the two lowest levels, so the default
    sweep keeps two columns; ask for more to export more levels (the
    sweep then has m = min(max(levels, 2), d) columns, with an arbitrary
    gauge inside a degenerate cluster that level m cuts).

    Returns the report, the overlap series on the sweep (``series.sweep``)
    for every outcome, and the point at s* that every measurement read
    (``point.series is series``), None when no anti-crossing analysis
    applies.  With a point, the report's ``delta_min`` is its gap.
    """
    grid = np.linspace(0.0, 1.0, grid_points)
    series = compute_overlaps(spectral_sweep(pair, grid, levels=levels))
    partition = pair.final_levels
    mg: MinGapResult = min_gap(series.sweep)

    warnings: list[str] = []
    ground_degenerate = partition.unique_ground_index is None
    if ground_degenerate:
        warnings.append(
            f"final ground level is degenerate ({len(partition.members[0])} states); "
            "solution-based quantities skipped"
        )
    point = wilk = choi = solution_swap = decomp_residual = rotation = solution_derivative = None
    if mg.all_degenerate:
        warnings.append("gap vanishes on the whole interval; no anti-crossing analysis")
    elif mg.degenerate_at_end:
        warnings.append("gap minimum sits at s=1 (degenerate final ground state)")
    elif not 0.0 < mg.s_star < 1.0:
        warnings.append(f"gap minimum at the boundary s={mg.s_star}; no anti-crossing analysis")
    else:
        point = series.at(mg.s_star)
        try:
            wilk = wilkinson_fit(point)
        except ValueError as err:
            warnings.append(f"hyperbola fit skipped: {err}")
        if partition.level_count < 2:
            warnings.append("one final energy level; swap measurements skipped")
        else:
            choi = measure_choi(point)
            solution_swap = None if ground_degenerate else measure_solution_swap(point)
        try:
            decomp_residual = gap_decomposition_residual(point)
        except StationarityError as err:
            warnings.append(f"gap decomposition skipped: {err}")
        try:
            rotation = rotation_residuals(point)
        except ValueError as err:
            warnings.append(f"rotation check skipped: {err}")
            if not ground_degenerate:
                warnings.append(f"solution derivative check skipped: {err}")
        else:
            if not ground_degenerate:
                solution_derivative = solution_derivative_residuals(point)

    delta_min = point.delta if point is not None else mg.delta_min
    report = AntiCrossingReport(
        s_star=mg.s_star, delta_min=delta_min,
        beta=rotation.beta if rotation is not None else None,
        ground_degenerate=ground_degenerate,
        degenerate_at_end=mg.degenerate_at_end, all_degenerate=mg.all_degenerate,
        wilkinson=wilk, choi=choi, solution_swap=solution_swap,
        gap_decomposition_residual=decomp_residual,
        epsilon_bound_margin=_epsilon_margin(choi, delta_min, partition),
        rotation=rotation, solution_derivative=solution_derivative, warnings=tuple(warnings),
    )
    return report, series, point
