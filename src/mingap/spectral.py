"""Instantaneous spectra along the interpolation.

Every spectrum of H(s) comes from one function, ``_eigensolve``, which
picks the solver from what is asked:

* Lanczos (ARPACK ``eigsh`` from a fixed seeded start vector, to machine
  precision) on the CSR form of H(s), for the lowest one or two levels
  where the caller has no reason to expect E1 - E0 at the round-off of
  H(s): at a point of a grid laid out before any gap was read (a sweep,
  the coarse scan of ``min_gap``), and at a point placed after a gap
  minimum above ``resolution_floor`` was found, whose gap is at least
  that minimum (the window and samples of the hyperbola fit, the step
  search around s* and the solves at s* +- h).  It also needs
  d >= ``LANCZOS_MIN_DIM``, s < 1, a connected mixer graph and a simple
  final ground level.  H(s) of a swap mixer has 5-7 nonzeros per row;
  above the cut this beats the dense reduction to tridiagonal form.  A
  Krylov space grown from one vector holds one combination of each
  eigenspace.  So the solve can miss copies of a degenerate level, and
  more than two levels stay dense.  It can also return E2 for E1 where
  E1 - E0 is at the round-off of H(s), where the dense solve reads about
  0.  A connected mixer keeps E0 simple for s < 1 (Perron-Frobenius), but
  E1 - E0 still closes to round-off as s -> 1 when the final ground level
  is degenerate; such pairs, disconnected mixers and s = 1 (H diagonal)
  stay dense.  What remains is a grid point within about
  eps ||H|| / |dDelta/ds| of a narrow anti-crossing, or a hand-built
  mixer of weakly linked parts whose ground states stay degenerate over a
  range of s.  When ARPACK does not converge within ``_LANCZOS_MAXITER``
  restarts the point is solved densely.
* Dense MRRR (LAPACK ``syevr``), the reference, in every other case: all
  levels or the lowest few, with or without eigenvectors, every point
  that closes in on the gap minimum before it is known (the Brent and
  bisection probes of ``min_gap``), every probe after a minimum below the
  resolution floor, and the central differences of the derivative
  checks.  Near the minimum E1 - E0 can be as small as the round-off of
  H(s), and the dense solve reads the gap whatever its size.

On it rest the checked full eigendecomposition, gauge-continuous sweeps
over an s-grid (of every level, or of the lowest few only), min-gap
location (Brent refinement on Delta^2 of the brackets a coarse grid
gives: the cells around its smallest gap, every cell where the
Hellmann-Feynman gap slope turns from negative to positive, and every
cell across which the ground vector swaps character; the grid is a
sweep's own when one is at hand), perturbation-theory derivatives of
eigenvalues and eigenvectors, and the residuals of the projection
identities that relate any eigenpair to the mixer neighborhood of a
basis state.  Every product with the mixer H0 (the schedule derivative
H1 - H0, the neighbour sums of the identities, ||H0||_inf) runs on its
CSR form.

All ratio identities divide by eigenvector components that may legitimately
vanish; components at or below ``COMPONENT_GUARD`` make the operation
return ``None`` (a skip, not a failure), and make the array forms hold NaN
in that entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .hamiltonian import HamiltonianPair, interpolate, interpolate_csr

# Two eigenvalues count as degenerate below this relative spacing.
DEGENERACY_RTOL = 1e-9
# Ratio identities skip components with magnitude at or below this.
COMPONENT_GUARD = 1e-12
# Dimension from which a one- or two-level solve of H(s) runs Lanczos.  The
# measured crossover lies between d=252 (dense MRRR 2.8 ms per solve, ARPACK
# 3.7 ms) and d=330 (5.3 ms against 4.7 ms); at d=462 it is 10 ms against
# 3-5 ms (2 cores, OpenBLAS).
LANCZOS_MIN_DIM = 300
# Seed of the Lanczos start vector.  Fixed, so that a solve is a pure
# function of H(s) and repeated runs are byte-identical.
_LANCZOS_SEED = 0
# ARPACK restarts after which a point falls back to dense MRRR.  Measured
# needs: 3-7 on the d=462 report sweep, 5-10 at d=792, and up to 30 on a
# d=462 sweep through a gap of 2e-15; the cap bounds a stalled solve to a
# few dense ones.
_LANCZOS_MAXITER = 100
# Round-off allowance, in eps ||H||, of a gap probed at s < 1.
_PROBE_ROUNDOFF = 8
# The ground vector swaps character across a grid cell when its overlap
# across the cell is below this (it turns by more than 45 degrees).
_SWAP_OVERLAP = np.sqrt(0.5)

# Golden-section step of Brent's method, as a fraction of the longer side.
_GOLDEN_STEP = (3.0 - np.sqrt(5.0)) / 2.0


class EigendecompositionError(RuntimeError):
    """LAPACK failed to converge; carries the solver diagnostics."""


class DegeneracyError(ValueError):
    """Operation requires a nondegenerate level and found a degeneracy."""


def degeneracy_tolerance(eigenvalues: np.ndarray) -> float:
    return DEGENERACY_RTOL * (1.0 + float(np.max(np.abs(eigenvalues), initial=0.0)))


def _mrrr(h: np.ndarray, levels: int | None = None, vectors: bool = True):
    """Dense MRRR (LAPACK ``syevr``), the reference solver: the lowest
    ``levels`` eigenvalues of a real symmetric matrix (all of them when
    None), ascending; with ``vectors``, (eigenvalues, eigenvectors as
    columns).  A LAPACK failure raises EigendecompositionError."""
    subset = None if levels is None else [0, levels - 1]
    solve = scipy.linalg.eigh if vectors else scipy.linalg.eigvalsh
    try:
        return solve(h, driver="evr", subset_by_index=subset)
    except scipy.linalg.LinAlgError as err:
        raise EigendecompositionError(f"eigensolver failed on dim {h.shape[0]}: {err}") from err


def _lanczos(pair: HamiltonianPair, s: float, levels: int, vectors: bool = True):
    """The lowest ``levels`` eigenvalues of H(s) by implicitly restarted
    Lanczos (ARPACK) on its CSR form, converged to machine precision from
    a fixed start vector; returned as by ``_mrrr``.  The eigenvectors are
    always computed, since ARPACK's eigenvalues without them differ in the
    last bits.  Raises ``scipy.sparse.linalg.ArpackError`` (no convergence
    within ``_LANCZOS_MAXITER`` restarts among them)."""
    start = np.random.default_rng(_LANCZOS_SEED).uniform(-1.0, 1.0, pair.dim)
    h = interpolate_csr(pair, s)
    # ARPACK reads H only through products with one vector; a bare matvec
    # skips the column-matrix product a wrapped sparse matrix goes through
    op = scipy.sparse.linalg.LinearOperator(h.shape, matvec=h.__matmul__, dtype=h.dtype)
    w, v = scipy.sparse.linalg.eigsh(
        op, k=levels, which="SA", tol=0, v0=start, maxiter=_LANCZOS_MAXITER
    )
    order = np.argsort(w)
    return (w[order], v[:, order]) if vectors else w[order]


def _eigensolve(
    pair: HamiltonianPair,
    s: float,
    levels: int | None = None,
    vectors: bool = True,
    lanczos: bool = False,
):
    """The one route to a spectrum of H(s): the lowest ``levels``
    eigenvalues (all of them when None), ascending; with ``vectors``,
    (eigenvalues, eigenvectors as columns).  ``lanczos`` says that the
    caller has no reason to expect E1 - E0 at the round-off of H(s) at s:
    s belongs to a grid laid out before any gap was read, or the gap there
    is at least a minimum already found above ``resolution_floor``.
    Lanczos for one or two levels at such a point when d >= LANCZOS_MIN_DIM,
    s < 1, the mixer is connected and the final ground level is simple;
    dense MRRR otherwise, and where ARPACK fails (see the module
    docstring).  A failure of the dense solver raises
    EigendecompositionError."""
    if (
        lanczos
        and levels is not None
        and levels <= 2
        and pair.dim >= LANCZOS_MIN_DIM
        and s < 1.0
        and pair.mixer_connected
        and _final_ground_simple(pair)
    ):
        try:
            return _lanczos(pair, s, levels, vectors)
        except scipy.sparse.linalg.ArpackError:
            pass
    return _mrrr(interpolate(pair, s), levels, vectors)


def eigendecompose(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a
    real symmetric matrix.

    Uses the MRRR driver.  Each eigenvector entry carries an absolute
    error of about eps ||H||, so a ratio that divides by a small component
    (the projection identities) loses relative accuracy as the component
    shrinks: with components just above ``COMPONENT_GUARD`` the identity
    residuals can exceed their 1e-8 bound in float64.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.max(np.abs(h))))
    asym = float(np.max(np.abs(h - h.T)))
    if asym > 1e-12 * scale:
        raise ValueError(f"matrix is not symmetric: max|H - H^T| = {asym:.3e}")
    return _mrrr(h)


@dataclass(frozen=True)
class SpectralSweep:
    """Spectra over an s-grid with a continuous eigenvector gauge.

    ``energies[t, k]`` is the k-th eigenvalue (ascending) at ``grid[t]``;
    ``vectors[t, :, k]`` the matching eigenvector, for the m kept levels
    (all d of them, or the lowest few; see ``sweep``).  Signs (and the
    ordering inside near-degenerate clusters) are fixed by maximal overlap
    with the previous grid point, so overlap curves are continuous; inside
    a degenerate cluster that level m cuts, the gauge is arbitrary.  It is
    threaded in one pass over the stacked solves (``_thread_gauge``).
    """

    grid: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    pair: HamiltonianPair

    def gaps(self) -> np.ndarray:
        """E_1(s) - E_0(s) on the grid."""
        return self.energies[:, 1] - self.energies[:, 0]


def _degenerate_clusters(w: np.ndarray, tol: float):
    clusters = []
    start = 0
    for i in range(1, len(w)):
        if w[i] - w[i - 1] > tol:
            clusters.append(range(start, i))
            start = i
    clusters.append(range(start, len(w)))
    return clusters


def _match_clusters(prev: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Permute, in place, the columns of ``v`` and the entries of ``w``
    inside each degenerate cluster of ``w``, so that each column follows
    the column of ``prev`` it overlaps most (greedily by |overlap|)."""
    tol = degeneracy_tolerance(w)
    for cluster in _degenerate_clusters(w, tol):
        idx = list(cluster)
        if len(idx) < 2:
            continue
        block = np.abs(prev[:, idx].T @ v[:, idx])
        perm = [-1] * len(idx)
        used_rows, used_cols = set(), set()
        order = np.dstack(np.unravel_index(np.argsort(-block, axis=None), block.shape))[0]
        for r, c in order:
            if r in used_rows or c in used_cols:
                continue
            perm[r] = c
            used_rows.add(r)
            used_cols.add(c)
            if len(used_rows) == len(idx):
                break
        take = [idx[c] for c in perm]
        v[:, idx] = v[:, take]
        w[idx] = w[take]


def _thread_gauge(energies: np.ndarray, vectors: np.ndarray) -> None:
    """Fix, in place, a continuous gauge on the stacked solves ``energies``
    (T, m) and ``vectors`` (T, d, m).  The first point's columns get their
    largest-magnitude entry positive.  Later columns are permuted inside
    degenerate clusters to follow the previous point's (``_match_clusters``
    reads only |overlap|, so it runs first, at the clustered points alone);
    then a column flips iff its overlap with the previous gauged column is
    negative, and an overlap of exactly 0 restarts it at +1."""
    t_count, _, m = vectors.shape
    tol = DEGENERACY_RTOL * (1.0 + np.max(np.abs(energies), axis=1))
    clustered = np.any(np.diff(energies, axis=1) <= tol[:, None], axis=1)
    for t in np.flatnonzero(clustered[1:]) + 1:
        _match_clusters(vectors[t - 1], energies[t], vectors[t])
    steps = np.empty((t_count, m))
    steps[0] = vectors[0][np.abs(vectors[0]).argmax(axis=0), np.arange(m)]
    for k in range(m):
        # summed over a contiguous copy of one level's vectors, as over a
        # column of one solve in LAPACK's column-major layout: a round-off
        # overlap of orthogonal vectors keeps the sign that order gives it
        column = np.ascontiguousarray(vectors[:, :, k])
        steps[1:, k] = np.einsum("ti,ti->t", column[:-1], column[1:])
    steps = np.sign(steps)
    restart = steps == 0
    steps[restart] = 1.0
    # the sign at t is the product of the steps since the last restart
    # (running[t + 1] / running[restart]; a quotient of signs is a product)
    running = np.cumprod(np.vstack([np.ones(m), steps]), axis=0)
    last = np.maximum.accumulate(np.where(restart, np.arange(t_count)[:, None], 0), axis=0)
    vectors *= (running[1:] * np.take_along_axis(running, last, axis=0))[:, None, :]


def _align_signs(reference: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Flips, in place, the columns of ``v`` that overlap negatively with
    the matching columns of ``reference``; returns ``v``."""
    v[:, np.einsum("ik,ik->k", reference, v) < 0] *= -1.0
    return v


def _central_solves(
    pair: HamiltonianPair, s: float, h: float, reference: np.ndarray, lanczos: bool = False
):
    """(w, v) of the lowest ``reference.shape[1]`` levels at s + h and at
    s - h, the vectors sign-aligned with ``reference``; ``lanczos`` as for
    ``_eigensolve``."""
    solves = (
        _eigensolve(pair, x, levels=reference.shape[1], lanczos=lanczos) for x in (s + h, s - h)
    )
    return [(w, _align_signs(reference, v)) for w, v in solves]


def sweep(pair: HamiltonianPair, grid, levels: int | None = None) -> SpectralSweep:
    """Decompose H(s) at every grid point and thread a continuous gauge.

    With ``levels=None`` every point gets the full decomposition (the
    dense reference path): ``energies`` has shape (T, d) and ``vectors``
    (T, d, d).  With an integer only the lowest m = min(max(levels, 2), d)
    eigenpairs are computed and kept: shapes (T, m) and (T, d, m),
    T*d*m*8 bytes of vectors.  Every point is a grid point of
    ``_eigensolve``: for m = 2 at d >= LANCZOS_MIN_DIM, a connected mixer
    and a simple final ground level each point but s = 1 is a Lanczos
    solve; otherwise each is an MRRR subset solve.  The gauge is then
    threaded in one pass over the stacked arrays (``_thread_gauge``),
    through the kept columns alone, so inside a degenerate cluster that
    level m cuts it is arbitrary."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must hold at least two s values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError("grid must lie within [0, 1]")
    if levels is not None and levels < 1:
        raise ValueError(f"levels must be positive, got {levels}")
    d = pair.dim
    keep = None if levels is None else min(max(levels, 2), d)
    energies = np.empty((len(grid), keep or d))
    vectors = np.empty((len(grid), d, keep or d))
    for t, s in enumerate(grid):
        try:
            energies[t], vectors[t] = _eigensolve(pair, s, levels=keep, lanczos=True)
        except EigendecompositionError as err:
            raise EigendecompositionError(f"at s={s}: {err}") from err
    _thread_gauge(energies, vectors)
    return SpectralSweep(grid=grid, energies=energies, vectors=vectors, pair=pair)


@dataclass(frozen=True)
class MinGapResult:
    """Location and value of the minimal E_1 - E_0 over the interpolation.

    ``degenerate_at_end`` flags minima sitting at s=1 with a degenerate
    final ground level; ``all_degenerate`` flags a gap that vanishes on the
    whole interval.
    """

    s_star: float
    delta_min: float
    degenerate_at_end: bool = False
    all_degenerate: bool = False

    def __iter__(self):
        return iter((self.s_star, self.delta_min))


def resolution_floor(pair: HamiltonianPair, s: float) -> float:
    """Smallest gap float64 resolves at s: p(d) eps ||H(s)||, the form of
    LAPACK's eigenvalue error bound, with a generous p(d) = d^2 and the norm
    bounded by (1-s) ||H0||_inf + s max|H1|.  p(d) = d is too small: on toy2
    at alpha=0.66666 float64 reports a gap of 4.2e-14 ~ 100 eps ||H|| (d=20)
    where 50-digit arithmetic gives 3.7e-19."""
    norm = (1.0 - s) * _h0_norm(pair) + s * float(np.max(np.abs(pair.h1_diag)))
    return pair.dim**2 * float(np.finfo(float).eps) * norm


def _gap_at(pair: HamiltonianPair, s: float, lanczos: bool = False) -> float:
    w = _eigensolve(pair, s, levels=2, vectors=False, lanczos=lanczos)
    return float(w[1] - w[0])


def _brent(
    pair: HamiltonianPair,
    a: float,
    b: float,
    fa: float,
    fb: float,
    tol: float,
    best_s: float,
    best_g: float,
) -> tuple[float, float]:
    """Brent's minimization of Delta^2 on [a, b] (gaps ``fa``, ``fb`` at the
    ends) down to an s-uncertainty of ``tol``, then one probe at the vertex
    of the parabola through the smallest Delta^2 probed inside and its
    neighbours among the probes and the ends.

    Near an anti-crossing the gap is the hyperbola
    Delta^2 = Delta_min^2 + c^2 (s - s*)^2, a parabola in s, which the
    parabolic steps fit exactly; a golden-section step is taken whenever a
    parabolic one is not acceptable (R. P. Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 5).  The closing vertex is
    s* up to round-off also when the anti-crossing is narrower than ``tol``
    and the probes alone would leave up to c*tol in Delta.  Returns the
    smallest probed gap, or (``best_s``, ``best_g``) when no probe is
    strictly below it."""
    probes = {a: fa, b: fb}

    def square(s: float) -> float:
        probes[s] = _gap_at(pair, s)
        return probes[s] ** 2

    x = w = v = a + _GOLDEN_STEP * (b - a)
    fx = fw = fv = square(x)
    step = last = 0.0
    small = 0.5 * tol
    while max(x - a, b - x) > tol:
        mid = 0.5 * (a + b)
        golden = True
        if abs(last) > small:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
                # parabolic step, kept at least ``small`` inside the bracket
                last, step, golden = step, p / q, False
                if x + step - a < tol or b - (x + step) < tol:
                    step = small if mid >= x else -small
        if golden:
            last = (a if x >= mid else b) - x
            step = _GOLDEN_STEP * last
        u = x + (step if abs(step) >= small else (small if step > 0 else -small))
        fu = square(u)
        if fu <= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    ss = sorted(probes)  # the ends first and last
    k = min(range(1, len(ss) - 1), key=lambda j: probes[ss[j]])
    lo, mid, hi = ss[k - 1 : k + 2]
    glo, gmid, ghi = (probes[t] ** 2 for t in (lo, mid, hi))
    p = (mid - lo) ** 2 * (gmid - ghi) - (mid - hi) ** 2 * (gmid - glo)
    q = 2.0 * ((mid - lo) * (gmid - ghi) - (mid - hi) * (gmid - glo))
    if q != 0 and lo < mid - p / q < hi:
        square(mid - p / q)
    for s, g in list(probes.items())[2:]:  # past the two ends
        if g < best_g:
            best_s, best_g = s, g
    return best_s, best_g


def _bisect_swap(
    pair: HamiltonianPair,
    a: float,
    b: float,
    ua: np.ndarray,
    ub: np.ndarray,
    fa: float,
    fb: float,
    tol: float,
) -> tuple[float, float, float, float]:
    """Narrow a cell [a, b] across which the ground vector swaps character
    (ground vectors ``ua``, ``ub``, gaps ``fa``, ``fb``) to the swap point.

    Bisection keeps the half across which the ground vector turns more,
    until neither half turns it by 45 degrees or the cell is narrower than
    ``tol``.  That cell spans the anti-crossing at the scale of its own
    width, where the gap is the unimodal hyperbola; the wider one may hold
    a local maximum of the gap besides.  Returns (a, b, fa, fb) of it."""
    while b - a > tol:
        m = 0.5 * (a + b)
        w, v = _eigensolve(pair, m, levels=2)
        um, fm = v[:, 0], float(w[1] - w[0])
        left, right = abs(float(ua @ um)), abs(float(um @ ub))
        if min(left, right) >= _SWAP_OVERLAP:
            break
        if left < right:
            b, ub, fb = m, um, fm
        else:
            a, ua, fa = m, um, fm
    return a, b, fa, fb


def _gap_slopes(pair: HamiltonianPair, vectors: np.ndarray) -> np.ndarray:
    """dDelta/ds = <v1|H1-H0|v1> - <v0|H1-H0|v0> (Hellmann-Feynman) at
    every grid point, from ``vectors[t, :, :2]``, in one batched product."""
    dots = np.einsum("tik,tik->tk", vectors, _hdot_apply(pair, vectors))
    return dots[:, 1] - dots[:, 0]


def _coarse_sweep(pair: HamiltonianPair, points: int) -> SpectralSweep:
    # min_gap's ``sweep`` argument hides the function
    return sweep(pair, np.linspace(0.0, 1.0, points), levels=2)


def min_gap(
    pair: HamiltonianPair,
    coarse_points: int = 501,
    tol: float = 1e-10,
    sweep: SpectralSweep | None = None,
) -> MinGapResult:
    """Locate the global gap minimum and refine it to an s-uncertainty of
    ``tol``.

    The coarse data are the two lowest eigenpairs on a grid: those of
    ``sweep`` when given (its grid must run from 0 to 1), otherwise those
    of a two-level sweep on ``coarse_points`` evenly spaced s.  Brent's
    minimization of Delta^2, closed by one probe at the vertex of the
    parabola through the smallest probed Delta^2 and its neighbours, runs
    on every candidate bracket, and the smallest gap wins:

    * the cells on either side of the smallest grid gap, when that lies
      inside the interval;
    * every other cell where the Hellmann-Feynman gap slope changes from
      negative to positive, which catches minima narrower than the grid
      spacing (including ones in the first or last cell);
    * every cell across which the ground vector swaps character,
      |<v0(t)|v0(t+1)>| < 1/sqrt(2), whether or not the gap slope turns
      there.  The gap need not be unimodal on such a cell (a wider local
      minimum, or a maximum, may sit beside a narrow minimum), so the
      cell is first narrowed to the swap point by bisection on that
      overlap.

    The gap at s=1 is exact (H(1) is diagonal), so a candidate inside the
    interval must beat it by more than a probe's round-off.  An s=1 result
    is flagged ``degenerate_at_end`` when its gap is below the degeneracy
    tolerance."""
    if coarse_points < 50:
        raise ValueError(f"need at least 50 coarse points, got {coarse_points}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if pair.dim < 2:
        raise ValueError("gap undefined for a one-dimensional space")
    if sweep is None:
        sweep = _coarse_sweep(pair, coarse_points)
    ss = sweep.grid
    if ss[0] != 0.0 or ss[-1] != 1.0:
        raise ValueError(f"sweep grid must run from 0 to 1, got [{ss[0]}, {ss[-1]}]")
    # A sweep orders a degenerate cluster by gauge, not by value: take the
    # two lowest levels by value at every point.
    lowest = np.argsort(sweep.energies, axis=1, kind="stable")[:, :2]
    energies = np.take_along_axis(sweep.energies, lowest, axis=1)
    vectors = np.take_along_axis(sweep.vectors, lowest[:, None, :], axis=2)
    gaps = energies[:, 1] - energies[:, 0]
    deg_tol = degeneracy_tolerance(
        np.concatenate([[np.max(np.abs(pair.h1_diag))], gaps])
    )
    i = int(np.argmin(gaps))
    if np.max(gaps) <= deg_tol:
        return MinGapResult(float(ss[i]), float(gaps[i]), all_degenerate=True)
    slopes = _gap_slopes(pair, vectors)
    turns = (slopes[:-1] < 0) & (slopes[1:] > 0)
    brackets = [(j, j + 1) for j in np.flatnonzero(turns)]
    if 0 < i < len(ss) - 1:
        brackets = [(i - 1, i + 1)] + [(j, k) for j, k in brackets if not i - 1 <= j <= i]
    best = (float(ss[i]), float(gaps[i]))
    for a, b in brackets:
        best = _brent(pair, float(ss[a]), float(ss[b]), gaps[a], gaps[b], tol, *best)
    # Every swap cell is refined once more, also one inside a bracket above:
    # the search over a bracket assumes a unimodal gap, which a swap cell
    # need not have.
    overlaps = np.abs(np.einsum("ti,ti->t", vectors[:-1, :, 0], vectors[1:, :, 0]))
    for j in np.flatnonzero(overlaps < _SWAP_OVERLAP):
        cell = _bisect_swap(
            pair, float(ss[j]), float(ss[j + 1]), vectors[j, :, 0], vectors[j + 1, :, 0],
            gaps[j], gaps[j + 1], tol,
        )
        best = _brent(pair, *cell, tol, *best)
    s_star, delta = best
    # H(1) is diagonal, so the gap read there is exact; a probe inside the
    # interval beats it only by more than the probe's own round-off
    norm = _h0_norm(pair) + float(np.max(np.abs(pair.h1_diag)))
    if gaps[-1] <= delta + _PROBE_ROUNDOFF * np.finfo(float).eps * norm:
        s_star, delta = 1.0, float(gaps[-1])
    return MinGapResult(
        s_star, delta, degenerate_at_end=bool(s_star == 1.0 and delta <= deg_tol)
    )


def decompose_interpolated(pair: HamiltonianPair, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of H(s); handy for amortizing the residual
    operations below over many (i, k) pairs at one s."""
    return _eigensolve(pair, s)


def _h0_apply(pair: HamiltonianPair, v: np.ndarray) -> np.ndarray:
    """H0 applied to a vector, to matrix columns or to a (T, d, m) stack of
    them, as a product with its CSR form (5-7 nonzeros per row for the
    swap mixers, where the dense product reads all d)."""
    h0 = pair.csr_terms[0]
    if v.ndim < 3:
        return h0 @ v
    t, d, m = v.shape
    columns = v.transpose(1, 0, 2).reshape(d, t * m)
    return (h0 @ columns).reshape(d, t, m).transpose(1, 0, 2)


def _h0_norm(pair: HamiltonianPair) -> float:
    """||H0||_inf, from its CSR form."""
    return float(np.max(abs(pair.csr_terms[0]).sum(axis=1)))


def _hdot_apply(pair: HamiltonianPair, v: np.ndarray) -> np.ndarray:
    """(H1 - H0) applied to a vector, to matrix columns or to a stack of
    them (the schedule derivative of H(s))."""
    if v.ndim == 1:
        return pair.h1_diag * v - _h0_apply(pair, v)
    return pair.h1_diag[:, None] * v - _h0_apply(pair, v)


def _require_isolated(w: np.ndarray, k: int, s: float):
    others = np.delete(w, k)
    if len(others) and np.min(np.abs(others - w[k])) <= degeneracy_tolerance(w):
        raise DegeneracyError(f"level {k} is degenerate at s={s}")


def eigenvalue_derivative(
    pair: HamiltonianPair, s: float, k: int, decomposition=None
) -> float:
    """dE_k/ds via the Hellmann-Feynman identity <v_k|H1 - H0|v_k>."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    _require_isolated(w, k, s)
    vk = v[:, k]
    return float(vk @ _hdot_apply(pair, vk))


def eigenvector_derivative(
    pair: HamiltonianPair, s: float, k: int, decomposition=None
) -> np.ndarray:
    """d|v_k>/ds from first-order perturbation theory; orthogonal to v_k
    by construction."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    _require_isolated(w, k, s)
    coeffs = v.T @ _hdot_apply(pair, v[:, k])
    denom = w[k] - w
    denom[k] = 1.0
    coeffs = coeffs / denom
    coeffs[k] = 0.0
    return v @ coeffs


def eigenvalue_second_derivative(
    pair: HamiltonianPair, s: float, k: int, decomposition=None
) -> float:
    """d^2 E_k/ds^2 = 2 sum_{j != k} <v_j|H1-H0|v_k>^2 / (E_k - E_j)."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    _require_isolated(w, k, s)
    coeffs = v.T @ _hdot_apply(pair, v[:, k])
    denom = w[k] - w
    denom[k] = 1.0
    terms = coeffs**2 / denom
    terms[k] = 0.0
    return float(2.0 * np.sum(terms))


def energy_identity_residual(
    pair: HamiltonianPair, s: float, i: int, k: int, decomposition=None
) -> float | None:
    """Residual of the eigenvalue projection identity

        E_k(s) = s E_i(1) - (1-s) <x_i|(-H0)|v_k> / <x_i|v_k>.

    Returns None when the component <x_i|v_k> is at or below the guard.
    ``decomposition`` accepts a precomputed (eigenvalues, eigenvectors)
    pair for H(s).  Entry (i, 0) of ``energy_identity_residuals`` on
    level k alone.
    """
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    r = float(energy_identity_residuals(pair, s, decomposition=(w[k:k + 1], v[:, k:k + 1]))[i, 0])
    return None if np.isnan(r) else r


def gap_identity_residual(
    pair: HamiltonianPair, s: float, i: int, decomposition=None
) -> float | None:
    """Residual of the gap expression through basis state i:

        Delta(s) = (1-s) [ <neigh(x_i)|v_0>/<x_i|v_0> - <neigh(x_i)|v_1>/<x_i|v_1> ].

    Returns None when either component is at or below the guard.  Entry i
    of ``gap_identity_residuals`` on the two lowest levels alone.
    """
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    r = float(gap_identity_residuals(pair, s, decomposition=(w[:2], v[:, :2]))[i])
    return None if np.isnan(r) else r


def _neighbour_ratios(pair: HamiltonianPair, v: np.ndarray) -> np.ndarray:
    """<x_i|(-H0)|v_k> / <x_i|v_k> for every basis state i and column k of
    ``v``; NaN where the component is at or below the guard.  Computed in
    the buffer of the product H0 v."""
    ratios = _h0_apply(pair, v)
    np.negative(ratios, out=ratios)
    guarded = (v <= COMPONENT_GUARD) & (v >= -COMPONENT_GUARD)
    np.divide(ratios, v, out=ratios, where=~guarded)
    ratios[guarded] = np.nan
    return ratios


def energy_identity_residuals(pair: HamiltonianPair, s: float, decomposition=None) -> np.ndarray:
    """``energy_identity_residual`` for every basis state i (row) and level
    k (column) at once; NaN where that function returns None.  Evaluated
    in the buffer of ``_neighbour_ratios``."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    residuals = _neighbour_ratios(pair, v)
    np.multiply(residuals, 1.0 - s, out=residuals)
    np.subtract(s * pair.h1_diag[:, None], residuals, out=residuals)
    return np.subtract(w[None, :], residuals, out=residuals)


def gap_identity_residuals(pair: HamiltonianPair, s: float, decomposition=None) -> np.ndarray:
    """``gap_identity_residual`` for every basis state i at once; NaN where
    that function returns None."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    ratios = _neighbour_ratios(pair, v[:, :2])
    delta = float(w[1] - w[0])
    return delta - (1.0 - s) * (ratios[:, 0] - ratios[:, 1])


def _final_ground_simple(pair: HamiltonianPair) -> bool:
    try:
        _unique_ground_index(pair)
    except DegeneracyError:
        return False
    return True


def _unique_ground_index(pair: HamiltonianPair) -> int:
    order = np.argsort(pair.h1_diag)
    tol = degeneracy_tolerance(pair.h1_diag)
    if pair.dim > 1 and pair.h1_diag[order[1]] - pair.h1_diag[order[0]] <= tol:
        raise DegeneracyError("final ground level is degenerate")
    return int(order[0])


def failure_condition_residual(
    pair: HamiltonianPair, s: float, decomposition=None
) -> float | None:
    """Difference of the two neighbor-to-component ratios taken at the
    solution state; equals Delta(s)/(1-s), which is asserted internally.
    The difference approaching zero signals an exponentially long runtime.
    """
    gs = _unique_ground_index(pair)
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    r0, r1 = _neighbour_ratios(pair, v[:, :2])[gs]
    if np.isnan(r0) or np.isnan(r1):
        return None
    value = float(r0 - r1)
    if s < 1.0:
        expected = float(w[1] - w[0]) / (1.0 - s)
        if abs(value - expected) > 1e-8 * (1.0 + abs(expected)):
            raise RuntimeError(
                f"ratio difference {value:.6e} deviates from gap/(1-s) {expected:.6e}"
            )
    return value
