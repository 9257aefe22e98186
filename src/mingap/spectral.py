"""Instantaneous spectra along the interpolation.

Every spectrum of H(s) comes from one function, ``_eigensolve``.  Every
solve returns eigenpairs, also for a caller that reads only eigenvalues:
LAPACK's ``syevr`` finds a proper subset of eigenvalues by bisection with
or without vectors, so they are the same bits, and ARPACK computes the
vectors anyway.  The route rule, which the solver docstrings point to:

* Lanczos (ARPACK ``eigsh`` from a fixed seeded start vector, to machine
  precision) on the CSR form of H(s), each of its steps a call of SciPy's
  CSR kernel (``_csr_operator``), for the lowest one or two levels
  where the caller has no reason to expect E1 - E0 at the round-off of
  H(s): at a point of a sweep's grid, laid out before any gap was read,
  and at a point placed after a gap minimum above ``resolution_floor``
  was found, whose gap is at least that minimum (the window and samples
  of the hyperbola fit).  It also needs d >= ``LANCZOS_MIN_DIM``, s < 1,
  a connected mixer graph and a simple final ground level.  H(s) of a
  swap mixer has 5-7 nonzeros per row; above the cut this beats the
  dense reduction to tridiagonal form.  A Krylov space grown from one
  vector holds one combination of each eigenspace.  So the solve can
  miss copies of a degenerate level, and more than two levels stay
  dense.  It can also return E2 for E1 where E1 - E0 is at the round-off
  of H(s), where the dense solve reads about 0.  A connected mixer keeps
  E0 simple for s < 1 (Perron-Frobenius), but E1 - E0 still closes to
  round-off as s -> 1 when the final ground level is degenerate; such
  pairs, disconnected mixers and s = 1 (H diagonal) stay dense.  What
  remains is a grid point within about eps ||H|| / |dDelta/ds| of a
  narrow anti-crossing, or a hand-built mixer of weakly linked parts
  whose ground states stay degenerate over a range of s.  When ARPACK
  does not converge within ``_LANCZOS_MAXITER`` restarts the point is
  solved densely.
* NumPy's ``eigh`` (LAPACK ``syevd``) of every level, sliced to the
  lowest few, for a solve of more than two but fewer than all levels at
  d < ``_SYEVD_MAX_DIM``: the multi-level sweep of ``mingap scan`` on
  small instances.  A point set on this route is solved in stacked calls
  of at most ``_STACK_LENGTH`` matrices, which removes the per-call cost
  that dominates at such d; a matrix gets the same bits alone or in a
  stack.
* Dense MRRR (LAPACK ``syevr``), the reference, in every other case: all
  levels, one or two, or the lowest few above the cut; every point that
  closes in on the gap minimum before it is known (the probes of
  ``min_gap``'s branch-and-bound) and the central differences of
  ``mingap verify``'s derivative checks.  Near the minimum E1 - E0 can be
  as small as the round-off of H(s), and the dense solve reads the gap
  whatever its size.  After a minimum below the resolution floor nothing
  is probed: the hyperbola fit is skipped.  The dense H(s) that
  ``interpolate`` forms for the solve is handed to LAPACK to overwrite in
  place, as the Fortran-ordered view of its transpose, so a solve holds
  one d x d matrix besides its eigenvectors, not that matrix and a copy.

``_eigensolve`` takes one point or a 1-D array of points: a sweep's grid,
the s + h and s - h of a fit window's gap edge or of a central
difference, the fit's samples.  A failure of a dense solver raises
EigendecompositionError naming the point.

Below ``_BLAS_THREADS_MIN_DIM`` every solve of a pair, on every route,
runs on one OpenBLAS thread, in one scope per ``_eigensolve`` call
however many points it holds; the caller's thread count is restored
afterwards.  There a second thread shortens no solve, and one thread
makes every spectrum independent of the caller's thread count.  From
the cut on a solve keeps the caller's count.

On it rest the full eigendecomposition of H(s), gauge-continuous sweeps
over an s-grid (of every level, or of the lowest few only), min-gap
location (branch-and-bound from a sweep's grid, on a lower bound of the
gap per cell that the concavity of E0 and E0 + E1 gives),
perturbation-theory derivatives of eigenvalues and eigenvectors, and the
residuals of the projection identities that relate any eigenpair to
the mixer neighborhood of a basis state.  Every product with the mixer
H0 (the schedule derivative H1 - H0, the neighbour sums of the
identities, ||H0||_inf) runs on its CSR form.

All ratio identities divide by eigenvector components that may legitimately
vanish; components at or below ``COMPONENT_GUARD`` make the operation
return ``None`` (a skip, not a failure), and make the array forms hold NaN
in that entry.  A level or basis-state index outside its range raises
ValueError: NumPy would read -1 as the last entry.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import heapq
import itertools
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .hamiltonian import DEGENERACY_RTOL, HamiltonianPair, degeneracy_tolerance, interpolate

# Ratio identities skip components with magnitude at or below this.
COMPONENT_GUARD = 1e-12
# Dimension from which a one- or two-level solve of H(s) runs Lanczos.  The
# measured crossover lies between d=252 (two-level dense MRRR 1.53-1.60 ms
# per solve, ARPACK 1.57-1.69 ms) and d=330 (2.67-2.79 ms against
# 1.60-1.70 ms); at d=462 it is 5.3-6.1 ms against 1.5-1.8 ms (mean over
# a 200-point grid, range of three passes in each of three processes at
# d=462; one OpenBLAS thread, 2 cores, OpenBLAS 0.3.31).
LANCZOS_MIN_DIM = 300
# Seed of the Lanczos start vector.  Fixed, so that a solve is a pure
# function of H(s) and repeated runs are byte-identical.
_LANCZOS_SEED = 0
# ARPACK restarts after which a point falls back to dense MRRR.  Measured
# needs: 3-7 on the d=462 report sweep, 5-10 at d=792, and up to 30 on a
# d=462 sweep through a gap of 2e-15; the cap bounds a stalled solve to a
# few dense ones.
_LANCZOS_MAXITER = 100
# Dimension from which a solve of H(s) keeps the caller's OpenBLAS thread
# count; below it every solve of the pair runs on one thread.  There a
# second thread doubles a solve's CPU time and saves little wall time: at
# d=462 a two-level ARPACK solve takes 1.4-1.6 ms of wall time and
# 2.9-3.2 ms of CPU on two threads, 1.5-1.8 ms of both on one, and a
# two-level dense MRRR solve 4.5-5.1 ms and 8.9-10.2 ms against 5.3-6.1 ms.
# Above the cut the dense solves gain more: 16.0-19.0 against 22.4-28.1 ms
# of wall time at d=715 and 30.7-35.7 against 54.8-59.4 ms at d=924 (each
# setting in its own process, 2 cores, OpenBLAS 0.3.31).  On one thread a
# solve's bits no longer depend on the caller's thread count either.
_BLAS_THREADS_MIN_DIM = 470
# Dimension below which a solve of more than two but fewer than all levels
# is NumPy's eigh of every level.  Per grid point on one
# OpenBLAS thread, a six-level MRRR subset solve against NumPy's eigh in a
# stack of 64: 79 against 49 us at d=20, 108 against 76 at d=28, 162 against
# 133 at d=35, 148 against 147 at d=36, 187 against 215 at d=45 and 228
# against 300 at d=56 (2 cores, OpenBLAS 0.3.31).  Above the crossover the
# vectors of every level cost more than MRRR's six.
_SYEVD_MAX_DIM = 36
# Matrices per stacked call of a sweep on the NumPy route.  One stack of a
# whole 1001-point grid would hold 1001 d x d matrices at once.
_STACK_LENGTH = 64
# Round-off allowance, in eps ||H||, of a gap probed at s < 1.
_PROBE_ROUNDOFF = 8


class EigendecompositionError(RuntimeError):
    """LAPACK failed to converge; carries the solver diagnostics."""


class DegeneracyError(ValueError):
    """Operation requires a nondegenerate level and found a degeneracy."""


@functools.cache
def _openblas_thread_counts() -> tuple:
    """(get, set) of the thread count of every OpenBLAS library loaded in
    the process: the libraries are found by path in /proc/self/maps, their
    functions by the names SciPy's and NumPy's bundled builds
    (``scipy_openblas_*``, ``scipy_openblas_*64_``) and a system build
    (``openblas_*``) export.  Empty where none is found (no /proc, or
    another BLAS).  Read once, on the first pinned solve."""
    paths = {}
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) == 6 and "openblas" in os.path.basename(fields[5].strip()):
                    paths[fields[5].strip()] = None
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("", "64_")):
            names = (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                get, set_ = (getattr(lib, name) for name in names)
                get.restype, get.argtypes = ctypes.c_int, ()
                set_.restype, set_.argtypes = None, (ctypes.c_int,)
                controls.append((get, set_))
                break
    return tuple(controls)


class _OneBlasThread:
    """A scope in which every loaded OpenBLAS runs on one thread.  The
    thread count is process-wide (``openblas_set_num_threads_local`` too
    acts on the whole process in OpenBLAS 0.3.31), so there is one scope
    for the process: re-entrant and shared by Python threads.  Only the
    outermost entry and exit call OpenBLAS; the exit restores the counts
    the entry found, also on an exception."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._restore = []

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._restore = [(set_, get()) for get, set_ in _openblas_thread_counts()]
                for set_, count in self._restore:
                    if count != 1:
                        set_(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_, count in self._restore:
                    if count != 1:
                        set_(count)


_ONE_BLAS_THREAD = _OneBlasThread()


class _Scratch(np.ndarray):
    """A dense H(s) that ``_eigensolve`` formed for one solve and reads no
    more: ``_mrrr`` lets LAPACK overwrite it."""


def _mrrr(h: np.ndarray, levels: int | None = None):
    """Dense MRRR (LAPACK ``syevr``), the reference route of the module
    docstring: the lowest ``levels`` eigenpairs of a real symmetric matrix
    (all of them when None), as (eigenvalues ascending, eigenvectors as
    columns).  A ``_Scratch`` H(s), exactly symmetric, is solved in place:
    its transpose is the same matrix in Fortran order, which LAPACK
    overwrites.  Any other ``h`` is left unchanged; SciPy solves a
    Fortran-ordered copy of it, with the same bits.  A LAPACK failure
    raises EigendecompositionError."""
    subset = None if levels is None else [0, levels - 1]
    scratch = isinstance(h, _Scratch)
    try:
        return scipy.linalg.eigh(
            h.T if scratch else h, driver="evr", subset_by_index=subset, overwrite_a=scratch
        )
    except scipy.linalg.LinAlgError as err:
        raise EigendecompositionError(f"eigensolver failed on dim {h.shape[0]}: {err}") from err


def _stacks(pair: HamiltonianPair, levels: int | None) -> bool:
    """Whether a solve of the lowest ``levels`` of ``pair`` takes the NumPy
    route of the module docstring (``_syevd``): more than two but fewer
    than all levels at d < ``_SYEVD_MAX_DIM``.  The rest stay MRRR: NumPy
    solves two levels no faster (54 against 48 us at d=20), and NumPy's
    full decompositions read the projection identities close to their
    1e-8 bound (3.9e-9 against 2.1e-10 on toy1 over the 21 points of
    ``mingap verify``)."""
    return levels is not None and 2 < levels < pair.dim < _SYEVD_MAX_DIM


def _syevd(pair: HamiltonianPair, s, levels: int):
    """NumPy's eigh (LAPACK ``syevd``) of H(s) at a point ``s``, or at every
    point of a 1-D array ``s`` in one stacked call: the lowest ``levels``
    eigenvalues, ascending, and their eigenvectors as columns, with a
    leading axis over the points of an array.  Every level is computed, of
    the H(s) that ``interpolate`` forms; a matrix gets the same bits alone
    or in a stack.  A non-finite H(s) raises ValueError, as SciPy's input
    check does; a LAPACK failure raises
    EigendecompositionError naming the point, found by solving a failed
    stack's points one at a time."""
    try:
        w, v = np.linalg.eigh(np.asarray_chkfinite(interpolate(pair, s)))
    except np.linalg.LinAlgError as err:
        if np.ndim(s):
            for x in s:
                _syevd(pair, x, levels)
        raise EigendecompositionError(
            f"at s={s}: eigensolver failed on dim {pair.dim}: {err}"
        ) from err
    return w[..., :levels], v[..., :levels]


@functools.cache
def _lanczos_start(d: int) -> np.ndarray:
    """The seeded start vector of every Lanczos solve at dimension ``d``,
    drawn once and read-only (ARPACK copies it into its workspace)."""
    start = np.random.default_rng(_LANCZOS_SEED).uniform(-1.0, 1.0, d)
    start.flags.writeable = False
    return start


def _csr_operator(pair: HamiltonianPair, s: float) -> scipy.sparse.linalg.LinearOperator:
    """H(s) as the operator ARPACK steps through: its ``matvec`` is SciPy's
    CSR kernel, the one ``interpolate_csr(pair, s) @ x`` ends in, on the
    index arrays of ``pair.csr_terms`` and the data array that
    ``interpolate_csr`` forms, with the same bits.  No ``csr_array`` is
    built and no step goes through the sparse dispatch."""
    h0, h1 = pair.csr_terms
    d, indptr, indices = pair.dim, h0.indptr, h0.indices
    data = (1.0 - s) * h0.data + s * h1

    def product(x):
        y = np.zeros(d)
        _csr_matvec(d, d, indptr, indices, data, x, y)
        return y

    op = scipy.sparse.linalg.LinearOperator((d, d), matvec=product, dtype=np.float64)
    # ARPACK passes a contiguous length-d float64 slice of its workspace, so
    # the shape check of LinearOperator.matvec is vacuous and is skipped
    op.matvec = product
    return op


def _lanczos(pair: HamiltonianPair, s: float, levels: int):
    """The lowest ``levels`` eigenpairs of H(s) by implicitly restarted
    Lanczos (ARPACK) on its CSR form (``_csr_operator``), the sparse route
    of the module docstring, converged to machine precision from a fixed
    start vector; returned as by ``_mrrr``.  Raises
    ``scipy.sparse.linalg.ArpackError`` (no convergence within
    ``_LANCZOS_MAXITER`` restarts among them)."""
    w, v = scipy.sparse.linalg.eigsh(
        _csr_operator(pair, s), k=levels, which="SA", tol=0, v0=_lanczos_start(pair.dim),
        maxiter=_LANCZOS_MAXITER,
    )
    order = np.argsort(w)
    return w[order], v[:, order]


def _eigensolve(
    pair: HamiltonianPair,
    s: float | np.ndarray,
    levels: int | None = None,
    lanczos: bool = False,
):
    """The one route to a spectrum of H(s): the lowest ``levels``
    eigenpairs (all of them when None), as (eigenvalues ascending,
    eigenvectors as columns), on the route the module docstring gives.
    ``s`` is a point, or a 1-D array of points whose solves are returned
    stacked, (T, m) and (T, d, m).  ``lanczos`` says that the caller has
    no reason to expect E1 - E0 at the round-off of H(s) at s: s belongs
    to a grid laid out before any gap was read, or the gap there is at
    least a minimum already found above ``resolution_floor``.  On the
    NumPy route (``_stacks``) the points are solved in stacked calls of at
    most ``_STACK_LENGTH`` matrices, on the others one at a time.  Below
    ``_BLAS_THREADS_MIN_DIM`` the call runs on one OpenBLAS thread.  A
    failure of a dense solver raises EigendecompositionError naming the
    point."""
    single, points = np.ndim(s) == 0, np.atleast_1d(s)
    if not single:
        m = pair.dim if levels is None else levels
        energies, vectors = np.empty((len(points), m)), np.empty((len(points), pair.dim, m))
    with _ONE_BLAS_THREAD if pair.dim < _BLAS_THREADS_MIN_DIM else contextlib.nullcontext():
        if _stacks(pair, levels):
            if single:
                return _syevd(pair, s, levels)
            for t in range(0, len(points), _STACK_LENGTH):
                part = slice(t, t + _STACK_LENGTH)
                energies[part], vectors[part] = _syevd(pair, points[part], levels)
            return energies, vectors
        for t, x in enumerate(points):
            solve = None
            if (
                lanczos
                and levels is not None
                and levels <= 2
                and pair.dim >= LANCZOS_MIN_DIM
                and x < 1.0
                and pair.mixer_connected
                and pair.final_levels.unique_ground_index is not None
            ):
                try:
                    solve = _lanczos(pair, x, levels)
                except scipy.sparse.linalg.ArpackError:
                    pass
            if solve is None:
                try:
                    solve = _mrrr(interpolate(pair, x).view(_Scratch), levels)
                except EigendecompositionError as err:
                    raise EigendecompositionError(f"at s={x}: {err}") from err
            if single:
                return solve
            energies[t], vectors[t] = solve
    return energies, vectors


@dataclass(frozen=True)
class SpectralSweep:
    """Spectra over an s-grid with a continuous eigenvector gauge.

    ``energies[t, k]`` is the k-th eigenvalue at ``grid[t]``;
    ``vectors[t, :, k]`` the matching eigenvector, for the m kept levels
    (all d of them, or the lowest few; see ``sweep``).  Signs and the
    ordering inside near-degenerate clusters are fixed by maximal overlap
    with the previous grid point, so overlap curves are continuous; the
    energies ascend from cluster to cluster but not inside a degenerate
    cluster, where they follow the gauge (``gaps`` reads them by
    value).  Inside a degenerate cluster that level m cuts, the gauge is
    arbitrary.  It is threaded in one pass over the stacked solves
    (``_thread_gauge``).
    """

    grid: np.ndarray = field(repr=False)
    energies: np.ndarray = field(repr=False)
    vectors: np.ndarray = field(repr=False)
    pair: HamiltonianPair

    @functools.cached_property
    def _by_value(self) -> np.ndarray:
        """The columns of the two lowest levels by value at every grid
        point, (T, 2).  A stable sort, so the gauge order stands where it
        is already ascending."""
        return np.argsort(self.energies, axis=1, kind="stable")[:, :2]

    def gaps(self) -> np.ndarray:
        """E_1(s) - E_0(s) on the grid, of the two lowest levels by value."""
        energies = np.take_along_axis(self.energies, self._by_value, axis=1)
        return energies[:, 1] - energies[:, 0]


def _match_clusters(prev: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Permute, in place, the columns of ``v`` and the entries of ``w``
    inside each degenerate cluster of ``w``, so that each column follows
    the column of ``prev`` it overlaps most (greedily by |overlap|)."""
    tol = degeneracy_tolerance(w)
    for idx in np.split(np.arange(len(w)), np.flatnonzero(np.diff(w) > tol) + 1):
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


def sweep(pair: HamiltonianPair, grid, levels: int | None = None) -> SpectralSweep:
    """Decompose H(s) at every grid point and thread a continuous gauge.

    With ``levels=None`` every point gets the full decomposition (the
    dense reference path): ``energies`` has shape (T, d) and ``vectors``
    (T, d, d).  With an integer only the lowest m = min(max(levels, 2), d)
    eigenpairs are computed and kept: shapes (T, m) and (T, d, m),
    T*d*m*8 bytes of vectors.  The grid is one point set of
    ``_eigensolve``, on the route the module docstring gives.  The gauge
    is then threaded in one pass over the stacked arrays
    (``_thread_gauge``), through the kept columns alone, so inside a
    degenerate cluster that level m cuts it is arbitrary."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise ValueError("grid must hold at least two s values")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ValueError("grid must lie within [0, 1]")
    if levels is not None and levels < 1:
        raise ValueError(f"levels must be positive, got {levels}")
    keep = None if levels is None else min(max(levels, 2), pair.dim)
    energies, vectors = _eigensolve(pair, grid, levels=keep, lanczos=True)
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


def resolution_floor(pair: HamiltonianPair, s: float) -> float:
    """Smallest gap float64 resolves at s: p(d) eps ||H(s)||, the form of
    LAPACK's eigenvalue error bound, with a generous p(d) = d^2 and the norm
    bounded by (1-s) ||H0||_inf + s max|H1|.  p(d) = d is too small: on toy2
    at alpha=0.66666 float64 reports a gap of 4.2e-14 ~ 100 eps ||H|| (d=20)
    where 50-digit arithmetic gives 3.7e-19."""
    norm = (1.0 - s) * _h0_norm(pair) + s * float(np.max(np.abs(pair.h1_diag)))
    return pair.dim**2 * float(np.finfo(float).eps) * norm


def _slopes(pair: HamiltonianPair, vectors: np.ndarray) -> np.ndarray:
    """dE_k/ds = <v_k|H1-H0|v_k> (Hellmann-Feynman) of every column k of
    ``vectors`` (T, d, m) at every point, (T, m), in one batched product."""
    return np.einsum("tik,tik->tk", vectors, _hdot_apply(pair, vectors))


def _grid_rows(sweep: SpectralSweep) -> np.ndarray:
    """(E0, E1, E0') at every grid point of ``sweep``, (T, 3), as ``_probe``
    reads them at one point: the two lowest energies by value, and the
    Hellmann-Feynman slope of the lowest level.  The slopes are taken in
    blocks of ``_STACK_LENGTH`` points, so no (T, d) copy of the vectors
    is made.  A block's two lowest columns are gathered and its first one
    read, the layout the product had over the whole grid, which fixes
    the slopes' last bits (a contiguous column is summed in another
    order)."""
    by_value = sweep._by_value
    rows = np.empty((len(sweep.grid), 3))
    rows[:, :2] = np.take_along_axis(sweep.energies, by_value, axis=1)
    for t in range(0, len(rows), _STACK_LENGTH):
        part = slice(t, t + _STACK_LENGTH)
        lowest = np.take_along_axis(sweep.vectors[part], by_value[part, None, :], axis=2)
        rows[part, 2] = _slopes(sweep.pair, lowest[:, :, :1])[:, 0]
    return rows


def _probe(pair: HamiltonianPair, s: float) -> np.ndarray:
    """(E0, E1, E0') of a dense (MRRR) two-level solve at s, the one solve
    of ``min_gap``'s search; E0' = <v0|H1-H0|v0> (Hellmann-Feynman)."""
    w, v = _eigensolve(pair, s, levels=2)
    return np.array([w[0], w[1], _slopes(pair, v[None, :, :1])[0, 0]])


def _cell_bounds(ss: np.ndarray, points: np.ndarray, norm: float):
    """A lower bound of E1 - E0 on each cell between consecutive points
    ``ss`` (ascending), and the point to split the cell at, from the rows
    (E0, E1, E0') of ``points`` at its ends; ``norm`` bounds ||H1 - H0||.

    H(s) is affine in s, so E0 and E0 + E1 are concave (Ky Fan, PNAS 35,
    1949): on [a, b] E0 lies below its tangents at a and b, and E0 + E1
    above its chord.  So E1 - E0 >= chord - 2 min(tangents), a convex
    piecewise-linear bound whose minimum lies at a cell end or at x, where
    the tangents cross; x is read only where it lies inside the cell.
    Weyl's inequality bounds the gap besides by min(Delta_a, Delta_b) -
    norm (b - a), and E1 >= E0 by 0; the largest bound is returned.  A
    cell splits at x, kept within its middle 80%, or at its midpoint when x
    is outside."""
    a, b = ss[:-1], ss[1:]
    (e0a, e1a, g0a), (e0b, e1b, g0b) = points[:-1].T, points[1:].T
    width, ends = b - a, np.minimum(e1a - e0a, e1b - e0b)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (e0b - e0a - g0b * width) / (g0a - g0b)  # x - a
        at_x = e1a - e0a + t * ((e0b + e1b - e0a - e1a) / width - 2.0 * g0a)
    inside = (t > 0) & (t < width)
    concave = np.where(inside, np.minimum(ends, at_x), ends)
    bound = np.maximum(np.maximum(concave, ends - norm * width), 0.0)
    split = a + np.where(inside, np.clip(t, 0.1 * width, 0.9 * width), 0.5 * width)
    return bound, split


def min_gap(sweep: SpectralSweep) -> MinGapResult:
    """Locate the global gap minimum of the sweep's pair by branch-and-bound
    on a concavity bound (Horst and Tuy, Global Optimization, 1996).

    The search starts from the two lowest levels on the grid of
    ``sweep``, which must run from 0 to 1.  Each point holds (E0, E1,
    E0'); the grid's come from ``_grid_rows``, which copies no sweep
    vectors beyond one block of points.  A heap holds the cells whose
    lower bound (``_cell_bounds``) lies below the best gap read so far
    less the resolution floor, the larger of ``resolution_floor`` at s=0
    and s=1.  The lowest cell is split, the
    split point probed by a dense two-level solve (``_probe``) and both
    halves pushed back, until no cell remains.  So no cell hides a gap
    more than the floor below the result, up to the round-off of the
    points read and provided each read E1 is the second level (a Lanczos
    grid point can hold E2 where E1 - E0 is at round-off).  The Weyl term
    of the bound closes any cell narrower than about d^2 eps, so the loop
    ends without a width limit.  One probe at the vertex of the parabola
    through the smallest Delta^2 read and its two neighbours closes the
    search, unless that point is already read.

    Where Delta is far flatter than E0 across a wide minimum, the bound
    stays loose and the search takes many probes: on
    ``random_instance(5, 2, 0.5, 0.5, 1.5, seed=131, alpha=2**-23)`` from
    51 points it takes 1334, where a narrow anti-crossing takes tens.

    The gap at s=1 is exact (H(1) is diagonal), so a point inside the
    interval must beat it by more than a probe's round-off.  An s=1 result
    is flagged ``degenerate_at_end`` when its gap is below the degeneracy
    tolerance."""
    pair = sweep.pair
    if pair.dim < 2:
        raise ValueError("gap undefined for a one-dimensional space")
    ss = sweep.grid
    if ss[0] != 0.0 or ss[-1] != 1.0:
        raise ValueError(f"sweep grid must run from 0 to 1, got [{ss[0]}, {ss[-1]}]")
    rows = _grid_rows(sweep)
    gaps = rows[:, 1] - rows[:, 0]
    deg_tol = degeneracy_tolerance(
        np.concatenate([[np.max(np.abs(pair.h1_diag))], gaps])
    )
    i = int(np.argmin(gaps))
    if np.max(gaps) <= deg_tol:
        return MinGapResult(float(ss[i]), float(gaps[i]), all_degenerate=True)
    norm = _h0_norm(pair) + float(np.max(np.abs(pair.h1_diag)))
    floor = max(resolution_floor(pair, 0.0), resolution_floor(pair, 1.0))
    read = dict(zip(ss.tolist(), gaps.tolist()))
    best = float(gaps[i])
    heap = []

    def probe(s):
        point = _probe(pair, s)
        read[s] = float(point[1] - point[0])
        return point

    def push(cells_ss, cells_points):
        bounds, splits = _cell_bounds(cells_ss, cells_points, norm)
        for j in np.flatnonzero(bounds < best - floor):
            heapq.heappush(heap, (bounds[j], float(splits[j]), cells_ss[j], cells_ss[j + 1],
                                  cells_points[j], cells_points[j + 1]))

    push(ss, rows)
    while heap and heap[0][0] < best - floor:
        _, m, a, b, pa, pb = heapq.heappop(heap)
        if not a < m < b:  # a cell at the spacing of float64
            continue
        pm = probe(m)
        best = min(best, read[m])
        push(np.array([a, m, b]), np.array([pa, pm, pb]))
    # the vertex of the Delta^2 parabola through the smallest gap read and
    # its neighbours; near an anti-crossing Delta^2 is that parabola
    ordered = sorted(read)
    k = min(range(len(ordered)), key=lambda j: read[ordered[j]])
    if 0 < k < len(ordered) - 1:
        lo, mid, hi = ordered[k - 1 : k + 2]
        glo, gmid, ghi = (read[t] ** 2 for t in (lo, mid, hi))
        p = (mid - lo) ** 2 * (gmid - ghi) - (mid - hi) ** 2 * (gmid - glo)
        q = 2.0 * ((mid - lo) * (gmid - ghi) - (mid - hi) * (gmid - glo))
        if q != 0 and lo < mid - p / q < hi and mid - p / q not in read:
            probe(mid - p / q)
    s_star, delta = min(read.items(), key=lambda item: item[1])  # the first smallest
    # H(1) is diagonal, so the gap read there is exact; a probe inside the
    # interval beats it only by more than the probe's own round-off
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


def _couplings(pair: HamiltonianPair, v: np.ndarray, levels: list[int]) -> np.ndarray:
    """<v_l|H1-H0|v_j>, l in ``levels``: ((H1 - H0) V[:, levels])^T V."""
    return _hdot_apply(pair, v[:, levels]).T @ v


def _first_order(couplings: np.ndarray, w: np.ndarray, levels: list[int]) -> np.ndarray:
    """``_couplings`` over E_l - E_j, 0 at j = l; each reader checks degeneracy."""
    spacings = w[levels, None] - w
    spacings[np.arange(len(levels)), levels] = np.inf
    return couplings / spacings


def _require_index(name: str, index: int, size: int):
    if not 0 <= index < size:
        raise ValueError(f"{name}={index} is out of range 0..{size - 1}")


def _require_isolated(w: np.ndarray, k: int, s: float):
    _require_index("k", k, len(w))
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
    return v @ _first_order(_couplings(pair, v, [k]), w, [k])[0]


def eigenvalue_second_derivative(
    pair: HamiltonianPair, s: float, k: int, decomposition=None
) -> float:
    """d^2 E_k/ds^2 = 2 sum_{j != k} <v_j|H1-H0|v_k>^2 / (E_k - E_j)."""
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    _require_isolated(w, k, s)
    couplings = _couplings(pair, v, [k])
    return float(2.0 * np.sum(couplings * _first_order(couplings, w, [k])))


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
    _require_index("i", i, pair.dim)
    w, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    _require_index("k", k, len(w))
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
    _require_index("i", i, pair.dim)
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


def failure_condition_residual(
    pair: HamiltonianPair, s: float, decomposition=None
) -> float | None:
    """Difference of the two neighbor-to-component ratios taken at the
    solution state; equals (Delta - r)/(1-s), with r the solution state's
    entry of ``gap_identity_residuals`` (which bounds how far it is from
    Delta/(1-s)).  The difference approaching zero signals an
    exponentially long runtime.
    """
    gs = pair.final_levels.unique_ground_index
    if gs is None:
        raise DegeneracyError("final ground level is degenerate")
    _, v = decomposition if decomposition is not None else decompose_interpolated(pair, s)
    r0, r1 = _neighbour_ratios(pair, v[:, :2])[gs]
    if np.isnan(r0) or np.isnan(r1):
        return None
    return float(r0 - r1)
