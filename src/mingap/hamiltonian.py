"""Mixer and target operators plus the linear interpolation between them.

Two mixers are provided: the transverse field on the full space and a
swap chain (optionally a cycle) acting inside a fixed-Hamming-weight
subspace.  Targets are diagonal in the computational basis; the clique
target encodes maximum-weight k-clique as

    E(x) = #(missing internal edges of the selected subgraph)
           - alpha * (total selected weight).

Clique energies are evaluated as ``missing - alpha * (w_a + w_b + ...)``
with the weight sum accumulated in ascending node order in float64.
The brute-force solver pins the same evaluation order, so the two
independently computed tables match bit for bit.  The target evaluates
all states at once on the columns of ``BasisSet.bits``: ``missing`` is
C(|x|, 2) less the edges inside the selection, in integers, and the sum
adds, from +0.0 and node by node in ascending order, a node's weight
where it is selected and +0.0 where not.  Adding +0.0 to a nonnegative
sum keeps its bits, so each sum is the one over the selected nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .basis import BasisSet, enumerate_basis

# Two eigenvalues count as degenerate below this relative spacing.
DEGENERACY_RTOL = 1e-9


def degeneracy_tolerance(eigenvalues: np.ndarray) -> float:
    return DEGENERACY_RTOL * (1.0 + float(np.max(np.abs(eigenvalues), initial=0.0)))


def _whole(name: str, value) -> int:
    """``value`` as an int, where it is a whole number: a bool or a
    fraction (2.5, not 3.0) is no count."""
    whole = isinstance(value, Integral) or isinstance(value, Real) and float(value).is_integer()
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ProblemGraph:
    """Weighted graph instance for maximum-weight k-clique.

    Nodes are labelled 1..n; ``edges`` holds unordered pairs; ``alpha``
    sets how strongly node weights count against missing-edge penalties.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[float, ...]
    k: int
    alpha: float

    def __init__(self, n, edges, weights, k, alpha):
        n, k = _whole("n", n), _whole("k", k)
        if n < 2:
            raise ValueError(f"need at least two nodes, got n={n}")
        norm = []
        for e in edges:
            i, j = (_whole(f"endpoint of edge {e}", x) for x in e)
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} has endpoints outside [1, {n}]")
            norm.append((min(i, j), max(i, j)))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edges")
        if any(isinstance(w, (bool, np.bool_)) for w in weights):
            raise ValueError(f"weights must be reals, got {tuple(weights)!r}")
        weights = tuple(float(w) for w in weights)
        if len(weights) != n:
            raise ValueError(f"expected {n} weights, got {len(weights)}")
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError(f"weights must be finite and nonnegative, got {weights!r}")
        if not 0 < k < n:
            raise ValueError(f"clique size must satisfy 0 < k < n, got k={k}")
        real = isinstance(alpha, Real) and not isinstance(alpha, bool)
        if not (real and 0 <= alpha < math.inf):
            raise ValueError(f"alpha must be a finite nonnegative real, got {alpha!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha", alpha)


class _HeldAsCsr:
    """The ``h0`` field of ``HamiltonianPair``.  A matrix assigned to it,
    dense or sparse, is held only in CSR form: its nonzero entries and its
    whole diagonal, zero or not, bit for bit.  A read builds a dense copy."""

    def __get__(self, pair, owner=None):
        if pair is None:
            raise AttributeError("h0")  # the field has no default
        return vars(pair)["h0"].toarray()

    def __set__(self, pair, h0):
        m = scipy.sparse.coo_array(h0)
        off = (m.row != m.col) & (m.data != 0)
        i = np.arange(min(m.shape))
        vars(pair)["h0"] = scipy.sparse.csr_array(
            (
                np.concatenate([m.data[off], h0.diagonal()]),
                (np.concatenate([m.row[off], i]), np.concatenate([m.col[off], i])),
            ),
            shape=m.shape,
        )


@dataclass(frozen=True, eq=False)
class HamiltonianPair:
    """Mixer ``h0`` and diagonal target ``h1_diag`` on a shared basis.

    ``h0`` is given dense or sparse and held only in CSR form
    (``csr_terms``).  Reading ``pair.h0`` builds a dense d x d copy on each
    access; nothing in ``mingap`` reads it, every product with H0 and every
    dense H(s) is formed from the CSR form."""

    basis: BasisSet
    h0: np.ndarray = _HeldAsCsr()
    h1_diag: np.ndarray = field(repr=False)

    def __post_init__(self):
        d = self.basis.dim
        h0 = vars(self)["h0"]
        if h0.shape != (d, d):
            raise ValueError(f"h0 shape {h0.shape} does not match basis dim {d}")
        if self.h1_diag.shape != (d,):
            raise ValueError(f"h1_diag length {self.h1_diag.shape} does not match dim {d}")
        if (h0 != h0.T).nnz:
            raise ValueError("h0 must be exactly symmetric")
        if np.any(scipy.sparse.triu(h0, k=1).data > 0):
            raise ValueError("h0 off-diagonal entries must be nonpositive")

    def __repr__(self):
        return f"HamiltonianPair(basis={self.basis!r})"

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def csr_terms(self) -> tuple[scipy.sparse.csr_array, np.ndarray]:
        """``h0`` in its CSR form, and ``h1_diag`` spread over the same
        entries, so that H(s) is one linear combination of two data arrays
        (``interpolate_csr``).  Built on first use and kept on the pair."""
        h0, rows = vars(self)["h0"], self._csr_rows
        return h0, np.where(rows == h0.indices, self.h1_diag[rows], 0.0)

    @cached_property
    def _csr_rows(self) -> np.ndarray:
        """The row of every stored entry of ``csr_terms[0]``, in its order:
        with its ``indices``, the COO coordinates of the entries."""
        return np.repeat(np.arange(self.dim), np.diff(vars(self)["h0"].indptr))

    @cached_property
    def mixer_connected(self) -> bool:
        """Whether the graph of the nonzero off-diagonal entries of ``h0``
        is connected.  Then -H(s) is irreducible for s < 1 and nonnegative
        off the diagonal, so by Perron-Frobenius its ground level is
        simple."""
        count, _ = scipy.sparse.csgraph.connected_components(self.csr_terms[0], directed=False)
        return count == 1

    @cached_property
    def final_levels(self) -> FinalLevelPartition:
        """The final levels of the pair (``partition_final_levels``), built
        on first use and kept on the pair."""
        return partition_final_levels(self)


@dataclass(frozen=True)
class FinalLevelPartition:
    """Basis states grouped into (possibly degenerate) final energy levels,
    ascending in energy."""

    energies: tuple[float, ...]
    members: tuple[tuple[int, ...], ...]

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


def partition_final_levels(pair: HamiltonianPair) -> FinalLevelPartition:
    """Single-linkage clustering of the target energies: a new level starts
    wherever consecutive sorted energies are more than
    ``degeneracy_tolerance`` apart.  A level's energy is the mean of its
    members' energies.  The levels of one member are read in one gather
    (the mean of one energy is that energy); each larger level takes its
    own mean."""
    values = pair.h1_diag
    tol = degeneracy_tolerance(values)
    order = np.argsort(values, kind="stable")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(values[order]) > tol) + 1])
    first = order[starts]
    energies, members = values[first].tolist(), [(i,) for i in first.tolist()]
    bounds = np.append(starts, len(order))
    for l in np.flatnonzero(np.diff(bounds) > 1).tolist():
        group = order[bounds[l] : bounds[l + 1]]
        energies[l] = float(np.mean(values[group]))
        members[l] = tuple(np.sort(group).tolist())
    return FinalLevelPartition(energies=tuple(energies), members=tuple(members))


def _hopping(basis: BasisSet, flips: np.ndarray) -> scipy.sparse.csr_array:
    """-1.0 between each state of ``basis`` and each state of ``basis`` that
    flipping the nodes of one row of the boolean (terms, n) ``flips`` makes
    of it: states and rows are packed into integer masks alike and XORed."""
    d, place = basis.dim, 1 << np.arange(basis.n)
    masks, flip_masks = basis.bits @ place, flips @ place
    order = np.argsort(masks)
    targets = masks[:, None] ^ flip_masks
    cols = order[np.minimum(np.searchsorted(masks[order], targets), d - 1)]
    kept = masks[cols] == targets
    rows = kept.nonzero()[0]
    return scipy.sparse.csr_array((np.full(rows.size, -1.0), (rows, cols[kept])), shape=(d, d))


def build_transverse_field(n: int) -> scipy.sparse.csr_array:
    """Mixer ``-sum_i sigma_x^(i)`` on the full basis: -1 between
    bitstrings at Hamming distance one, zero elsewhere."""
    return _hopping(enumerate_basis(n), np.eye(n, dtype=bool))


def build_swap_mixer(n: int, k: int, wrap: bool = False) -> scipy.sparse.csr_array:
    """Mixer ``-sum_i S(i, i+1)`` on the weight-k basis, where S exchanges
    the two qubits when their bits differ and annihilates the state when
    they are equal (the XY form: S = (XX + YY)/2 on the pair).  Flipping
    both bits keeps the weight exactly when they differ, which is the
    exchange, so a flip that leaves the basis is a term that annihilates.

    ``wrap=False`` sums the chain pairs (1,2)..(n-1,n); ``wrap=True`` adds
    the (n,1) term and requires n >= 3.
    """
    basis = enumerate_basis(n, k)
    if wrap and n < 3:
        raise ValueError("cyclic swap mixer needs n >= 3")
    one = np.eye(n, dtype=bool)
    pairs = one | np.roll(one, 1, axis=1)  # row i flips nodes i+1 and i+2 (mod n)
    return _hopping(basis, pairs if wrap else pairs[:-1])


def build_clique_target(graph: ProblemGraph, basis: BasisSet | None = None) -> np.ndarray:
    """Diagonal clique target over ``basis`` (default: the weight-k
    subspace of the instance), in the evaluation order the module pins."""
    if basis is None:
        basis = enumerate_basis(graph.n, graph.k)
    if basis.n != graph.n:
        raise ValueError(f"basis is over {basis.n} qubits, graph has {graph.n} nodes")
    bits, wsum = basis.bits, np.zeros(basis.dim)
    size = bits.sum(axis=1)
    i, j = (np.array(graph.edges, dtype=int).reshape(-1, 2) - 1).T
    missing = size * (size - 1) // 2 - (bits[:, i] & bits[:, j]).sum(axis=1)
    for w, selected in zip(graph.weights, bits.T):
        wsum += selected * w
    return missing - float(graph.alpha) * wsum


def build_diagonal_target(energies, basis: BasisSet) -> np.ndarray:
    """Verbatim diagonal target from explicit per-state energies."""
    arr = np.asarray(energies, dtype=float)
    if arr.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} energies, got shape {arr.shape}")
    return arr.copy()


def interpolate(pair: HamiltonianPair, s) -> np.ndarray:
    """H(s) = (1-s) * h0 + s * diag(h1) at a point ``s``, or the (T, d, d)
    stack of H at every point of a 1-D array ``s``: dense, formed from the
    CSR form of h0, with the bits of ``(1-s) * h0`` plus ``s * h1`` on the
    diagonal."""
    ss = np.asarray(s, dtype=float)
    if not np.all((0.0 <= ss) & (ss <= 1.0)):
        raise ValueError(f"s must lie in [0, 1], got {s}")
    d = pair.dim
    h0 = pair.csr_terms[0]
    h = np.zeros((*ss.shape, d, d))
    h[..., pair._csr_rows, h0.indices] = np.multiply.outer(1.0 - ss, h0.data)
    h.reshape(*ss.shape, -1)[..., :: d + 1] += np.multiply.outer(ss, pair.h1_diag)
    return h


def interpolate_csr(pair: HamiltonianPair, s: float) -> scipy.sparse.csr_array:
    """``interpolate`` as a CSR matrix on the nonzeros of h0 plus the
    diagonal; its entries equal the dense ones bit for bit."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    h0, h1 = pair.csr_terms
    return scipy.sparse.csr_array(((1.0 - s) * h0.data + s * h1, h0.indices, h0.indptr), shape=h0.shape)


def clique_pair(graph: ProblemGraph, mixer: str = "swap_chain") -> HamiltonianPair:
    """Assemble the interpolation endpoints for a clique instance.

    ``mixer`` is one of ``swap_chain``, ``swap_cycle`` (weight-k subspace)
    or ``transverse_field`` (full space, clique energies evaluated on every
    bitstring).
    """
    if mixer in ("swap_chain", "swap_cycle"):
        basis = enumerate_basis(graph.n, graph.k)
        h0 = build_swap_mixer(graph.n, graph.k, wrap=mixer == "swap_cycle")
    elif mixer == "transverse_field":
        basis, h0 = enumerate_basis(graph.n), build_transverse_field(graph.n)
    else:
        raise ValueError(f"unknown mixer {mixer!r}")
    return HamiltonianPair(basis=basis, h0=h0, h1_diag=build_clique_target(graph, basis))
