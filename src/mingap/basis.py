"""Computational basis enumeration.

States are bitstrings whose leftmost character is qubit/node 1.  Two
orderings are used:

* full mode: all ``2**n`` bitstrings in ascending binary order
  (``000`` first, ``111`` last);
* weight-k mode: the ``C(n, k)`` bitstrings with exactly ``k`` ones,
  ordered as combinations of selected positions in lexicographic order
  (``111000`` first, ``000111`` last for n=6, k=3).

Rank and unrank in weight-k mode use the combinatorial number system,
so no lookup table is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

FULL_MODE_MAX_QUBITS = 14
WEIGHT_MODE_MAX_QUBITS = 20
WEIGHT_MODE_MAX_DIM = 5000


class CapacityError(ValueError):
    """Requested basis exceeds the configured size caps."""


def _rank_weight_k(bits: str, n: int, k: int) -> int:
    """Position of a weight-k bitstring in combination-lexicographic order."""
    rank = 0
    remaining = k
    for j, c in enumerate(bits):
        if c == "1":
            remaining -= 1
        elif remaining > 0:
            # combinations that place their next one here precede this state
            rank += comb(n - j - 1, remaining - 1)
    return rank


def _unrank_weight_k(rank: int, n: int, k: int) -> str:
    out = []
    remaining = k
    for j in range(n):
        if remaining == 0:
            out.append("0")
            continue
        here = comb(n - j - 1, remaining - 1)
        if rank < here:
            out.append("1")
            remaining -= 1
        else:
            out.append("0")
            rank -= here
    return "".join(out)


@dataclass(frozen=True)
class BasisSet:
    """Ordered computational basis, either the full n-bit space or a
    fixed-Hamming-weight subspace (``k is None`` means full mode)."""

    n: int
    k: int | None
    states: tuple[str, ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.states)

    def state(self, i: int) -> str:
        return self.states[i]

    def index_of(self, bits: str) -> int:
        """Rank of a bitstring; inverse of :meth:`state`."""
        if len(bits) != self.n or any(c not in "01" for c in bits):
            raise ValueError(f"not an {self.n}-bit string: {bits!r}")
        if self.k is None:
            return int(bits, 2)
        if bits.count("1") != self.k:
            raise ValueError(f"state {bits!r} does not have weight {self.k}")
        return _rank_weight_k(bits, self.n, self.k)


def enumerate_basis(n: int, k: int | None = None) -> BasisSet:
    """Build the ordered basis for ``n`` qubits.

    ``k=None`` enumerates the full space (capped at n <= 14); otherwise the
    Hamming-weight-k subspace with 0 < k < n, capped at C(n,k) <= 5000.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if k is None:
        if n > FULL_MODE_MAX_QUBITS:
            raise CapacityError(
                f"full mode capped at n={FULL_MODE_MAX_QUBITS}, got n={n}"
            )
        states = tuple(format(m, f"0{n}b") for m in range(2**n))
        return BasisSet(n=n, k=None, states=states)
    if not 0 < k < n:
        raise ValueError(f"weight must satisfy 0 < k < n, got k={k}, n={n}")
    if n > WEIGHT_MODE_MAX_QUBITS:
        raise CapacityError(
            f"weight mode capped at n={WEIGHT_MODE_MAX_QUBITS}, got n={n}"
        )
    if comb(n, k) > WEIGHT_MODE_MAX_DIM:
        raise CapacityError(
            f"C({n},{k})={comb(n, k)} exceeds the weight-mode cap of "
            f"{WEIGHT_MODE_MAX_DIM} states"
        )
    states = tuple(_unrank_weight_k(m, n, k) for m in range(comb(n, k)))
    return BasisSet(n=n, k=k, states=states)
