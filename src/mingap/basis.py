"""Computational basis enumeration.

States are bitstrings whose leftmost character is qubit/node 1.  Two
orderings are used:

* full mode: all ``2**n`` bitstrings in ascending binary order
  (``000`` first, ``111`` last);
* weight-k mode: the ``C(n, k)`` bitstrings with exactly ``k`` ones,
  ordered as ``itertools.combinations`` yields the positions of the ones,
  which is descending binary order (``111000`` first, ``000111`` last for
  n=6, k=3).

A state's index is read from a dict over ``states``, built on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

FULL_MODE_MAX_QUBITS = 14
WEIGHT_MODE_MAX_QUBITS = 20
WEIGHT_MODE_MAX_DIM = 5000


class CapacityError(ValueError):
    """Requested basis exceeds the configured size caps."""


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

    @cached_property
    def bits(self) -> np.ndarray:
        """The (dim, n) read-only boolean array of ``states``: row a, column
        i is whether state a selects node i + 1."""
        chars = np.frombuffer("".join(self.states).encode(), dtype=np.uint8)
        bits = chars.reshape(self.dim, self.n) == ord("1")
        bits.flags.writeable = False
        return bits

    @cached_property
    def _index(self) -> dict[str, int]:
        return {bits: i for i, bits in enumerate(self.states)}

    def index_of(self, bits: str) -> int:
        """Position of a bitstring in ``states``."""
        try:
            return self._index[bits]
        except KeyError:
            if len(bits) != self.n or any(c not in "01" for c in bits):
                raise ValueError(f"not an {self.n}-bit string: {bits!r}") from None
            raise ValueError(f"state {bits!r} does not have weight {self.k}") from None


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
    states = tuple(
        "".join("1" if j in ones else "0" for j in range(n)) for ones in combinations(range(n), k)
    )
    return BasisSet(n=n, k=k, states=states)
