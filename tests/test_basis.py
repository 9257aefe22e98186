from math import comb

import numpy as np
import pytest

from mingap.basis import WEIGHT_MODE_MAX_DIM, CapacityError, enumerate_basis
from mingap.hamiltonian import build_swap_mixer, build_transverse_field


def adjacency(h0: np.ndarray) -> list[list[int]]:
    """Neighbours of each basis state under the mixer: the states j with
    h0[i, j] < 0."""
    return [np.flatnonzero(row < 0).tolist() for row in h0]


def test_weight_one_ordering():
    basis = enumerate_basis(3, 1)
    assert basis.states == ("100", "010", "001")


def test_weight_three_count_and_extremes():
    basis = enumerate_basis(6, 3)
    assert basis.dim == 20
    assert basis.states[0] == "111000"
    assert basis.states[-1] == "000111"


@pytest.mark.parametrize("n, k", [(1, None), (3, None), (6, 3), (5, 1), (5, 4)])
def test_bits_are_the_states(n, k):
    basis = enumerate_basis(n, k)
    assert basis.bits.shape == (basis.dim, n) and basis.bits.dtype == bool
    assert basis.bits.tolist() == [[c == "1" for c in bits] for bits in basis.states]
    assert basis.bits is basis.bits and not basis.bits.flags.writeable


def test_full_ordering():
    basis = enumerate_basis(3)
    assert basis.dim == 8
    assert basis.states[0] == "000"
    assert basis.states[-1] == "111"
    assert basis.states == tuple(format(m, "03b") for m in range(8))


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_unrank_roundtrip(n):
    for k in [None] + list(range(1, n)):
        basis = enumerate_basis(n, k)
        for m, bits in enumerate(basis.states):
            assert basis.index_of(bits) == m
        assert len(set(basis.states)) == basis.dim
        if k is not None:
            assert basis.dim == comb(n, k)
            assert all(bits.count("1") == k for bits in basis.states)


def test_weight_k_states_descend_as_binary_numbers():
    # an order built independently of enumerate_basis: every n-bit number
    # of weight k, largest first, for every (n, k) under the caps
    for n in range(2, 17):
        by_weight = {}
        for m in range(2**n - 1, -1, -1):
            by_weight.setdefault(m.bit_count(), []).append(format(m, f"0{n}b"))
        for k in range(1, n):
            if comb(n, k) <= WEIGHT_MODE_MAX_DIM:
                assert enumerate_basis(n, k).states == tuple(by_weight[k]), (n, k)


def test_index_of_rejects_bad_strings():
    basis = enumerate_basis(4, 2)
    with pytest.raises(ValueError, match="not an 4-bit string: '10'"):
        basis.index_of("10")
    with pytest.raises(ValueError, match="state '1110' does not have weight 2"):
        basis.index_of("1110")
    with pytest.raises(ValueError, match="not an 4-bit string: '10a0'"):
        basis.index_of("10a0")
    with pytest.raises(ValueError, match="not an 3-bit string: '0111'"):
        enumerate_basis(3).index_of("0111")


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_basis(0)
    with pytest.raises(ValueError):
        enumerate_basis(4, 0)
    with pytest.raises(ValueError):
        enumerate_basis(4, 4)
    with pytest.raises(CapacityError):
        enumerate_basis(15)
    with pytest.raises(CapacityError):
        enumerate_basis(20, 5)  # C(20,5) = 15504 over the cap
    with pytest.raises(CapacityError):
        enumerate_basis(21, 1)


def test_transverse_field_graph_is_hypercube():
    basis = enumerate_basis(3)
    adj = adjacency(build_transverse_field(3).toarray())
    assert len(adj) == 8
    assert all(len(nbrs) == 3 for nbrs in adj)
    assert sum(len(nbrs) for nbrs in adj) // 2 == 12
    # neighbors differ in exactly one bit
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            diff = sum(a != b for a, b in zip(basis.states[i], basis.states[j]))
            assert diff == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_transverse_field_graph_regularity(n):
    adj = adjacency(build_transverse_field(n).toarray())
    assert all(len(nbrs) == n for nbrs in adj)
    assert sum(len(nbrs) for nbrs in adj) // 2 == n * 2 ** (n - 1)


def test_swap_chain_graph_is_path():
    adj = adjacency(build_swap_mixer(3, 1).toarray())  # states 100, 010, 001
    assert adj == [[1], [0, 2], [1]]


def test_single_qubit_graph_is_one_edge():
    adj = adjacency(build_transverse_field(1).toarray())
    assert adj == [[1], [0]]
