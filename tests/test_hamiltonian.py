import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from mingap.basis import enumerate_basis
from mingap.clique import random_instance, toy_example_1
from mingap.hamiltonian import (
    HamiltonianPair,
    ProblemGraph,
    build_clique_target,
    build_diagonal_target,
    build_swap_mixer,
    build_transverse_field,
    clique_pair,
    degeneracy_tolerance,
    interpolate,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y_IM = np.array([[0.0, -1.0], [1.0, 0.0]])  # Y = i * this; YY is real


def _kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def _pauli_swap_mixer(n, pairs):
    """Independent route: -1/2 sum (XX + YY) via explicit tensor products
    on the full space, then restricted to the weight-k rows/columns."""
    dim = 2**n
    h = np.zeros((dim, dim))
    for i, j in pairs:
        ops_x = [np.eye(2)] * n
        ops_x[i] = PAULI_X
        ops_x[j] = PAULI_X
        ops_y = [np.eye(2)] * n
        ops_y[i] = PAULI_Y_IM
        ops_y[j] = PAULI_Y_IM
        # (iY)(iY) = -YY, so YY = -kron of the real factors
        h += -0.5 * (_kron_chain(ops_x) - _kron_chain(ops_y))
    return h


def _pauli_transverse_field(n):
    """Independent route: -sum X_i via explicit tensor products."""
    return -sum(_kron_chain([PAULI_X if j == i else np.eye(2) for j in range(n)])
                for i in range(n))


def _pauli_mixer(n, k, mixer):
    """The Pauli form of ``clique_pair``'s mixer on its basis."""
    if mixer == "transverse_field":
        return _pauli_transverse_field(n)
    pairs = [(i, i + 1) for i in range(n - 1)]
    if mixer == "swap_cycle":
        pairs.append((n - 1, 0))
    idx = [int(bits, 2) for bits in enumerate_basis(n, k).states]
    return _pauli_swap_mixer(n, pairs)[np.ix_(idx, idx)]


# ---------------------------------------------------------------------------
# transverse field


def test_transverse_field_single_qubit():
    h0 = build_transverse_field(1).toarray()
    assert np.array_equal(h0, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    w = np.linalg.eigvalsh(h0)
    assert np.allclose(w, [-1.0, 1.0])


def test_transverse_field_two_entries_per_row():
    h0 = build_transverse_field(2).toarray()
    assert np.all(np.diag(h0) == 0)
    assert np.all(np.sum(h0 == -1.0, axis=1) == 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_transverse_field_ground_level(n):
    w, v = np.linalg.eigh(build_transverse_field(n).toarray())
    assert w[0] == pytest.approx(-n, abs=1e-12)
    if n >= 2:
        assert w[1] - w[0] > 1e-9
    uniform = np.full(2**n, 1.0 / np.sqrt(2**n))
    assert abs(abs(uniform @ v[:, 0]) - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(1, 9))
def test_transverse_field_matches_pauli_form(n):
    assert np.array_equal(build_transverse_field(n).toarray(), _pauli_transverse_field(n))


# ---------------------------------------------------------------------------
# swap mixer


def test_swap_chain_explicit_entries():
    basis = enumerate_basis(3, 1)
    h0 = build_swap_mixer(3, 1).toarray()
    i100, i010, i001 = (basis.index_of(b) for b in ("100", "010", "001"))
    assert h0[i100, i010] == -1.0
    assert h0[i100, i001] == 0.0
    assert np.all(np.diag(h0) == 0.0)


def test_swap_chain_two_sites():
    h0 = build_swap_mixer(2, 1).toarray()
    assert np.array_equal(h0, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert np.allclose(np.linalg.eigvalsh(h0), [-1.0, 1.0])


@pytest.mark.parametrize("n,k,wrap", [(3, 1, False), (4, 2, False), (6, 3, False),
                                      (7, 3, False), (8, 4, False), (8, 1, False),
                                      (3, 1, True), (3, 2, True), (4, 2, True), (5, 2, True),
                                      (6, 5, True), (7, 3, True), (8, 4, True)])
def test_swap_mixer_matches_pauli_form(n, k, wrap):
    restricted = _pauli_mixer(n, k, "swap_cycle" if wrap else "swap_chain")
    assert np.array_equal(build_swap_mixer(n, k, wrap=wrap).toarray(), restricted)


@settings(max_examples=40, deadline=None, database=None)
@given(
    mixer=st.sampled_from(["swap_chain", "swap_cycle", "transverse_field"]),
    data=st.data(),
    seed=st.integers(0, 2**16),
)
def test_mixers_match_the_pauli_form_on_random_instances(mixer, data, seed):
    # through the pair: the mixer the reports solve with is, entry for
    # entry, the Pauli form on its basis, at every weight and either wrap
    n = data.draw(st.integers(3 if mixer == "swap_cycle" else 2, 7), label="n")
    k = data.draw(st.integers(1, n - 1), label="k")
    graph = random_instance(n, k, 0.5, 0.5, 1.5, seed=seed, alpha=0.3).graph
    assert np.array_equal(clique_pair(graph, mixer).h0, _pauli_mixer(n, k, mixer))


def test_swap_mixer_subspace_connected():
    from scipy.sparse.csgraph import connected_components

    count, _ = connected_components(build_swap_mixer(6, 3).toarray() < 0, directed=False)
    assert count == 1


def test_swap_mixer_wrap_needs_three_sites():
    with pytest.raises(ValueError):
        build_swap_mixer(2, 1, wrap=True)


# ---------------------------------------------------------------------------
# clique target


def test_toy_energies_reproduce_closed_forms():
    basis = enumerate_basis(6, 3)
    for alpha in (0.0, 0.5, 2 / 3):
        h1 = build_clique_target(toy_example_1(alpha).graph, basis)
        assert h1[basis.index_of("111000")] == -3 * alpha
        assert h1[basis.index_of("000111")] == 1 - 4.5 * alpha


def test_toy_target_matches_independent_recount():
    graph = toy_example_1(0.5).graph
    basis = enumerate_basis(6, 3)
    h1 = build_clique_target(graph, basis)
    edges = {frozenset(e) for e in graph.edges}
    for idx, bits in enumerate(basis.states):
        nodes = [i + 1 for i, c in enumerate(bits) if c == "1"]
        miss = sum(1 for p in combinations(nodes, 2) if frozenset(p) not in edges)
        wsum = 0.0
        for i in nodes:
            wsum += graph.weights[i - 1]
        assert h1[idx] == miss - 0.5 * wsum


def test_zero_alpha_gives_nonnegative_integers():
    h1 = build_clique_target(toy_example_1(0.0).graph)
    assert np.all(h1 >= 0)
    assert np.array_equal(h1, np.round(h1))


def test_clique_target_on_full_basis():
    graph = toy_example_1(0.0).graph
    basis = enumerate_basis(6)
    h1 = build_clique_target(graph, basis)
    assert h1[basis.index_of("111000")] == 0.0
    assert h1[basis.index_of("000000")] == 0.0
    assert h1[basis.index_of("111111")] == len(list(combinations(range(6), 2))) - 7


# ---------------------------------------------------------------------------
# diagonal target and interpolation


def test_diagonal_target_verbatim():
    basis = enumerate_basis(2)
    energies = [0.0, 1.0, 2.0, 3.0]
    assert np.array_equal(build_diagonal_target(energies, basis), energies)
    permuted = [3.0, 1.0, 0.0, 2.0]
    assert np.array_equal(build_diagonal_target(permuted, basis), permuted)
    with pytest.raises(ValueError):
        build_diagonal_target([0.0, 1.0], basis)


def test_interpolate_endpoints_and_midpoint():
    pair = clique_pair(toy_example_1(0.5).graph)
    assert np.array_equal(interpolate(pair, 0.0), pair.h0)
    assert np.array_equal(interpolate(pair, 1.0), np.diag(pair.h1_diag))
    mid = interpolate(pair, 0.5)
    assert np.allclose(mid, (pair.h0 + np.diag(pair.h1_diag)) / 2.0, atol=0, rtol=0)


def test_interpolate_is_affine():
    pair = clique_pair(toy_example_1(0.5).graph)
    h0, h1 = interpolate(pair, 0.0), interpolate(pair, 1.0)
    for s in (0.125, 0.3, 0.775):
        assert np.allclose(interpolate(pair, s), h0 + s * (h1 - h0), atol=1e-15)


@pytest.mark.parametrize(
    "pair",
    [
        clique_pair(toy_example_1(0.5).graph),
        clique_pair(toy_example_1(0.5).graph, "transverse_field"),
        clique_pair(random_instance(7, 3, 0.5, 0.5, 1.5, seed=4, alpha=0.37).graph, "swap_cycle"),
    ],
)
def test_interpolate_matches_diagonal_index_formula(pair):
    for s in (0.0, 0.1, 1.0 / 3.0, 0.69211855, 1.0):
        h = (1.0 - s) * pair.h0
        h[np.diag_indices_from(h)] += s * pair.h1_diag
        assert np.array_equal(interpolate(pair, s), h)


_DENSE_MIXERS = {
    "swap_chain": lambda graph: build_swap_mixer(graph.n, graph.k).toarray(),
    "swap_cycle": lambda graph: build_swap_mixer(graph.n, graph.k, wrap=True).toarray(),
    "transverse_field": lambda graph: build_transverse_field(graph.n).toarray(),
}


@pytest.mark.parametrize("mixer", sorted(_DENSE_MIXERS))
def test_interpolate_from_csr_equals_the_dense_formula_bit_for_bit(mixer):
    # the pair holds h0 as CSR only; H(s) formed from it has the bits of the
    # dense formula on the builder's dense mixer, at a point and on a stack
    graph = random_instance(7, 3, 0.5, 0.5, 1.5, seed=4, alpha=0.37).graph
    pair = clique_pair(graph, mixer)
    h0 = _DENSE_MIXERS[mixer](graph)
    assert pair.h0.tobytes() == h0.tobytes()

    def dense(s):
        ss = np.asarray(s, dtype=float)
        h = np.multiply.outer(1.0 - ss, h0)
        h.reshape(*ss.shape, -1)[..., :: pair.dim + 1] += np.multiply.outer(ss, pair.h1_diag)
        return h

    for s in (0.0, 0.1, 1.0 / 3.0, 0.69211855, 1.0):
        assert interpolate(pair, s).tobytes() == dense(s).tobytes(), s
    grid = np.linspace(0.0, 1.0, 64)
    assert interpolate(pair, grid).tobytes() == dense(grid).tobytes()


@pytest.mark.parametrize("form", [scipy.sparse.csr_array, scipy.sparse.coo_array])
def test_pair_holds_h0_only_as_csr(form):
    graph = random_instance(7, 3, 0.5, 0.5, 1.5, seed=4, alpha=0.37).graph
    basis = enumerate_basis(7, 3)
    h0, h1 = build_swap_mixer(7, 3).toarray(), build_clique_target(graph, basis)
    pair = HamiltonianPair(basis=basis, h0=h0, h1_diag=h1)
    assert not any(isinstance(x, np.ndarray) and x.ndim == 2 for x in vars(pair).values())
    assert pair.h0.tobytes() == h0.tobytes() and pair.h0 is not pair.h0
    # a sparse h0 makes the same pair
    sparse = HamiltonianPair(basis=basis, h0=form(h0), h1_diag=h1)
    assert sparse.h0.tobytes() == h0.tobytes()
    (a, a1), (b, b1) = pair.csr_terms, sparse.csr_terms
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes() and a1.tobytes() == b1.tobytes()


@pytest.mark.parametrize("form", [np.asarray, scipy.sparse.csr_array, scipy.sparse.coo_array])
def test_pair_validation_of_a_dense_or_sparse_h0(form):
    basis = enumerate_basis(2, 1)
    good = np.array([[0.0, -1.0], [-1.0, 0.0]])
    spoilt = good.copy()
    spoilt[0, 0] = np.nan
    with pytest.raises(ValueError, match=r"^h0 must be exactly symmetric$"):
        HamiltonianPair(basis=basis, h0=form(np.array([[0.0, -1.0], [0.0, 0.0]])),
                        h1_diag=np.zeros(2))
    with pytest.raises(ValueError, match=r"^h0 must be exactly symmetric$"):
        HamiltonianPair(basis=basis, h0=form(spoilt), h1_diag=np.zeros(2))
    with pytest.raises(ValueError, match=r"^h0 off-diagonal entries must be nonpositive$"):
        HamiltonianPair(basis=basis, h0=form(-good), h1_diag=np.zeros(2))
    with pytest.raises(ValueError, match=r"^h0 shape \(3, 3\) does not match basis dim 2$"):
        HamiltonianPair(basis=basis, h0=form(np.zeros((3, 3))), h1_diag=np.zeros(2))
    assert np.array_equal(HamiltonianPair(basis=basis, h0=form(good), h1_diag=np.zeros(2)).h0, good)


def test_interpolate_rejects_out_of_range():
    pair = clique_pair(toy_example_1(0.5).graph)
    for s in (-0.1, 1.1):
        with pytest.raises(ValueError):
            interpolate(pair, s)


# ---------------------------------------------------------------------------
# validation


def test_problem_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        ProblemGraph(3, [(1, 1)], [1, 1, 1], 2, 0.0)
    with pytest.raises(ValueError, match="outside"):
        ProblemGraph(3, [(1, 4)], [1, 1, 1], 2, 0.0)
    with pytest.raises(ValueError, match="weights"):
        ProblemGraph(3, [(1, 2)], [1, 1], 2, 0.0)
    with pytest.raises(ValueError, match="clique size"):
        ProblemGraph(3, [(1, 2)], [1, 1, 1], 3, 0.0)
    with pytest.raises(ValueError, match="alpha"):
        ProblemGraph(3, [(1, 2)], [1, 1, 1], 2, -1.0)
    with pytest.raises(ValueError, match="duplicate"):
        ProblemGraph(3, [(1, 2), (2, 1)], [1, 1, 1], 2, 0.0)


def test_problem_graph_takes_whole_counts_only():
    # 2.5 once ran as k=2; a bool is no count either
    for n, k in ((4, 2.5), (4, True), (4.5, 2), (True, 1), (4, "2"), (4, float("inf"))):
        with pytest.raises(ValueError, match="must be an integer"):
            ProblemGraph(n, [(1, 2)], [1, 1, 1, 1], k, 0.0)
    graph = ProblemGraph(4.0, [(1, 2)], [1, 1, 1, 1], np.int64(3), 0.0)
    assert (graph.n, graph.k) == (4, 3)
    assert type(graph.n) is int and type(graph.k) is int


def test_problem_graph_takes_whole_edge_endpoints_only():
    # (1.5, 2) once stood in the edge set, which no clique reads as an edge
    for edge in ((1.5, 2), (1, True), (1, "2"), (float("nan"), 2)):
        with pytest.raises(ValueError, match="endpoint of edge"):
            ProblemGraph(4, [edge, (1, 3)], [1, 1, 1, 1], 2, 0.5)
    graph = ProblemGraph(4, [(2.0, 1), (np.int64(3), 1)], [1, 1, 1, 1], 2, 0.5)
    assert graph.edges == ((1, 2), (1, 3))
    assert all(type(x) is int for e in graph.edges for x in e)


@pytest.mark.parametrize("weights, alpha", [
    ([1, float("nan"), 1, 1], 0.5),
    ([1, float("inf"), 1, 1], 0.5),
    ([1, 1, -float("inf"), 1], 0.5),
    ([1, True, 1, 1], 0.5),
    ([1, np.True_, 1, 1], 0.5),
    ([1, 1, 1, 1], float("nan")),
    ([1, 1, 1, 1], float("inf")),
    ([1, 1, 1, 1], True),
    ([1, 1, 1, 1], np.float64("nan")),
])
def test_problem_graph_refuses_bools_and_non_finite_reals(weights, alpha):
    with pytest.raises(ValueError, match="weights|alpha"):
        ProblemGraph(4, [(1, 2)], weights, 2, alpha)


def test_problem_graph_keeps_exact_alpha():
    graph = ProblemGraph(4, [(1, 2)], [1, 1, 1, 1], 2, Fraction(2, 3))
    assert graph.alpha == Fraction(2, 3)


@pytest.mark.parametrize("graph", [
    toy_example_1(0.0).graph,  # degenerate levels
    toy_example_1(0.5).graph,
    toy_example_1(Fraction(2, 3)).graph,  # degenerate final ground level
    random_instance(8, 4, 0.5, 0.5, 1.5, seed=1, alpha=0.3).graph,
])
def test_final_levels_match_a_single_linkage_loop(graph):
    """The pair's final levels, built once, against the loop they were
    once computed by: a new level wherever consecutive sorted target
    energies lie more than the degeneracy tolerance apart."""
    pair = clique_pair(graph)
    levels = pair.final_levels
    assert pair.final_levels is levels
    values = pair.h1_diag.tolist()
    tol = degeneracy_tolerance(pair.h1_diag)
    order = sorted(range(len(values)), key=values.__getitem__)
    groups = [[order[0]]]
    for i in order[1:]:
        if values[i] - values[groups[-1][-1]] > tol:
            groups.append([])
        groups[-1].append(i)
    assert levels.members == tuple(tuple(sorted(g)) for g in groups)
    assert levels.energies == tuple(float(np.mean(pair.h1_diag[g])) for g in groups)
    assert (levels.unique_ground_index is None) == (len(groups[0]) > 1)


def test_pair_validation():
    basis = enumerate_basis(2, 1)
    good = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        HamiltonianPair(basis=basis, h0=np.array([[0.0, -1.0], [0.0, 0.0]]),
                        h1_diag=np.zeros(2))
    with pytest.raises(ValueError, match="nonpositive"):
        HamiltonianPair(basis=basis, h0=-good, h1_diag=np.zeros(2))
    with pytest.raises(ValueError, match="length"):
        HamiltonianPair(basis=basis, h0=good, h1_diag=np.zeros(3))


@pytest.mark.parametrize("n, k, mixer", [(13, 6, "transverse_field"), (14, 7, "swap_chain")])
def test_clique_pair_holds_no_dense_array(n, k, mixer):
    # a pair is built in memory linear in its dimension (d = 8192 and 3432;
    # a d x d float64 array alone is 537 and 94 MB there)
    graph = random_instance(n, k, 0.5, 0.5, 1.5, seed=3, alpha=0.3).graph
    tracemalloc.start()
    try:
        pair = clique_pair(graph, mixer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair.dim == (2**n if mixer == "transverse_field" else comb(n, k))
    assert peak < 2048 * pair.dim


def test_clique_pair_mixers():
    graph = toy_example_1(0.5).graph
    assert clique_pair(graph).dim == 20
    assert clique_pair(graph, "swap_cycle").dim == 20
    assert clique_pair(graph, "transverse_field").dim == 64
    with pytest.raises(ValueError):
        clique_pair(graph, "unknown")
