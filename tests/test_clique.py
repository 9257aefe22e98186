from fractions import Fraction
from functools import reduce
from math import comb
from operator import add

import numpy as np
import pytest

from mingap.basis import CapacityError, enumerate_basis
from mingap.clique import (
    CliqueInstance,
    brute_force,
    random_instance,
    toy_example_1,
    toy_example_2,
)
from mingap.hamiltonian import ProblemGraph, build_clique_target, clique_pair


def test_toy1_triangle_wins_below_threshold():
    inst = toy_example_1(0.5)
    assert inst.expected == (((1, 2, 3),), -1.5)
    result = brute_force(inst)
    assert result.best_subsets == ((1, 2, 3),)
    assert result.best_energy == -1.5
    # second-best is the heavy triple
    assert result.table[1][0] == (4, 5, 6)
    assert result.table[1][1] == 1 - 4.5 * 0.5


def test_toy1_heavy_triple_wins_above_threshold():
    inst = toy_example_1(0.7)
    assert inst.expected[0] == ((4, 5, 6),)
    result = brute_force(inst)
    assert result.best_subsets == ((4, 5, 6),)
    assert result.best_energy == pytest.approx(1 - 4.5 * 0.7, abs=0)


def test_toy1_exact_degeneracy_at_two_thirds():
    inst = toy_example_1(Fraction(2, 3))
    result = brute_force(inst)
    assert result.best_subsets == ((1, 2, 3), (4, 5, 6))
    assert result.best_energy == -2.0
    assert inst.expected == (((1, 2, 3), (4, 5, 6)), -2.0)


@pytest.mark.parametrize("alpha", [0.5, 0.6])
def test_toy1_unique_minimum_below_threshold(alpha):
    result = brute_force(toy_example_1(alpha))
    assert len(result.best_subsets) == 1


def test_toy1_alpha_zero_degeneracy_structure():
    result = brute_force(toy_example_1(0.0))
    assert result.best_subsets == ((1, 2, 3),)
    assert result.best_energy == 0.0
    assert sum(1 for _, e in result.table if e == 1.0) == 8


def test_toy2_is_a_relabelling():
    inst2 = toy_example_2(0.2)
    assert len(inst2.graph.edges) == 7
    assert set(inst2.graph.edges) == {(2, 3), (1, 3), (1, 2), (3, 5), (2, 6), (5, 6), (4, 5)}
    result = brute_force(inst2)
    assert result.best_subsets == ((1, 2, 3),)
    assert result.best_energy == 0 - 0.2 * 3.0


@pytest.mark.parametrize("alpha", [0.0, 0.2, 0.5, Fraction(2, 3)])
def test_toy2_spectrum_matches_toy1(alpha):
    h1_a = build_clique_target(toy_example_1(alpha).graph)
    h1_b = build_clique_target(toy_example_2(alpha).graph)
    assert np.array_equal(np.sort(h1_a), np.sort(h1_b))


def test_fixture_expectations_match_oracle():
    for builder in (toy_example_1, toy_example_2):
        for alpha in (0.0, 0.3, 0.5, Fraction(2, 3), 0.8):
            inst = builder(alpha)
            result = brute_force(inst)
            assert result.best_subsets == inst.expected[0]
            assert result.best_energy == inst.expected[1]


def test_random_complete_graph():
    inst = random_instance(6, 3, 1.0, 0.5, 1.5, seed=3, alpha=1.0)
    assert len(inst.graph.edges) == comb(6, 2)
    result = brute_force(inst)
    top3 = tuple(sorted(np.argsort(inst.graph.weights)[-3:] + 1))
    assert result.best_subsets == (top3,)


def test_random_empty_graph():
    inst = random_instance(6, 3, 0.0, 1.0, 1.0, seed=3, alpha=0.0)
    assert inst.graph.edges == ()
    result = brute_force(inst)
    assert all(e == comb(3, 2) for _, e in result.table)


def test_random_instance_deterministic():
    a = random_instance(7, 3, 0.5, 0.5, 1.5, seed=11, alpha=0.3)
    b = random_instance(7, 3, 0.5, 0.5, 1.5, seed=11, alpha=0.3)
    assert a.graph == b.graph
    c = random_instance(7, 3, 0.5, 0.5, 1.5, seed=12, alpha=0.3)
    assert c.graph != a.graph


def test_random_instance_validation():
    with pytest.raises(ValueError):
        random_instance(6, 3, 1.5, 0.0, 1.0, seed=0)
    with pytest.raises(ValueError):
        random_instance(6, 3, 0.5, 2.0, 1.0, seed=0)


def test_oracle_matches_target_diagonal():
    for seed in range(12):
        n = 5 + seed % 4
        k = 2 + seed % 2
        inst = random_instance(n, k, 0.5, 0.5, 2.0, seed=seed, alpha=0.4)
        basis = enumerate_basis(n, k)
        h1 = build_clique_target(inst.graph, basis)
        result = brute_force(inst)
        for subset, energy in result.table:
            bits = "".join("1" if i + 1 in subset else "0" for i in range(n))
            assert h1[basis.index_of(bits)] == energy
        assert result.best_energy == min(result.table, key=lambda r: r[1])[1]


@pytest.mark.parametrize("n, seed", [(4, 0), (6, 1), (7, 2), (8, 3)])
def test_oracle_matches_the_full_basis_target_at_every_weight(n, seed):
    # the transverse-field pair evaluates the target on every bitstring: at
    # each weight k it is the oracle's table, bit for bit
    graph = random_instance(n, 2, 0.5, 0.5, 2.0, seed=seed, alpha=0.37).graph
    basis, h1 = enumerate_basis(n), clique_pair(graph, "transverse_field").h1_diag
    for k in range(1, n):
        weighted = ProblemGraph(n, graph.edges, graph.weights, k, graph.alpha)
        table = brute_force(CliqueInstance(graph=weighted, description="")).table
        assert len(table) == comb(n, k)
        for subset, energy in table:
            bits = "".join("1" if i + 1 in subset else "0" for i in range(n))
            assert h1[basis.index_of(bits)].tobytes() == np.float64(energy).tobytes()
    assert h1[0].tobytes() == np.float64(0.0).tobytes()
    all_ones = comb(n, 2) - len(graph.edges) - 0.37 * reduce(add, graph.weights, 0.0)
    assert h1[-1].tobytes() == np.float64(all_ones).tobytes()


def test_brute_force_capacity():
    inst = random_instance(12, 6, 0.5, 0.5, 1.5, seed=0)
    big = random_instance(30, 15, 0.0, 1.0, 1.0, seed=0)
    with pytest.raises(CapacityError):
        brute_force(big)
    assert brute_force(inst).best_subsets  # under the cap still works
