"""Problem instances: bundled fixtures, a seeded random generator, and the
exhaustive classical solver.

The solver enumerates node subsets directly and never touches the
Hamiltonian encoding, so it doubles as an independent check of the
diagonal target.  Subset ordering, minima and ties are decided in exact
rational arithmetic (every float is an exact rational, so this is always
available); reported float energies use the same pinned evaluation order
as the target builder and therefore match it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from numbers import Rational

import numpy as np

from .basis import CapacityError
from .hamiltonian import ProblemGraph

BRUTE_FORCE_MAX_SUBSETS = 10**6

# Six-node, seven-edge example: a triangle on {1,2,3} attached by the path
# 1-6-5-2, with node 4 pendant on 6.  Weights favour {4,5,6}, so the ground
# state flips from the triangle to {4,5,6} as alpha crosses 2/3 (the exact
# degeneracy point; the fixture test pins it).
_TOY_EDGES = ((1, 2), (1, 3), (2, 3), (1, 6), (2, 5), (5, 6), (4, 6))
_TOY_WEIGHTS = (1.0, 1.0, 1.0, 1.5, 1.5, 1.5)
_TOY_SWAP = {1: 3, 3: 1, 5: 6, 6: 5}  # relabelling that produces the second fixture


@dataclass(frozen=True)
class CliqueInstance:
    """A problem graph plus, for fixtures, the known optimum."""

    graph: ProblemGraph
    description: str
    expected: tuple[tuple[tuple[int, ...], ...], float] | None = None


def _exact_alpha(alpha) -> Fraction:
    if isinstance(alpha, Rational):
        return Fraction(alpha)
    return Fraction(float(alpha))


def _toy_expected(alpha):
    """Optimum of the bundled fixtures: triangle energy -3*alpha versus
    {4,5,6} at 1 - 4.5*alpha, compared exactly; the reported energy uses
    the same float pipeline as the target builder."""
    a = _exact_alpha(alpha)
    tri, alt = -3 * a, 1 - Fraction(9, 2) * a
    tri_value = 0 - float(alpha) * 3.0
    alt_value = 1 - float(alpha) * 4.5
    if tri < alt:
        return ((1, 2, 3),), tri_value
    if alt < tri:
        return ((4, 5, 6),), alt_value
    return ((1, 2, 3), (4, 5, 6)), tri_value


def toy_example_1(alpha) -> CliqueInstance:
    """First bundled fixture: the chain-linked triangle above."""
    graph = ProblemGraph(n=6, edges=_TOY_EDGES, weights=_TOY_WEIGHTS, k=3, alpha=alpha)
    subsets, energy = _toy_expected(alpha)
    return CliqueInstance(
        graph=graph,
        description="six-node triangle-plus-path instance",
        expected=(subsets, energy),
    )


def toy_example_2(alpha) -> CliqueInstance:
    """Second bundled fixture: the same structure with nodes 1/3 and 5/6
    relabelled (weights are symmetric under the swap, so the spectrum of
    the target is unchanged while the mixer sees a different layout)."""
    edges = tuple(
        (min(_TOY_SWAP.get(i, i), _TOY_SWAP.get(j, j)),
         max(_TOY_SWAP.get(i, i), _TOY_SWAP.get(j, j)))
        for i, j in _TOY_EDGES
    )
    graph = ProblemGraph(n=6, edges=edges, weights=_TOY_WEIGHTS, k=3, alpha=alpha)
    subsets, energy = _toy_expected(alpha)
    return CliqueInstance(
        graph=graph,
        description="relabelled six-node triangle-plus-path instance",
        expected=(subsets, energy),
    )


def random_instance(
    n: int,
    k: int,
    edge_probability: float,
    weight_low: float,
    weight_high: float,
    seed: int,
    alpha: float = 0.0,
) -> CliqueInstance:
    """Erdos-Renyi G(n, p) instance with independent uniform weights.

    Deterministic per seed: a fresh PCG64 generator draws one uniform per
    node pair in ascending (i, j) order to decide edges, then n uniforms
    for the weights in node order.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_probability}")
    if weight_low > weight_high:
        raise ValueError(f"weight range is empty: [{weight_low}, {weight_high}]")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < edge_probability:
                edges.append((i, j))
    span = weight_high - weight_low
    weights = tuple(weight_low + span * rng.random() for _ in range(n))
    graph = ProblemGraph(n=n, edges=tuple(edges), weights=weights, k=k, alpha=alpha)
    return CliqueInstance(
        graph=graph,
        description=f"random G({n},{edge_probability}) instance, seed {seed}",
    )


@dataclass(frozen=True)
class BruteForceResult:
    """Exhaustive evaluation of every k-subset.

    ``table`` lists (subset, energy) for all subsets, ascending by exact
    energy (ties broken by subset); ``best_subsets`` holds every subset
    tied at the exact minimum.
    """

    best_subsets: tuple[tuple[int, ...], ...]
    best_energy: float
    table: tuple[tuple[tuple[int, ...], float], ...]


def brute_force(instance: CliqueInstance) -> BruteForceResult:
    """Evaluate missing-edge-count minus weighted node sum over all
    k-subsets of the instance graph."""
    graph = instance.graph
    n, k = graph.n, graph.k
    if comb(n, k) > BRUTE_FORCE_MAX_SUBSETS:
        raise CapacityError(
            f"C({n},{k})={comb(n, k)} subsets exceed the solver cap of "
            f"{BRUTE_FORCE_MAX_SUBSETS}"
        )
    edge_set = {frozenset(e) for e in graph.edges}
    alpha_exact = _exact_alpha(graph.alpha)
    alpha_float = float(graph.alpha)
    w_exact = [Fraction(w) for w in graph.weights]

    rows = []
    for subset in combinations(range(1, n + 1), k):
        missing = sum(
            1 for pair in combinations(subset, 2) if frozenset(pair) not in edge_set
        )
        exact = Fraction(missing) - alpha_exact * sum(w_exact[i - 1] for i in subset)
        wsum = 0.0
        for i in subset:
            wsum += graph.weights[i - 1]
        rows.append((exact, subset, missing - alpha_float * wsum))

    rows.sort(key=lambda r: (r[0], r[1]))
    best_exact = rows[0][0]
    best = tuple(subset for exact, subset, _ in rows if exact == best_exact)
    return BruteForceResult(
        best_subsets=best,
        best_energy=rows[0][2],
        table=tuple((subset, value) for _, subset, value in rows),
    )
