"""Balanced half-edge weightings and the closed evaluation they yield.

A decorated tree evaluates to zero unless each edge weight k(e) splits as
k(v,e) + k(v',e) so that the half-weights at every vertex, together with
its psi weights, total exactly the vertex dimension.  Such a decomposition
is unique when it exists and is found greedily by peeling vertices with a
single unresolved edge.  The value is then a sign times one multinomial
coefficient per edge and per vertex.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from .combinat import factorial, multinomial
from .errors import DegreeMismatch, DimensionUnbalanced, NoBalanceGiven
from .intersect import DecoratedTree
from .trees import Split


@dataclass
class BalancedWeighting:
    """The unique half-edge weight decomposition, keyed by (vertex, edge)."""

    decorated: DecoratedTree
    half_weight: dict[tuple[int, Split], int]

    def at(self, v: int, e: Split) -> int:
        return self.half_weight[(v, e)]


@dataclass
class EvalResult:
    """Outcome of an evaluation.

    value == sign * product of all factors when a weighting is present;
    value == 0 otherwise, with ``reason`` telling whether the strata do not
    meet ("empty") or the weights do not balance ("no_balance").
    """

    value: int
    sign: int
    edge_factors: tuple[tuple[Split, int], ...]
    vertex_factors: tuple[tuple[int, int], ...]
    weighting: Optional[BalancedWeighting]
    reason: str

    @classmethod
    def empty_intersection(cls) -> "EvalResult":
        return cls(0, 1, (), (), None, "empty")


def balance(decorated: DecoratedTree, trace: list | None = None) -> Optional[BalancedWeighting]:
    """Find the balanced weighting, or None when no valid one exists.

    Peels greedily: any vertex with exactly one unresolved edge must send
    its entire residual dimension (vertex dimension minus psi weights minus
    already-fixed half-weights) down that edge.  The lowest-numbered such
    vertex is peeled first.  A negative assignment on either end kills the
    weighting.  ``trace``, if given, collects the peel steps as (vertex,
    edge, near half, far half) tuples.

    Raises DimensionUnbalanced when edge plus psi weights do not sum to the
    total vertex dimension, since the question is ill-posed then.
    """
    tree = decorated.tree
    supplied = decorated.weight_total
    if supplied != tree.dim:
        raise DimensionUnbalanced(
            f"edge weights + psi weights = {supplied}, but the stratum has dimension {tree.dim}"
        )
    residual = [
        decorated.vertex_dim(v) - sum(w for _, w in decorated.psi_at(v))
        for v in tree.vertices
    ]
    if any(r < 0 for r in residual):
        return None

    pending = [set(tree.edges_at(v)) for v in tree.vertices]
    # a heap (ascending, so already heap-ordered) of the unpeeled vertices
    # with exactly one unresolved edge; a tree on V vertices takes V - 1 peels
    ready = [v for v in tree.vertices if len(pending[v]) == 1]
    half: dict[tuple[int, Split], int] = {}
    last = 0
    for _ in range(tree.num_vertices - 1):
        v = heapq.heappop(ready)
        e = pending[v].pop()
        p, c = tree.edge_ends(e)
        other = c if v == p else p
        near = residual[v]
        far = decorated.edge_weight[e] - near
        if trace is not None:
            trace.append((v, e, near, far))
        if near < 0 or far < 0:
            return None
        half[(v, e)] = near
        half[(other, e)] = far
        residual[other] -= far
        pending[other].discard(e)
        if len(pending[other]) == 1:
            heapq.heappush(ready, other)
        last = other

    if residual[last] != 0:
        return None
    return BalancedWeighting(decorated, half)


def evaluate(decorated: DecoratedTree) -> EvalResult:
    """Evaluate a decorated tree to an exact integer.

    Zero (reason "no_balance") when no balanced weighting exists.
    Otherwise the sign is (-1) to the sum of edge weights, each edge
    contributes the binomial of its weight into the two halves, and each
    vertex contributes the multinomial of its dimension into the incident
    half-weights and psi weights.
    """
    weighting = balance(decorated)
    edge_sum = sum(decorated.edge_weight.values())
    sign = -1 if edge_sum % 2 else 1
    if weighting is None:
        return EvalResult(0, sign, (), (), None, "no_balance")

    tree = decorated.tree
    edge_factors = []
    for e in tree.edges:
        p, c = tree.edge_ends(e)
        k = decorated.edge_weight[e]
        edge_factors.append((e, multinomial(k, (weighting.at(p, e), weighting.at(c, e)))))
    vertex_factors = []
    for v in tree.vertices:
        parts = [weighting.at(v, e) for e in tree.edges_at(v)]
        parts += [w for _, w in decorated.psi_at(v)]
        vertex_factors.append((v, multinomial(decorated.vertex_dim(v), parts)))

    value = sign
    for _, f in edge_factors:
        value *= f
    for _, f in vertex_factors:
        value *= f
    return EvalResult(value, sign, tuple(edge_factors), tuple(vertex_factors), weighting, "ok")


def evaluate_ratio(decorated: DecoratedTree) -> int:
    """The same value as evaluate(), computed as one ratio of factorials.

    Numerator: vertex-dimension factorials times edge-weight factorials.
    Denominator: each half-weight factorial squared (it shows up in one
    edge and one vertex coefficient) times each psi-weight factorial once.
    The ratio must come out integral, and that is checked rather than
    assumed.

    Raises NoBalanceGiven when no balanced weighting exists.
    """
    weighting = balance(decorated)
    if weighting is None:
        raise NoBalanceGiven("no balanced weighting exists; the product is 0")
    tree = decorated.tree
    numerator = 1
    for v in tree.vertices:
        numerator *= factorial(decorated.vertex_dim(v))
    for e in tree.splits:
        numerator *= factorial(decorated.edge_weight[e])
    denominator = 1
    for h in weighting.half_weight.values():
        denominator *= factorial(h) ** 2
    for w in decorated.psi_weight.values():
        denominator *= factorial(w)
    if numerator % denominator:
        raise ArithmeticError(
            f"{numerator}/{denominator} is not an integer; the ratio form is broken"
        )
    edge_sum = sum(decorated.edge_weight.values())
    sign = -1 if edge_sum % 2 else 1
    return sign * (numerator // denominator)


def integrate_psi_monomial(n: int, exponents: Mapping[int, int]) -> int:
    """Top-degree psi-monomial integral on the n-pointed space.

    Equals the multinomial coefficient (n-3; k_1, ..., k_n).  The exponents
    must sum to n - 3, else DegreeMismatch.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 marked points, got {n}")
    total = sum(exponents.values())
    if total != n - 3:
        raise DegreeMismatch(f"psi degrees sum to {total}, need n - 3 = {n - 3}")
    return multinomial(n - 3, tuple(exponents.values()))
