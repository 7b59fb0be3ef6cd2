"""Balanced half-edge weightings and the closed evaluation they yield.

A decorated tree evaluates to zero unless each edge weight k(e) splits as
k(v,e) + k(v',e) so that the half-weights at every vertex, together with
its psi weights, total exactly the vertex dimension.  Such a decomposition
is unique when it exists and is found greedily by peeling vertices with a
single unresolved edge.  The value is then a sign times one multinomial
coefficient per edge and per vertex.
"""

from __future__ import annotations

import collections
import heapq
import math
from collections.abc import Mapping

from .combinat import factorial, multinomial
from .errors import DegreeMismatch, LabelOutOfRange, NoBalanceGiven
from .intersect import DecoratedTree, _require_dimension


class BalancedWeighting(collections.namedtuple("BalancedWeighting", "decorated halves")):
    """The unique half-edge weight decomposition of a decorated tree.

    ``halves`` holds each edge's (parent half, child half) in
    ``tree.edges`` order, so zipping it with ``tree.ends`` pairs each half
    with the vertex it sits at.
    """

    __slots__ = ()


class EvalResult(collections.namedtuple(
        "EvalResult", "value sign edge_factors vertex_factors weighting reason")):
    """Outcome of an evaluation.

    value == sign * product of all factors when a weighting is present;
    value == 0 otherwise, with ``reason`` telling whether the strata do not
    meet ("empty") or the weights do not balance ("no_balance").
    ``edge_factors`` holds each edge's binomial in ``tree.edges`` order and
    ``vertex_factors`` each vertex's multinomial in vertex order; both are
    empty without a weighting.  ``weighting`` is a BalancedWeighting or
    None.
    """

    __slots__ = ()
    __hash__ = None  # a weighting holds lists, so no result hashes

    @classmethod
    def empty_intersection(cls) -> "EvalResult":
        return cls(0, 1, (), (), None, "empty")


def balance(decorated: DecoratedTree, trace: list | None = None) -> BalancedWeighting | None:
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
    _require_dimension(decorated)
    tree = decorated.tree
    residual = list(tree.dims)
    for v, pairs in enumerate(decorated.vertex_psi):
        if pairs:
            residual[v] -= sum(w for _, w in pairs)
    if min(residual) < 0:
        return None

    # per vertex, the number of unresolved edges and the XOR of their
    # indices in tree.edges: at a count of 1 the XOR is the edge left
    size = tree.num_vertices
    ends = tree.ends
    count = [0] * size
    xor = [0] * size
    for i, (p, c) in enumerate(ends):
        count[p] += 1
        count[c] += 1
        xor[p] ^= i
        xor[c] ^= i
    weights = list(decorated.edge_weight.values())
    # a heap (ascending, so already heap-ordered) of the unpeeled vertices
    # with exactly one unresolved edge; a tree on V vertices takes V - 1 peels
    ready = [v for v in range(size) if count[v] == 1]
    halves: list = [None] * len(ends)
    last = 0
    for _ in range(size - 1):
        v = heapq.heappop(ready)
        i = xor[v]
        p, c = ends[i]
        near = residual[v]
        far = weights[i] - near
        if trace is not None:
            trace.append((v, tree.edges[i], near, far))
        if near < 0 or far < 0:
            return None
        if v == p:
            other = c
            halves[i] = (near, far)
        else:
            other = p
            halves[i] = (far, near)
        residual[other] -= far
        count[other] -= 1
        xor[other] ^= i
        if count[other] == 1:
            heapq.heappush(ready, other)
        last = other

    # the residuals start out summing to the total edge weight, and each
    # peel takes exactly its edge's weight off that sum, so the last is 0
    assert residual[last] == 0, "the last vertex of the peel has a residual"
    return BalancedWeighting(decorated, halves)


def evaluate(decorated: DecoratedTree) -> EvalResult:
    """Evaluate a decorated tree to an exact integer.

    Zero (reason "no_balance") when no balanced weighting exists.
    Otherwise the sign is (-1) to the sum of edge weights, each edge
    contributes the binomial of its weight into the two halves, and each
    vertex contributes the multinomial of its dimension into its psi
    weights and the halves at it, which ``tree.ends`` places.
    """
    weighting = balance(decorated)
    edge_sum = sum(decorated.edge_weight.values())
    sign = -1 if edge_sum % 2 else 1
    if weighting is None:
        return EvalResult(0, sign, (), (), None, "no_balance")

    tree = decorated.tree
    edge_factors = tuple([
        math.comb(k, hp) for k, (hp, _) in zip(decorated.edge_weight.values(), weighting.halves)
    ])
    parts = [[w for _, w in pairs] if pairs else [] for pairs in decorated.vertex_psi]
    for (p, c), (hp, hc) in zip(tree.ends, weighting.halves):
        parts[p].append(hp)
        parts[c].append(hc)
    vertex_factors = tuple(map(multinomial, tree.dims, parts))

    value = sign
    for f in edge_factors:
        value *= f
    for f in vertex_factors:
        value *= f
    return EvalResult(value, sign, edge_factors, vertex_factors, weighting, "ok")


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
    return _ratio(weighting)


def _ratio(weighting: BalancedWeighting) -> int:
    # evaluate_ratio over a weighting already found, so a caller holding
    # evaluate()'s weighting checks the ratio without balancing again
    decorated = weighting.decorated
    numerator = 1
    for dim in decorated.tree.dims:
        numerator *= factorial(dim)
    for k in decorated.edge_weight.values():
        numerator *= factorial(k)
    denominator = 1
    for hp, hc in weighting.halves:
        denominator *= (factorial(hp) * factorial(hc)) ** 2
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

    Equals the multinomial coefficient (n-3; k_1, ..., k_n).  A label outside
    1..n raises LabelOutOfRange, and the exponents must sum to n - 3, else
    DegreeMismatch.
    """
    if n < 3:
        raise ValueError(f"need n >= 3 marked points, got {n}")
    for lab in exponents:
        if not 0 < lab <= n:
            raise LabelOutOfRange(f"label {lab} is not in 1..{n}")
    total = sum(exponents.values())
    if total != n - 3:
        raise DegreeMismatch(f"psi degrees sum to {total}, need n - 3 = {n - 3}")
    return multinomial(n - 3, tuple(exponents.values()))
