"""Independent brute-force verifiers.

Nothing here consults the greedy balancing step: the expansion oracle
enumerates every half-edge decomposition outright and prices the survivors
with ``math.comb`` and ``math.factorial``, never the evaluator's
``combinat.multinomial``; the string-equation recursion reduces psi
integrals one forgotten point at a time, and the flag certifier compares
pairwise compatibility of strata against an enumeration-based search for a
common coarsening.  Randomized instance generators for fuzzing live here
too, so the check suites and the tests share one source of inputs.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter, namedtuple
from collections.abc import Iterator, Mapping
from functools import lru_cache, partial

from .errors import BudgetExceeded, TooLarge
from .intersect import DecoratedTree, _blocks_meet, _psi_parts, _require_dimension
from .trees import (
    ENUMERATION_LIMIT,
    MarkedSet,
    Split,
    StableTree,
    _families,
    _link_masks,
    _split_table,
    tree_from_splits,
)

EXPANSION_BUDGET = 24
FLAG_LIMIT = 7


def surviving_decompositions(decorated: DecoratedTree) -> list[tuple[list, int]]:
    """All per-edge weight decompositions meeting every vertex dimension.

    Each edge weight k(e) is tried as every ordered pair (a, k(e)-a), the
    parent's half first; a tuple survives when the half-weights plus psi
    weights at each vertex total exactly the vertex dimension.  Returns
    (halves, contribution) pairs, where ``halves`` lists each edge's
    (parent half, child half) in ``tree.edges`` order, the table
    ``BalancedWeighting.halves`` holds.  The contribution is the unsigned
    product of one binomial C(k, a) per edge, by ``math.comb``, and one
    multinomial per vertex, its dimension's factorial over the factorials
    of the halves and psi weights there, by ``math.factorial``.  Balanced
    weightings are unique, so the list is empty or holds the one
    ``weights.balance`` finds.
    """
    _require_dimension(decorated)
    tree = decorated.tree
    k_total = sum(decorated.edge_weight.values())
    if k_total > EXPANSION_BUDGET:
        raise BudgetExceeded(
            f"total edge weight {k_total} exceeds the expansion guard {EXPANSION_BUDGET}"
        )
    ends = tree.ends
    weights = list(decorated.edge_weight.values())
    psi = [[w for _, w in pairs] for pairs in decorated.vertex_psi]
    psi_load = list(map(sum, psi))
    dims = list(tree.dims)
    out = []
    for combo in itertools.product(*(range(k + 1) for k in weights)):
        load = psi_load.copy()
        for (p, c), k, a in zip(ends, weights, combo):
            load[p] += a
            load[c] += k - a
        if load != dims:
            continue
        halves = []
        parts = [here.copy() for here in psi]
        contribution = 1
        for (p, c), k, a in zip(ends, weights, combo):
            halves.append((a, k - a))
            parts[p].append(a)
            parts[c].append(k - a)
            contribution *= math.comb(k, a)
        for dim, here in zip(dims, parts):
            contribution *= math.factorial(dim) // math.prod(map(math.factorial, here))
        out.append((halves, contribution))
    return out


def expansion_eval(decorated: DecoratedTree) -> int:
    """Exact value by full expansion over per-edge decompositions."""
    return _signed_total(decorated, surviving_decompositions(decorated))


def _signed_total(decorated: DecoratedTree, terms: list[tuple[list, int]]) -> int:
    # the expansion's own sign, (-1)^(total edge weight), never the evaluator's
    sign = -1 if sum(decorated.edge_weight.values()) % 2 else 1
    return sign * sum(c for _, c in terms)


def string_eq_psi_integral(n: int, exponents: Mapping[int, int]) -> int:
    """Psi-monomial integral by the point-forgetting recursion.

    Since the exponents sum to n - 3 < n, some marked point always carries
    exponent zero and can be forgotten; doing so trades the integral for a
    sum over the positive exponents, each lowered by one in turn.  The base
    case n = 3 is a single point.  Agrees with the closed multinomial form,
    which the check suites confirm exhaustively.  Checked in order, as
    ``integrate_psi_monomial`` checks: n >= 3 (ValueError), labels in 1..n
    (LabelOutOfRange), exponents >= 0 (ValueError), sum n - 3 (DegreeMismatch).
    """
    return _string_recursion(_psi_parts(n, exponents))


# Bounded: a check suite asks for the same few exponent multisets over and
# over, while the states inside one evaluation live only as long as it.
@lru_cache(maxsize=256)
def _string_recursion(root: tuple[int, ...]) -> int:
    # Depth-first with an explicit stack: a state (the sorted positive
    # exponents on sum + 3 points) is summed once every state it reduces to
    # is known.  Lowering the first k in place keeps a state sorted, and
    # equal exponents give equal terms, so each distinct k is taken once,
    # weighted by how often it occurs.
    memo: dict[tuple[int, ...], int] = {}
    stack = [root]
    while stack:
        exps = stack[-1]
        terms = []
        for k, count in Counter(exps).items():
            i = exps.index(k)
            terms.append((count, exps[:i] + ((k - 1,) if k > 1 else ()) + exps[i + 1 :]))
        todo = [rest for _, rest in terms if rest not in memo]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        memo[exps] = sum(count * memo[rest] for count, rest in terms) if exps else 1
    return memo[root]


class FlagReport(namedtuple("FlagReport", "n pairs_checked discrepancies")):
    """Outcome of comparing compatibility against coarsening search.

    ``discrepancies`` holds the (StableTree, StableTree) pairs on which the
    two sides disagree.
    """

    __slots__ = ()
    __hash__ = None  # compared by value, never used as a key

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def flag_certify(n: int, sample_limit: int | None = None, seed: int = 0) -> FlagReport:
    """Certify that strata meet exactly when their edges are all compatible.

    Runs over unordered pairs (self-pairs included) of strata of positive
    codimension on 1..n, in the order of ``enumerate_stable_trees(n)``.
    For each pair, the edgewise compatibility predicate of
    ``flag_equivalence`` is compared against an independent witness:
    whether the union of the two split systems occurs among the enumerated
    trees.  Since the enumerated systems are closed under subsets, that
    membership test is equivalent to searching for any enumerated
    coarsening containing both.

    Both sides run on block masks: each stratum is its enumerated family
    of masks, and no tree is built unless a pair disagrees.  Each family is
    also encoded once as an int, with bit ``m`` set for each block mask
    ``m``.  On one ground set a split is its block mask, so the union of
    two systems is the OR of their ints, and the witness is that OR's
    membership in the set of enumerated ints.  The pairs that disagree are
    reported as (StableTree, StableTree).

    With ``sample_limit`` set and fewer than the full number of pairs,
    ``sample_limit`` pairs are drawn reproducibly from ``seed``: the same
    pairs, in the same order, as two ``random.Random(seed).randrange(count)``
    calls per pair.  Discrepancies are listed in the order drawn; a
    ``sample_limit`` of 0 checks no pair, and a negative one raises
    ValueError.  Guarded at 4 <= n <= 7.
    """
    if not 4 <= n <= FLAG_LIMIT:
        raise TooLarge(f"flag certification runs for 4 <= n <= {FLAG_LIMIT}, got {n}")
    if sample_limit is not None and sample_limit < 0:
        raise ValueError(f"sample_limit must be >= 0, got {sample_limit}")
    strata = [family for family in _families(n) if family]
    # a family's masks are distinct, so the sum is the OR of the bits
    own = [sum(1 << m for m in family) for family in strata]
    systems = set(own)
    count = len(strata)
    total = count * (count + 1) // 2
    if sample_limit is not None and total > sample_limit:
        pairs: Iterator[tuple[int, int]] = _sampled_pairs(random.Random(seed), count, sample_limit)
        checked = sample_limit
    else:
        pairs = itertools.combinations_with_replacement(range(count), 2)
        checked = total
    discrepancies = []
    for i, j in pairs:
        if _blocks_meet(strata[i], strata[j]) != ((own[i] | own[j]) in systems):
            discrepancies.append((i, j))
    # the trees of the strata in a discrepancy, each built once
    ground = MarkedSet.range(n)
    trees = {i: tree_from_splits(ground, map(_split_table(n).__getitem__, strata[i]))
             for i in {i for pair in discrepancies for i in pair}}
    return FlagReport(n, checked, tuple((trees[i], trees[j]) for i, j in discrepancies))


def _sampled_pairs(rng: random.Random, count: int, limit: int) -> Iterator[tuple[int, int]]:
    # The pairs (rng.randrange(count), rng.randrange(count)) yields, drawn
    # lazily: CPython's randrange(count) for an int count > 0 is
    # _randbelow_with_getrandbits, which draws count.bit_length() bits and
    # rejects values >= count.  Calling getrandbits directly skips the
    # argument checks of two calls per pair.
    getrandbits = rng.getrandbits
    k = count.bit_length()
    for _ in range(limit):
        i = getrandbits(k)
        while i >= count:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= count:
            j = getrandbits(k)
        yield i, j


def compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ordered tuples of ``slots`` non-negative integers summing to ``total``.

    In lexicographic order, one tuple per stars-and-bars placement: the
    running sums before each of the last ``slots - 1`` entries form a
    non-decreasing sequence in 0..total, and the tuple is that sequence's
    differences.  Sequences and tuples are in lexicographic order together.
    A negative total has none.
    """
    if slots == 0 or total < 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), slots - 1):
        yield tuple(map(operator.sub, cuts + (total,), (0,) + cuts))


def random_stable_tree(n: int, rng: random.Random) -> StableTree:
    """Random stable tree on 1..n grown by sequential leaf attachment.

    Each new leaf lands on an existing internal vertex, subdivides an
    internal edge, or splits off along a leaf edge; every stable tree shape
    arises with positive probability.  Up to ``ENUMERATION_LIMIT`` labels,
    each edge's Split comes from the one table of the splits of 1..n that
    ``enumerate_stable_trees`` reads too, so draws share one Split per
    block; above it each draw builds its own Splits.
    """
    ground = MarkedSet.range(n)
    leaf_node = [0, 0, 0]  # label i's node at index i - 1
    links: list[tuple[int, int]] = []
    for leaf in range(4, n + 1):
        # one draw over the spots: a node, then a link, then a leaf 1..leaf-1;
        # the links join len(links) + 1 nodes, so w is also the next node
        w = len(links) + 1
        spot = rng.randrange(w + len(links) + leaf - 1)
        if spot < w:
            leaf_node.append(spot)
            continue
        spot -= w
        if spot < len(links):
            a, b = links[spot]
            links[spot] = (a, w)
            links.append((w, b))
        else:
            which = spot - len(links)
            links.append((leaf_node[which], w))
            leaf_node[which] = w
        leaf_node.append(w)
    split = _split_table(n).__getitem__ if n <= ENUMERATION_LIMIT else partial(Split, ground)
    return tree_from_splits(ground, map(split, _link_masks(links, leaf_node)))


def random_decorated_tree(n: int, rng: random.Random) -> DecoratedTree:
    """Random decorated tree satisfying the dimension-balance identity.

    The stratum dimension is split between edge weights and psi weights on
    arbitrary leaves, one unit at a time.  A tree with no edges puts it all
    on psi weights; otherwise at least half the draws put all of it on
    edges, so a caller that wants pure divisor products skips the others.
    The tree, Splits included, is drawn by ``random_stable_tree(n, rng)``.
    """
    tree = random_stable_tree(n, rng)
    budget = tree.dim
    edges = tree.edges
    psi_budget = 0
    if not edges:
        psi_budget = budget
    elif rng.random() < 0.5:
        psi_budget = rng.randint(0, budget)
    weights = {e: 0 for e in edges}
    for _ in range(budget - psi_budget):
        weights[edges[rng.randrange(len(edges))]] += 1
    psi: dict[int, int] = {}
    labels = tree.ground.labels
    for _ in range(psi_budget):
        lab = labels[rng.randrange(len(labels))]
        psi[lab] = psi.get(lab, 0) + 1
    return DecoratedTree(tree, weights, psi)
