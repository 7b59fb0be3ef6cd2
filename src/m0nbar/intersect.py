"""Meets of boundary strata.

Covers the compatibility predicate on divisors, the blue/red edge-coloring
procedure that inserts a divisor into a stable tree constructively,
intersections of whole collections of strata, and the conversion of a
dimension-zero product of divisor and psi powers into a decorated tree
ready for evaluation.

An empty intersection is a legitimate answer (the product is zero), so it
is reported through the EMPTY sentinel rather than an exception.
"""

from __future__ import annotations

import collections
import operator
from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    DegreeMismatch,
    DimensionUnbalanced,
    EdgeConditionFails,
    GroundMismatch,
    IncompatibleSplits,
    NotInternalEdge,
)
from .trees import (
    MarkedSet,
    Split,
    StableTree,
    _link_masks,
    _require_labels,
    _same_ground,
    _tree_of_masks,
    tree_from_splits,
)

BLUE = "blue"
RED = "red"


class _EmptyIntersection:
    """The type of EMPTY, which marks an intersection empty as a variety."""

    def __reduce__(self):
        # copy, deepcopy and pickle hand back the module's EMPTY itself
        return "EMPTY"

    def __repr__(self):
        return "Empty"

    def __bool__(self):
        return False


EMPTY = _EmptyIntersection()

MeetResult = StableTree | _EmptyIntersection


def compatible(s1: Split, s2: Split) -> bool:
    """True iff the two divisors meet.

    Holds exactly when a block of one contains, or is contained in, a block
    of the other; equivalently, when some pair of opposite sides is
    disjoint.  Canonical blocks avoid the smallest label, so this is the
    nested-or-disjoint test ``_blocks_meet`` makes on the two block masks.
    """
    _same_ground("splits", s1.ground, s2.ground)
    return _blocks_meet((s1.block_mask,), (s2.block_mask,))


class Coloring(collections.namedtuple("Coloring", "tree edge_colors leaf_colors split_vertex")):
    """Blue/red classification of a tree against a divisor.

    Blue marks everything on the side of the divisor's canonical block;
    red marks the other side.  split_vertex is the vertex at which every
    branch is monochromatic, i.e. where the divisor either inserts a new
    edge or already matches an existing one.  ``edge_colors`` maps each
    edge (a Split) and ``leaf_colors`` each label to BLUE or RED.
    """

    __slots__ = ()


def color_for_divisor(tree: StableTree, divisor: Split) -> Coloring:
    """Color the tree's edges and leaves against a compatible divisor.

    An internal edge is blue when one of its sides sits inside the
    divisor's canonical block, red when one of its sides contains that
    block; the divisor itself, if already an edge, is colored red.  A leaf
    is blue when it belongs to the block.  The split vertex is the child
    end of the smallest edge whose block contains the divisor's block, or
    vertex 0 when no edge's block does: the vertex just below the first red
    edge on the walk from a blue leaf toward vertex 0.  Each edge is sorted
    once, by the meet of its block with the divisor's: it contains the
    divisor's block, lies inside it, crosses it or is disjoint from it.

    Raises EdgeConditionFails naming a witness edge when the divisor is
    incompatible with the tree.
    """
    _same_ground("tree and divisor", tree.ground, divisor.ground)
    x = divisor.block_mask
    edge_colors: dict[Split, str] = {}
    vertex = 0
    for e, (_, child) in zip(tree.edges, tree.ends):
        b = e.block_mask
        c = b & x
        if c == x:
            # the edge's block contains the divisor's
            edge_colors[e] = RED
            # the blocks containing x form a chain, numbered depth-first
            # from vertex 0, so the smallest has the largest child end
            vertex = max(vertex, child)
        elif c == b:
            edge_colors[e] = BLUE  # inside the divisor's block
        elif c:
            raise EdgeConditionFails(e)  # the blocks cross
        else:
            edge_colors[e] = RED  # disjoint from it
    leaf_colors = dict.fromkeys(tree.ground.labels, RED)
    leaf_colors.update(dict.fromkeys(divisor.block, BLUE))
    return Coloring(tree, edge_colors, leaf_colors, vertex)


def apply_coloring(coloring: Coloring) -> StableTree:
    """Carry out the insertion a coloring encodes.

    When exactly one branch at the split vertex differs in color, the
    divisor is already an edge and the tree is returned unchanged.
    Otherwise the vertex is doubled: blue branches stay, red branches move
    across a fresh edge.  The result's block masks are read back off the
    rebuilt incidence structure by traversal, which keeps this path
    independent of plain split-set insertion, and ``_tree_of_masks`` builds
    the tree from them: up to the enumeration guard its Splits are the
    shared table's, as in the enumerated and randomly drawn trees.
    """
    tree = coloring.tree
    v = coloring.split_vertex
    colors = [coloring.edge_colors[e] for e in tree.edges_at(v)]
    colors += [coloring.leaf_colors[lab] for lab in tree.vertex_leaves[v]]
    blues = colors.count(BLUE)
    reds = len(colors) - blues
    if blues == 1 or reds == 1:
        return tree

    fresh = tree.num_vertices
    links: list[tuple[int, int]] = []
    for e, (p, c) in zip(tree.edges, tree.ends):
        if p == v and coloring.edge_colors[e] == RED:
            p = fresh
        elif c == v and coloring.edge_colors[e] == RED:
            c = fresh
        links.append((p, c))
    links.append((v, fresh))
    leaf_node = tree._leaf_at.copy()
    for lab in tree.vertex_leaves[v]:
        if coloring.leaf_colors[lab] == RED:
            leaf_node[lab - 1] = fresh
    return _tree_of_masks(tree.ground, _link_masks(links, leaf_node))


def _meet(ground: MarkedSet, splits: Iterable[Split]) -> MeetResult:
    try:
        return tree_from_splits(ground, splits)
    except IncompatibleSplits:
        return EMPTY


def meet_divisor(tree: StableTree, divisor: Split) -> MeetResult:
    """Intersect a stratum with a divisor.

    EMPTY when tree_from_splits finds an edge of the tree that crosses the
    divisor; otherwise the stratum whose split system is the union (the
    tree itself when the divisor is already one of its edges).
    """
    _same_ground("tree and divisor", tree.ground, divisor.ground)
    if divisor in tree.edges:
        return tree
    return _meet(tree.ground, (*tree.edges, divisor))


def meet_all(trees: Sequence[StableTree]) -> MeetResult:
    """Intersect a collection of strata.

    EMPTY as soon as any two splits across the union are incompatible;
    otherwise the stratum realizing the union of all split systems.
    """
    if not trees:
        raise ValueError("meet_all needs at least one stratum")
    _same_ground("strata", *(t.ground for t in trees))
    # tree_from_splits drops the repeated edges
    return _meet(trees[0].ground, [e for t in trees for e in t.edges])


def flag_equivalence(t1: StableTree, t2: StableTree) -> bool:
    """True iff the two strata meet.

    By the flag property of the boundary complex this happens exactly when
    every edge of one is compatible with every edge of the other, which is
    what gets checked, on the block masks of the two trees' ``edges``: the
    same predicate ``flag_certify`` runs on enumerated families.  meet_all
    on the pair agrees, and tests assert it.
    """
    _same_ground("strata", t1.ground, t2.ground)
    return _blocks_meet([e.block_mask for e in t1.edges], [e.block_mask for e in t2.edges])


def _blocks_meet(masks1: Sequence[int], masks2: Sequence[int]) -> bool:
    # flag_equivalence on two split systems of one ground set, given as
    # block masks in any order; flag_certify calls it on enumerated
    # families, and compatible on one mask each.  Canonical blocks avoid
    # the smallest label, so two splits coexist in a tree iff their blocks
    # are nested or disjoint.
    for a in masks1:
        for b in masks2:
            c = a & b
            if c and c != a and c != b:
                return False
    return True


class BoundaryProduct:
    """A formal product of boundary-divisor powers and psi-class powers."""

    def __init__(self, ground: MarkedSet, divisor_powers: dict[Split, int],
                 psi_powers: dict[int, int]):
        for s, k in divisor_powers.items():
            if s.ground is not ground and s.ground != ground:
                raise GroundMismatch(f"divisor {s} lives on a different ground set")
            if k < 1:
                raise ValueError("divisor exponents must be >= 1")
        if psi_powers:
            _require_labels(ground.n, list(map(operator.index, psi_powers)))
            if min(psi_powers.values()) < 1:
                raise ValueError("psi exponents must be >= 1")
        self.ground = ground
        self.divisor_powers = divisor_powers
        self.psi_powers = psi_powers

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ground, self.divisor_powers, self.psi_powers)
                == (other.ground, other.divisor_powers, other.psi_powers))

    def __repr__(self):
        return (f"BoundaryProduct(ground={self.ground!r}, "
                f"divisor_powers={self.divisor_powers!r}, psi_powers={self.psi_powers!r})")

    @property
    def total_degree(self) -> int:
        return sum(self.divisor_powers.values()) + sum(self.psi_powers.values())


class DecoratedTree:
    """A stratum with edge weights and psi weights: the evaluator's input.

    ``tree.dims[v]`` is degree(v) - 3, the dimension of the moduli factor
    the vertex contributes.  Edge weights count repeated divisor factors
    beyond the first, and ``edge_weight`` lists every edge in ``tree.edges`` order;
    psi weights sit on leaves, and ``vertex_psi`` holds each vertex's
    (leaf, weight) pairs in vertex order, built once; equality and the repr
    leave it out, since it follows from the other fields.
    """

    def __init__(self, tree: StableTree, edge_weight: dict[Split, int],
                 psi_weight: dict[int, int]):
        self.tree = tree
        edges = tree.edges
        weights = dict.fromkeys(edges, 0)
        weights.update(edge_weight)
        if len(weights) > len(edges):
            foreign = list(weights)[len(edges)]  # keys past the edges are not edges
            raise NotInternalEdge(f"{foreign} is not an edge of the decorated tree")
        if weights and min(weights.values()) < 0:
            raise ValueError("edge weights must be >= 0")
        self.edge_weight = weights
        leaf_at = tree._leaf_at
        psi: dict[int, int] = {}
        # labels ascend, and so do each vertex's leaves
        at: dict[int, list[tuple[int, int]]] = {}
        for lab in _require_labels(tree.ground.n, psi_weight):
            k = psi_weight[lab]
            if k < 0:
                raise ValueError("psi weights must be >= 0")
            if k:
                psi[lab] = k
                at.setdefault(leaf_at[lab - 1], []).append((lab, k))
        self.psi_weight = psi
        self.vertex_psi = [()] * tree.num_vertices
        for v, pairs in at.items():
            self.vertex_psi[v] = tuple(pairs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.tree, self.edge_weight, self.psi_weight)
                == (other.tree, other.edge_weight, other.psi_weight))

    def __repr__(self):
        return (f"DecoratedTree(tree={self.tree!r}, edge_weight={self.edge_weight!r}, "
                f"psi_weight={self.psi_weight!r})")

    @property
    def weight_total(self) -> int:
        return sum(self.edge_weight.values()) + sum(self.psi_weight.values())


def _require_dimension(decorated: DecoratedTree) -> None:
    # balance's and the expansion oracle's precondition: the weights fill the stratum
    if decorated.weight_total != decorated.tree.dim:
        raise DimensionUnbalanced(f"edge weights + psi weights = {decorated.weight_total}, "
                                  f"but the stratum has dimension {decorated.tree.dim}")


def _psi_parts(n: int, exponents: Mapping[int, int]) -> tuple[int, ...]:
    # both psi integrals' argument rule, in this order; the positive exponents
    # ascending are the string recursion's key and, as 0! = 1, multinomial's parts
    if n < 3:
        raise ValueError(f"need n >= 3 marked points, got {n}")
    _require_labels(n, exponents)
    parts = sorted(filter(None, exponents.values()))
    if parts and parts[0] < 0:
        raise ValueError("psi exponents must be non-negative")
    if sum(parts) != n - 3:
        raise DegreeMismatch(f"psi degrees sum to {sum(parts)}, need n - 3 = {n - 3}")
    return tuple(parts)


DecorationResult = DecoratedTree | _EmptyIntersection


def product_to_decorated(product: BoundaryProduct) -> DecorationResult:
    """Normalize a dimension-zero product into a decorated tree.

    The divisor support must assemble into a stratum (otherwise EMPTY);
    each edge weight is the divisor's exponent minus one, and each psi
    exponent lands on its leaf.  Products whose total degree is not n - 3
    raise DegreeMismatch, since only dimension-zero products evaluate to a
    number.
    """
    n = product.ground.n
    degree = product.total_degree
    if degree != n - 3:
        raise DegreeMismatch(
            f"total degree {degree} != n - 3 = {n - 3} (n = {n}); "
            "the product does not land in dimension zero"
        )
    tree = _meet(product.ground, product.divisor_powers.keys())
    if tree is EMPTY:
        return EMPTY
    weights = {e: k - 1 for e, k in product.divisor_powers.items()}
    return DecoratedTree(tree, weights, product.psi_powers)


def strata_product_to_decorated(trees: Sequence[StableTree]) -> DecorationResult:
    """Decorate a product of arbitrary strata.

    A stratum is the transversal product of the divisors of its edges, so
    the product of strata is the divisor product of all their edges, each
    edge to the power of the number of strata containing it, and
    product_to_decorated decorates it.  Codimensions must sum to n - 3.
    """
    if not trees:
        raise ValueError("need at least one stratum")
    ground = trees[0].ground
    n = ground.n
    total = sum(t.codim for t in trees)
    if total != n - 3:
        raise DegreeMismatch(
            f"codimensions sum to {total} != n - 3 = {n - 3} (n = {n})"
        )
    # BoundaryProduct checks each edge's ground, but not an edgeless stratum's
    _same_ground("strata", ground, *(t.ground for t in trees))
    powers = collections.Counter(e for t in trees for e in t.edges)
    return product_to_decorated(BoundaryProduct(ground, powers, {}))
