"""Splits, split systems, and stable leaf-labeled trees.

A boundary divisor of the moduli space of stable genus-zero curves with
marked points is a 2-block partition A|B of the labels with both sides of
size at least two.  A boundary stratum is described by a set of pairwise
compatible splits, or equivalently by the leaf-labeled tree whose internal
edges induce exactly those splits.  This module stores splits canonically
(the recorded block is the side *not* containing the smallest label),
rebuilds the tree structure from a split system, and enumerates every
stable tree for small ground sets.

The ground set is the labels 1..n.  A split is its canonical block, a
sorted tuple of labels, so the work of building, hashing and comparing it,
and of rebuilding a tree, is linear in the labels written.  Label subsets
can also be bitmasks, label i at bit i - 1, where single word operations
pay off: enumeration and the compatibility tests at small n.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Collection, Iterable, Iterator, Sequence

from .errors import (
    GroundMismatch,
    IncompatibleSplits,
    LabelOutOfRange,
    NotInternalEdge,
    TooLarge,
    UnstableSplit,
)

# Exhaustive enumeration is meant for desk-scale verification runs.
ENUMERATION_LIMIT = 9

# maps the digits of bin(mask) to the 0/1 selectors itertools.compress reads
_BITS = bytes.maketrans(b"01", b"\x00\x01")


class MarkedSet:
    """The marked-point labels 1..n.

    ``labels`` is ``range(1, n + 1)``, and label ``i`` is bit ``i - 1`` of
    a mask.  The constructor accepts 1..n in any order and nothing else.
    ``n`` is stored, since every Split reads it; ``full_mask`` and the
    private frozenset of the labels, which every complement is taken from,
    are computed on first use, so the ground set costs O(1) memory at any
    n.  Instances are frozen: equality and the hash read ``labels`` alone.
    """

    def __init__(self, labels: range):
        if isinstance(labels, range) and labels.start == 1 and labels.step == 1:
            # len() of a range fails past sys.maxsize labels
            n = max(labels.stop - 1, 0)
        else:
            n = len(labels)
        if n < 3:
            raise ValueError("stability needs at least 3 marked points")
        ground = range(1, n + 1)
        # a range compares without being listed, so MarkedSet.range is O(1)
        if labels != ground and sorted(labels) != list(ground):
            raise ValueError(f"the labels must be 1..{n}, each once")
        object.__setattr__(self, "labels", ground)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen MarkedSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen MarkedSet")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels

    def __hash__(self):
        return hash((self.labels,))

    def __repr__(self):
        return f"MarkedSet(labels={self.labels!r})"

    @functools.cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @functools.cached_property
    def _label_set(self) -> frozenset[int]:
        # 1..n, built on first use: complements are differences from it, so
        # their label tuples share its int objects.  The list allocates its
        # n slots at once, so a ground set too large for memory fails there
        # (MemoryError, or OverflowError past sys.maxsize) before the set
        # grows toward it label by label.
        return frozenset(list(self.labels))

    @classmethod
    @functools.lru_cache(maxsize=16)
    def range(cls, n: int) -> "MarkedSet":
        """The ground set {1, ..., n}, one shared instance per n.

        Sharing it makes every ground-set comparison between the splits of
        one computation an identity test.
        """
        return cls(range(1, n + 1))

    def mask_of(self, labels: Iterable[int]) -> int:
        """Bitmask of a label subset; labels outside 1..n raise LabelOutOfRange."""
        labels = tuple(labels)  # read twice; a block is a tuple already, so no copy
        _require_labels(self.n, labels)
        mask = 0
        for lab in labels:
            mask |= 1 << lab
        # label i is bit i - 1: shift once here instead of once per label
        return mask >> 1

    def labels_of(self, mask: int) -> tuple[int, ...]:
        # bin() lists the bits high to low; reversed, digit i selects label i + 1
        return tuple(itertools.compress(self.labels, bin(mask)[:1:-1].encode().translate(_BITS)))


class Split:
    """A boundary divisor: a 2-block partition of the ground set.

    A split is its canonical block: the sorted labels of the side that does
    not contain the smallest label, so every divisor has exactly one
    representation.  Equality and the hash read the ground set and the
    block, and the hash is computed once.  ``block_mask`` is computed from
    the block on first use.  The constructor takes the block as a mask;
    make_split builds a split from either side given as labels.  Treat
    instances as immutable.
    """

    def __init__(self, ground: MarkedSet, block_mask: int):
        n = ground.n
        if block_mask < 0 or block_mask >> n:
            raise LabelOutOfRange("block mask reaches outside the ground set")
        _require_stable(block_mask.bit_count(), n)
        if block_mask & 1:
            raise ValueError("block contains the smallest label; use make_split")
        self.block_mask = block_mask
        self._set(ground, ground.labels_of(block_mask))

    def _set(self, ground: MarkedSet, block: tuple[int, ...]) -> None:
        self.ground = ground
        self.block = block
        self._hash = hash((ground.n, block))

    @functools.cached_property
    def block_mask(self) -> int:
        """The block as a mask, label i at bit i - 1."""
        return self.ground.mask_of(self.block)

    def __eq__(self, other):
        if not isinstance(other, Split):
            return NotImplemented
        return (self._hash == other._hash and self.block == other.block
                and self.ground == other.ground)

    def __hash__(self):
        return self._hash

    @property
    def complement(self) -> tuple[int, ...]:
        return _complement(self.block, self.ground)

    def __str__(self):
        blk = ",".join(str(x) for x in self.block)
        rest = ",".join(str(x) for x in self.complement)
        return f"{blk}|{rest}"

    def __repr__(self):
        return f"Split({self.ground!r}, block={self.block!r})"


def _complement(labels: Iterable[int], ground: MarkedSet) -> tuple[int, ...]:
    # the labels of 1..n not among `labels`, ascending: one set difference,
    # whose size parse also reads as the check of a side holding label 1
    return tuple(sorted(ground._label_set.difference(labels)))


def make_split(ground: MarkedSet, side: Iterable[int]) -> Split:
    """Canonical split with the given side.

    The stored block becomes whichever of side/complement avoids the
    smallest label: a side holding it is replaced by its complement, one
    set difference from the ground's labels, so no mask is built.  Labels
    outside 1..n raise LabelOutOfRange, and sides with fewer than two
    labels on either end raise UnstableSplit.
    """
    labels = sorted(set(map(operator.index, side)))
    _require_labels(ground.n, labels)
    _require_stable(len(labels), ground.n)
    return _split_of_block(ground, _complement(labels, ground) if labels[0] == 1 else tuple(labels))


def _split_of_block(ground: MarkedSet, block: tuple[int, ...]) -> Split:
    # the Split whose canonical block is `block`, a tuple already checked
    split = Split.__new__(Split)
    split._set(ground, block)
    return split


_BLOCK = operator.attrgetter("block")


def ordered_splits(splits: Iterable[Split]) -> tuple[Split, ...]:
    """Splits in the canonical display order (lexicographic by block)."""
    return tuple(sorted(splits, key=_BLOCK))


class StableTree:
    """A boundary stratum: a compatible split system plus its tree structure.

    Internal vertices are numbered deterministically: vertex 0 is the one
    whose side of every split contains the smallest label, and the rest
    follow in depth-first order with children visited by smallest contained
    label.  Internal edges are identified with their splits, and ``edges``
    is the split system: each split once, in the canonical order
    (lexicographic by block).  Equality and the hash read the ground set
    and ``edges``.  ``codim``, ``dim`` (n - 3 - codim) and ``num_vertices``
    (codim + 1) are read off ``edges``.

    Every other field is a table in ``edges`` order or in vertex order.
    ``ends`` lists each edge's (parent, child), and privately label i's
    vertex sits at index i - 1 of the leaf table, the one table of where
    the leaves hang; ``edges_at`` reads a vertex's edges off ``ends``.
    ``dims`` holds each vertex's dimension (degree - 3), so consumers zip
    it with ``edges`` and ``vertices`` instead of looking edges up.
    :func:`tree_from_splits` fills these when it builds the tree.
    ``vertex_leaves``, each vertex's leaves ascending, is a read-only view
    of the leaf table: only the renderers and ``apply_coloring`` read it,
    so its first read builds and keeps it, and evaluation never pays for
    it.  The ``enumerate`` command and ``flag_certify``, which need only
    split systems, work on block masks and build no tree.

    Instances are built by :func:`tree_from_splits`; treat them as
    immutable.
    """

    __slots__ = ("ground", "edges", "ends", "dims", "_leaf_at", "_vertex_leaves")

    def __init__(self, ground, edges, ends, dims, leaf_at):
        self.ground = ground
        self.edges = edges
        self.ends = ends
        self.dims = dims
        self._leaf_at = leaf_at
        self._vertex_leaves = None

    @property
    def vertex_leaves(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's leaves, ascending, in vertex order; read off the leaf table once."""
        leaves = self._vertex_leaves
        if leaves is None:
            at: list[list[int]] = [[] for _ in range(len(self.edges) + 1)]
            for lab, v in zip(self.ground.labels, self._leaf_at):
                at[v].append(lab)
            leaves = self._vertex_leaves = tuple(map(tuple, at))
        return leaves

    @property
    def num_vertices(self) -> int:
        return len(self.edges) + 1

    @property
    def vertices(self) -> range:
        return range(self.num_vertices)

    @property
    def codim(self) -> int:
        return len(self.edges)

    @property
    def dim(self) -> int:
        # the sum of degree - 3 over the codim + 1 vertices, whose degrees
        # add up to n + 2 * codim
        return self.ground.n - 3 - len(self.edges)

    def edges_at(self, v: int) -> tuple[Split, ...]:
        """The edges at vertex v: the one toward vertex 0 first, then the rest in ``edges`` order."""
        ends = self.ends
        return (*(e for e, (_, child) in zip(self.edges, ends) if child == v),
                *(e for e, (parent, _) in zip(self.edges, ends) if parent == v))

    def leaf_vertex(self, label: int) -> int:
        """The internal vertex a leaf is attached to."""
        _require_labels(self.ground.n, (label,))
        return self._leaf_at[label - 1]

    def __eq__(self, other):
        if not isinstance(other, StableTree):
            return NotImplemented
        return self.ground == other.ground and self.edges == other.edges

    def __hash__(self):
        return hash((self.ground, self.edges))

    def __repr__(self):
        shown = "; ".join(str(s) for s in self.edges)
        return f"<StableTree n={self.ground.n} codim={self.codim} [{shown}]>"


def tree_from_splits(ground: MarkedSet, splits: Iterable[Split]) -> StableTree:
    """Rebuild the unique stable tree realizing a compatible split system.

    The canonical blocks all avoid the smallest label, so a pairwise
    compatible system is a laminar family: any two blocks are nested or
    disjoint.  The family's containment order is therefore a forest, whose
    roots hang off the vertex holding the smallest label; that forest *is*
    the tree.  With no splits the result is a single internal vertex
    carrying every leaf.

    One pass places the blocks in decreasing size, while ``owner`` maps
    each label to the smallest block placed so far that contains it, or to
    the root.  The placed blocks that contain a label form a chain, and each
    is at least as large as the current block, so in a laminar family the
    smallest one containing the current block owns all of its labels and is
    its parent.  So the block is placed iff all of its labels have one
    owner.  One loop reads, checks and writes each label of the block, so
    the whole pass is linear in the labels of the blocks.  When a label's
    owner differs from the first label's, one of the two owners crosses
    the block.  At the end a label's owner is where its leaf hangs.

    A depth-first walk from the root (children by smallest label) then
    numbers the vertices, and the tree's ``ends``, leaf table and ``dims``
    are filled from the parents and owners before it is returned.
    ``vertex_leaves`` is left for its first reader.

    Raises GroundMismatch for a split on another ground set, and
    IncompatibleSplits naming a crossing pair of the given splits when the
    system is not pairwise compatible.
    """
    # a repeated split would nest in its own copy, on a vertex of degree 2
    ordered = ordered_splits(set(splits))
    for s in ordered:
        if s.ground is not ground and s.ground != ground:
            raise GroundMismatch(f"split {s} lives on 1..{s.ground.n}, not 1..{ground.n}")

    # blocks are named by their index in `ordered`; index k is the root
    k = len(ordered)
    blocks = list(map(_BLOCK, ordered))
    owner = [k] * (ground.n + 1)  # by label; index 0 is unused
    up = [k] * k  # each block's parent block
    for i in sorted(range(k), key=list(map(len, blocks)).__getitem__, reverse=True):
        labels = blocks[i]
        j = owner[labels[0]]
        for lab in labels:
            other = owner[lab]
            if other != j:
                # `other` holds the first label exactly when it is j's
                # ancestor (or the root): then j misses a label of the block
                # and crosses it; otherwise `other` misses the first label,
                # is no smaller than the block, and crosses it
                crossing = j if other == k or labels[0] in blocks[other] else other
                raise IncompatibleSplits(ordered[crossing], ordered[i])
            owner[lab] = i
        up[i] = j

    # children by index, which is by smallest label
    kids: list[list[int]] = [[] for _ in range(k + 1)]
    for i, j in enumerate(up):
        kids[j].append(i)
    # number the vertices depth-first; the root block k is vertex 0
    vid = [0] * (k + 1)
    walk = [k]
    stack = kids[k][::-1]
    while stack:
        i = stack.pop()
        vid[i] = len(walk)
        walk.append(i)
        stack += reversed(kids[i])

    # (parent, child) in `edges` order; the zip stops before the root's entry
    ends = tuple(zip(map(vid.__getitem__, up), vid))
    # a list, since tuple() of a map has no length hint and would grow
    # through the tuple free lists
    leaf_at = list(map(vid.__getitem__, owner[1:]))
    # degree - 3: a block's vertex meets its parent edge, its children's
    # edges and its leaves; the root has no parent edge
    dims = [len(kids[i]) - 2 for i in walk]
    dims[0] -= 1
    for v in leaf_at:
        dims[v] += 1
    # distinct splits whose sides both hold >= 2 labels give every vertex
    # degree >= 3, so no input reaches this
    assert min(dims) >= 0, "a vertex of the rebuilt tree has degree below 3"
    return StableTree(ground, ordered, ends, tuple(dims), leaf_at)


def _link_masks(links: Sequence[tuple[int, int]], leaf_node: Sequence[int]) -> list[int]:
    # The block mask of each link's split, in link order.  The links join
    # the nodes 0..len(links) into a tree, and label i's node sits at index
    # i - 1 of leaf_node.  One walk from the node holding the smallest label
    # orders the nodes, and leaf masks gather bottom-up, so each link's far
    # side avoids that label: it is the canonical block, which
    # _tree_of_masks and split_of_edge turn into a Split.
    at: list[list[int]] = [[] for _ in range(len(links) + 1)]
    for i, (a, b) in enumerate(links):
        at[a].append(i)
        at[b].append(i)
    mask = [0] * len(at)
    for i, node in enumerate(leaf_node):
        mask[node] |= 1 << i

    root = leaf_node[0]
    up = [-1] * len(at)  # the link toward the root
    order = [root]
    for u in order:
        for i in at[u]:
            if i != up[u]:
                a, b = links[i]
                w = b if a == u else a
                up[w] = i
                order.append(w)
    block = [0] * len(links)
    for w in reversed(order[1:]):
        a, b = links[up[w]]
        mask[a if b == w else b] |= mask[w]
        block[up[w]] = mask[w]
    return block


def split_of_edge(tree: StableTree, edge: Split) -> Split:
    """Recompute the partition an internal edge induces, by traversal.

    Reads the edge's block mask back off the tree's links and leaf table
    with ``_link_masks`` and builds a fresh Split of it, so the result
    equals the stored split only if the rebuilt incidence structure is
    right.  A split that is not an edge of the tree raises NotInternalEdge.
    """
    if edge not in tree.edges:
        raise NotInternalEdge(f"{edge} is not an internal edge of this tree")
    return Split(tree.ground, _link_masks(tree.ends, tree._leaf_at)[tree.edges.index(edge)])


def _same_ground(what: str, ground: MarkedSet, *others: MarkedSet) -> None:
    # the one check that operands share a ground set; `what` names them
    if any(other != ground for other in others):
        raise GroundMismatch(f"{what} live on different ground sets")


def _require_labels(n: int, labels: Collection[int]) -> list[int]:
    # the one check that labels lie in 1..n, returning them ascending; an
    # input that passes costs one sort, and the error names the first label
    # outside, in the order given
    ordered = sorted(labels)
    if ordered and not (0 < ordered[0] and ordered[-1] <= n):
        lab = next(lab for lab in labels if not 0 < lab <= n)
        raise LabelOutOfRange(f"label {lab} outside 1..{n}")
    return ordered


def _require_stable(size: int, n: int) -> None:
    # the one check that a split side of `size` labels leaves both sides >= 2
    if not 2 <= size <= n - 2:
        raise UnstableSplit(f"a split side has {size} of {n} marked points; both need >= 2")


def tree_equal(t1: StableTree, t2: StableTree) -> bool:
    """Canonical equality: same ground set and the same split system."""
    _same_ground("trees", t1.ground, t2.ground)
    return t1.edges == t2.edges


def enumerate_stable_trees(n: int, codim: int | None = None) -> Iterator[StableTree]:
    """Every stable tree with leaves 1..n, each exactly once, in a fixed order.

    With ``codim`` given, only trees with exactly that many internal edges
    are produced.  Guarded at n <= 9 so exhaustive verification stays at
    desk scale; larger n raises TooLarge.  Each tree is ``_tree_of_masks``
    of one family of block masks, so its Splits are the shared table's;
    the families come in the order the ``enumerate`` command and
    ``flag_certify`` read them without building trees.
    """
    families = _families(n, codim)
    ground = MarkedSet.range(n)
    return (_tree_of_masks(ground, family) for family in families)


def _tree_of_masks(ground: MarkedSet, masks: Sequence[int]) -> StableTree:
    # tree_from_splits of the splits with these block masks, and the one
    # place that chooses how they become Splits.  Up to the enumeration
    # guard each Split is the shared table's, so every tree of a process
    # holds one Split per block; above it, or when the table lacks a mask,
    # each is a fresh Split, whose constructor says why a malformed mask has
    # no split.
    n = ground.n
    table = _split_table(n) if n <= ENUMERATION_LIMIT else {}
    try:
        splits = list(map(table.__getitem__, masks))
    except KeyError:
        splits = [Split(ground, m) for m in masks]
    return tree_from_splits(ground, splits)


@functools.lru_cache(maxsize=ENUMERATION_LIMIT)
def _split_table(n: int) -> dict[int, Split]:
    # Every canonical split of 1..n, keyed by block mask: the even masks with
    # 2..n - 2 labels, 2^(n - 1) - n - 1 of them.  Built once per n, and only
    # under the enumeration guard, where it holds at most 246 splits.
    ground = MarkedSet.range(n)
    return {m: Split(ground, m) for m in range(2, 1 << n, 2) if 2 <= m.bit_count() <= n - 2}


def _families(n: int, codim: int | None = None) -> Iterator[tuple[int, ...]]:
    """The block masks of each stratum enumerate_stable_trees(n, codim) yields, in its order.

    For callers that need only split systems.  The guard is checked here,
    before the first family is asked for.  The families are every set of
    blocks inside the ground set minus its smallest label, each of >= 2
    labels, pairwise nested or disjoint: exactly the canonical split
    systems of stable trees.  Each lists every maximal block followed by a
    family strictly inside it.  Within one call the families inside a block
    are listed once, the first time a collection of maximal blocks holds
    it, and reused from then on, while the top level is a generator over
    those collections, so the listing streams.  The lists live as long as
    the generator: about 33 MiB at n = 9.
    """
    if n > ENUMERATION_LIMIT:
        raise TooLarge(f"exhaustive enumeration is guarded at n <= {ENUMERATION_LIMIT}, got {n}")
    space = MarkedSet.range(n).full_mask & ~1
    headed: dict[int, list[tuple[int, ...]]] = {}
    families = itertools.chain.from_iterable(
        _refine(coll, headed) for coll in _disjoint_blocks(space, space))
    return families if codim is None else (f for f in families if len(f) == codim)


def _headed(block: int, headed: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    # Every family whose one maximal block is `block`: the block, then a
    # family strictly inside it.  Listed on the first request and kept in
    # `headed`, keyed by the block's mask.
    families = headed.get(block)
    if families is None:
        families = headed[block] = [(block,) + inner for coll in _disjoint_blocks(block, block)
                                    for inner in _refine(coll, headed)]
    return families


def _refine(blocks: tuple[int, ...], headed: dict[int, list[tuple[int, ...]]]
            ) -> list[tuple[int, ...]]:
    # Every family whose maximal blocks are `blocks`: independently inside
    # each block, a nested family, the first block's choice varying slowest.
    if not blocks:
        return [()]
    fronts = _headed(blocks[0], headed)
    if len(blocks) == 1:
        return fronts
    rests = _refine(blocks[1:], headed)
    return [front + rest for front in fronts for rest in rests]


def _disjoint_blocks(avail: int, forbid: int) -> Iterator[tuple[int, ...]]:
    # Collections of pairwise-disjoint blocks within `avail`, each with at
    # least two labels and none equal to `forbid`.  Blocks are emitted in
    # increasing order of their lowest label, so each collection appears
    # exactly once.
    if avail == 0:
        yield ()
        return
    low = avail & -avail
    rest = avail ^ low
    yield from _disjoint_blocks(rest, forbid)  # lowest label stays uncovered
    sub = rest
    while sub:
        block = low | sub
        if block != forbid:
            for coll in _disjoint_blocks(rest ^ sub, forbid):
                yield (block,) + coll
        sub = (sub - 1) & rest
