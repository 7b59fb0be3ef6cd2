"""Splits, tree reconstruction, canonical equality, and enumeration."""

import collections
import hashlib
import itertools
import math
import operator
import random

import pytest

from m0nbar.errors import (
    GroundMismatch,
    IncompatibleSplits,
    LabelOutOfRange,
    NotInternalEdge,
    TooLarge,
    UnstableSplit,
)
from m0nbar.intersect import compatible, flag_equivalence
from m0nbar.oracle import random_stable_tree
from m0nbar.trees import (
    MarkedSet,
    Split,
    StableTree,
    _disjoint_blocks,
    _families,
    _link_masks,
    enumerate_stable_trees,
    make_split,
    ordered_splits,
    split_of_edge,
    tree_equal,
    tree_from_splits,
)

G4 = MarkedSet.range(4)
G5 = MarkedSet.range(5)


def all_splits(ground):
    n = ground.n
    out = []
    for size in range(2, n - 1):
        for side in itertools.combinations(ground.labels, size):
            out.append(make_split(ground, side))
    return sorted(set(out), key=lambda s: s.block)


def reference_crossing_pair(ground, splits):
    # tree_from_splits's owner pass as it stood with one owner tuple per
    # block: the (first, second) pair it names for a crossing system, or
    # None for a compatible one
    ordered = ordered_splits(set(splits))
    k = len(ordered)
    blocks = [s.block for s in ordered]
    owner = [k] * (ground.n + 1)
    for i in sorted(range(k), key=[len(b) for b in blocks].__getitem__, reverse=True):
        labels = blocks[i]
        j = owner[labels[0]]
        owners = operator.itemgetter(*labels)(owner)
        if owners.count(j) != len(owners):
            other = next(o for o in owners if o != j)
            crossing = j if other == k or labels[0] in blocks[other] else other
            return ordered[crossing], ordered[i]
        for lab in labels:
            owner[lab] = i
    return None


class TestSplit:
    def test_canonical_side_excludes_smallest_label(self):
        assert make_split(G5, {1, 2}).block == (3, 4, 5)
        assert make_split(G5, {3, 4, 5}).block == (3, 4, 5)

    def test_two_spellings_compare_equal(self):
        assert make_split(G5, {1, 2}) == make_split(G5, {3, 4, 5})

    def test_singleton_side_is_unstable(self):
        with pytest.raises(UnstableSplit):
            make_split(G4, {1})
        with pytest.raises(UnstableSplit):
            make_split(G5, {2, 3, 4, 5})

    def test_labels_must_belong_to_ground(self):
        with pytest.raises(LabelOutOfRange):
            make_split(G5, {4, 9})

    def test_direct_construction_must_be_canonical(self):
        with pytest.raises(ValueError):
            Split(G5, G5.mask_of({1, 2}))

    def test_text_form_shows_block_then_complement(self):
        assert str(make_split(G5, {1, 2})) == "3,4,5|1,2"

    def test_canonicalization_is_idempotent(self):
        ground = MarkedSet.range(6)
        for s in all_splits(ground):
            assert make_split(ground, s.block) == s

    def test_cached_block_matches_the_mask(self):
        # unsorted sides, repeated labels, and either side of the split
        ground = MarkedSet.range(8)
        for side in ([5, 3, 7], (4, 2, 4, 2, 6), [8, 1, 3], {2, 8, 5, 1}, iter([7, 6, 6])):
            s = make_split(ground, side)
            assert s.block == ground.labels_of(s.block_mask)
            assert s.block is s.block
            fresh = Split(ground, s.block_mask)
            assert fresh.block == s.block

    def test_equal_splits_hash_equal(self):
        ground = MarkedSet.range(7)
        for side in ({1, 2}, {2, 5, 6}, {1, 3, 4, 7}):
            a = make_split(ground, side)
            b = make_split(ground, set(ground.labels) - side)
            c = Split(ground, a.block_mask)
            assert a == b == c
            assert hash(a) == hash(b) == hash(c)
            assert len({a, b, c}) == 1

    def test_same_mask_on_other_ground_differs(self):
        mask = G5.mask_of((2, 3))
        other = MarkedSet.range(6)
        assert Split(G5, mask) != Split(other, mask)
        assert len({Split(G5, mask), Split(other, mask)}) == 2


class TestMarkedSet:
    def test_labels_are_sorted_and_distinct(self):
        assert tuple(MarkedSet((3, 1, 2)).labels) == (1, 2, 3)
        assert MarkedSet((3, 1, 2)) == MarkedSet.range(3)
        assert hash(MarkedSet((3, 1, 2))) == hash(MarkedSet.range(3))
        assert MarkedSet.range(7).labels == range(1, 8)
        # the ground set is exactly 1..n
        for labels in [(1, 1, 2), (3, 7, 10, 12), (0, 1, 2), range(0, 5)]:
            with pytest.raises(ValueError):
                MarkedSet(labels)

    def test_standard_ground_is_shared_per_n(self):
        assert MarkedSet.range(9) is MarkedSet.range(9)
        assert MarkedSet.range(9) is not MarkedSet.range(10)
        assert MarkedSet.range(9) == MarkedSet(tuple(range(9, 0, -1)))

    def test_needs_three_labels(self):
        with pytest.raises(ValueError):
            MarkedSet((1, 2))

    def test_mask_round_trip(self):
        mask = G5.mask_of((2, 4))
        assert G5.labels_of(mask) == (2, 4)
        for lab in (0, -1, 6):
            with pytest.raises(LabelOutOfRange):
                G5.mask_of((2, lab))
        big = MarkedSet.range(10**6)
        assert big.labels_of(big.mask_of((1, 500000, 10**6))) == (1, 500000, 10**6)
        assert big.labels_of(0) == ()
        assert big.labels_of(big.full_mask) == tuple(range(1, 10**6 + 1))


class TestReconstruction:
    def test_nine_point_fixture_shape(self, nine_point_tree):
        t = nine_point_tree
        assert t.num_vertices == 5
        assert t.codim == 4
        assert t.dim == 2
        assert sorted(t.dims[v] + 3 for v in t.vertices) == [3, 3, 3, 4, 4]
        assert t.vertex_leaves[0] == (1, 4)

    def test_leaf_vertex_covers_exactly_the_labels(self, nine_point_tree):
        t = nine_point_tree
        for lab in (0, -1, t.ground.n + 1):
            with pytest.raises(LabelOutOfRange):
                t.leaf_vertex(lab)
        for lab in t.ground.labels:
            assert lab in t.vertex_leaves[t.leaf_vertex(lab)]

    def test_no_splits_gives_one_big_vertex(self):
        t = tree_from_splits(G5, ())
        assert t.num_vertices == 1
        assert t.dims[0] + 3 == 5
        assert t.dim == 2

    def test_incompatible_pair_is_rejected(self):
        with pytest.raises(IncompatibleSplits):
            tree_from_splits(G5, (make_split(G5, {1, 2}), make_split(G5, {1, 3})))

    def test_incompatible_message_names_both_splits(self):
        first, second = make_split(G5, {2, 3}), make_split(G5, {3, 4})
        with pytest.raises(IncompatibleSplits) as raised:
            tree_from_splits(G5, (second, first))
        assert (raised.value.first, raised.value.second) == (first, second)
        assert str(raised.value) == "incompatible splits 2,3|1,4,5 and 3,4|1,2,5"

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            tree_from_splits(G5, (make_split(G4, {1, 2}),))

    def test_total_on_compatible_pairs_and_only_those(self):
        # reconstruction succeeds exactly when the pair is compatible
        for n in (5, 6):
            ground = MarkedSet.range(n)
            for s, t in itertools.combinations(all_splits(ground), 2):
                if compatible(s, t):
                    tree_from_splits(ground, (s, t))
                else:
                    with pytest.raises(IncompatibleSplits) as raised:
                        tree_from_splits(ground, (s, t))
                    named = (raised.value.first, raised.value.second)
                    assert set(named) == {s, t} and not compatible(*named)

    def test_named_pair_crosses_in_large_systems(self):
        # a stable tree's splits plus one split {x, y} that crosses an edge:
        # x inside the edge's block, y outside it and not the smallest label
        rng = random.Random(4)
        for n in range(8, 41):
            t = random_stable_tree(n, rng)
            if not t.edges:
                continue
            block = rng.choice(t.edges).block
            outside = sorted(set(t.ground.labels[1:]) - set(block))
            crossing = make_split(t.ground, {rng.choice(block), rng.choice(outside)})
            splits = [*t.edges, crossing]
            rng.shuffle(splits)
            with pytest.raises(IncompatibleSplits) as raised:
                tree_from_splits(t.ground, splits)
            first, second = raised.value.first, raised.value.second
            assert first in splits and second in splits and not compatible(first, second)

    @pytest.mark.parametrize("n", [5, 6])
    def test_named_pair_is_the_reference_pair_on_every_pair(self, n):
        ground = MarkedSet.range(n)
        for s, t in itertools.combinations(all_splits(ground), 2):
            if not compatible(s, t):
                with pytest.raises(IncompatibleSplits) as raised:
                    tree_from_splits(ground, (t, s))
                named = (raised.value.first, raised.value.second)
                assert named == reference_crossing_pair(ground, (s, t))

    def test_named_pair_is_the_reference_pair_in_large_systems(self):
        # shuffled stable trees' splits plus one or two splits that cross an
        # edge: each holds x of the edge's block, y outside it, and any other
        # labels but 1 and z, a second label of the block.  A crossing split
        # larger than some edges is placed before them, so the pass can find
        # the crossing at a block whose labels have several owners
        rng = random.Random(4)
        for n in range(8, 41):
            for extra in (1, 2):
                t = random_stable_tree(n, rng)
                if not t.edges:
                    continue
                splits = list(t.edges)
                for _ in range(extra):
                    block = rng.choice(t.edges).block
                    x, z = rng.sample(block, 2)
                    y = rng.choice(sorted(set(t.ground.labels[1:]) - set(block)))
                    rest = [lab for lab in t.ground.labels[1:] if lab != z]
                    side = {x, y, *rng.sample(rest, rng.randrange(len(rest)))}
                    splits.append(make_split(t.ground, side))
                rng.shuffle(splits)
                with pytest.raises(IncompatibleSplits) as raised:
                    tree_from_splits(t.ground, splits)
                named = (raised.value.first, raised.value.second)
                assert named == reference_crossing_pair(t.ground, splits)

    def test_interleaved_disjoint_blocks(self):
        # by lowest label {3,5} falls between {2,4,6} and {4,6}, yet {4,6}
        # hangs inside {2,4,6}, not beside {3,5}
        ground = MarkedSet.range(7)
        outer, inner, other = (make_split(ground, s) for s in ({2, 4, 6}, {4, 6}, {3, 5}))
        t = tree_from_splits(ground, (inner, other, outer))
        assert t.ends[t.edges.index(outer)] == (0, 1)
        assert t.ends[t.edges.index(inner)] == (1, 2)
        assert t.ends[t.edges.index(other)] == (0, 3)

    def test_edges_hold_the_splits_in_canonical_order(self, nine_point_tree):
        assert [str(e) for e in nine_point_tree.edges] == [
            "2,3,5,6,7,8,9|1,4", "2,6,8|1,3,4,5,7,9", "3,5,7,9|1,2,4,6,8", "3,9|1,2,4,5,6,7,8",
        ]
        for t in enumerate_stable_trees(6):
            assert t.edges == ordered_splits(frozenset(t.edges))
            assert len(frozenset(t.edges)) == len(t.edges) == t.codim

    def test_edges_at_is_the_child_edge_then_the_parent_edges(self):
        for n in range(3, 8):
            for t in enumerate_stable_trees(n):
                seen = collections.Counter()
                for v in t.vertices:
                    at = t.edges_at(v)
                    up = [e for e, (_, c) in zip(t.edges, t.ends) if c == v]
                    down = [e for e, (p, _) in zip(t.edges, t.ends) if p == v]
                    assert list(at) == up + down and len(up) == (v != 0)
                    assert t.dims[v] == len(at) + len(t.vertex_leaves[v]) - 3
                    seen.update(at)
                # every edge meets exactly its two ends
                assert all(seen[e] == 2 for e in t.edges) and len(seen) == t.codim

    def test_vertex_numbering_is_deterministic(self, nine_point_tree):
        ground = MarkedSet.range(9)
        again = tree_from_splits(ground, reversed(nine_point_tree.edges))
        for v in nine_point_tree.vertices:
            assert nine_point_tree.vertex_leaves[v] == again.vertex_leaves[v]
            assert nine_point_tree.edges_at(v) == again.edges_at(v)


class TestSplitOfEdge:
    def test_fixture_edge(self, nine_point_tree):
        e = make_split(nine_point_tree.ground, {2, 6, 8})
        assert split_of_edge(nine_point_tree, e) == e

    def test_single_edge_tree(self):
        e = make_split(G4, {1, 2})
        t = tree_from_splits(G4, (e,))
        assert split_of_edge(t, e) == e

    def test_round_trip_on_every_enumerated_edge(self):
        for n in (4, 5, 6, 7):
            for t in enumerate_stable_trees(n):
                for e in t.edges:
                    assert split_of_edge(t, e) == e
                # the tree's own incidence, read back by one walk over its links
                links = list(t.ends)
                leaf_node = [t.leaf_vertex(lab) for lab in t.ground.labels]
                assert _link_masks(links, leaf_node) == [e.block_mask for e in t.edges]

    def test_round_trip_on_random_trees(self):
        rng = random.Random(5)
        for n in range(4, 61):
            t = random_stable_tree(n, rng)
            for e, (_, child) in zip(t.edges, t.ends):
                assert split_of_edge(t, e) == e
                assert t.edges_at(child)[0] == e
                for f in t.edges_at(child)[1:]:
                    assert f.block_mask & ~e.block_mask == 0

    def test_foreign_split_is_not_an_edge(self, nine_point_tree):
        with pytest.raises(NotInternalEdge):
            split_of_edge(nine_point_tree, make_split(nine_point_tree.ground, {5, 6}))
        # blocks sorting before and after every edge, and an edge's own mask
        # on another ground set, which has that edge's block
        t = nine_point_tree
        e = make_split(t.ground, {2, 6, 8})
        for foreign in (
            make_split(t.ground, {2, 3}),
            make_split(t.ground, {5, 6}),
            Split(MarkedSet.range(10), e.block_mask),
        ):
            with pytest.raises(NotInternalEdge):
                split_of_edge(t, foreign)


TABLES = ("ends", "dims", "vertex_leaves", "_leaf_at")


class TestTables:
    def test_filled_by_the_build(self, nine_point_tree):
        # tree_from_splits fills every field but the leaf view's slot, which
        # the first read of vertex_leaves fills from the leaf table
        t = tree_from_splits(nine_point_tree.ground, reversed(nine_point_tree.edges))
        assert StableTree.__slots__ == ("ground", "edges", "ends", "dims", "_leaf_at",
                                        "_vertex_leaves")
        assert all(hasattr(t, name) for name in StableTree.__slots__)
        # the block {2,3,5,6,7,8,9} holds {2,6,8} and {3,5,7,9}, which holds {3,9}
        assert t.ends == ((0, 1), (1, 2), (1, 3), (3, 4))
        assert t.dims == (0, 0, 1, 1, 0)
        assert t._leaf_at == [0, 2, 4, 0, 3, 2, 3, 2, 4]
        assert t._vertex_leaves is None
        assert t.vertex_leaves == ((1, 4), (), (2, 6, 8), (5, 7), (3, 9))
        assert t._vertex_leaves is t.vertex_leaves
        with pytest.raises(AttributeError):
            t.vertex_leaves = ()

    def test_no_edge_index_table(self):
        # edges_at reads ends; no per-vertex table of edge indices is kept
        assert "_edge_ids" not in StableTree.__slots__

    def test_tables_of_every_enumerated_tree(self):
        # pins the value of every table of every tree at n = 3..7
        digest = hashlib.sha256()
        for n in range(3, 8):
            for t in enumerate_stable_trees(n):
                # each vertex's edge indices, the edge toward vertex 0 first
                edge_ids = tuple(tuple(map(t.edges.index, t.edges_at(v))) for v in t.vertices)
                tables = (t.ends, t.dims, t.vertex_leaves, edge_ids, t._leaf_at, t.dim)
                digest.update(repr(tables).encode())
        assert digest.hexdigest() == (
            "6aced1b1b0279893a2c7f94d8e34233bc73fa68768fd4bf3c654a90da4f161d0")

    def test_split_of_edge_on_shuffled_input(self):
        rng = random.Random(18)
        for n in range(4, 41):
            edges = list(random_stable_tree(n, rng).edges)
            rng.shuffle(edges)
            t = tree_from_splits(MarkedSet.range(n), edges)
            for e in edges:
                assert split_of_edge(t, e) == e
            assert sum(t.dims) == t.dim


class TestLazyTables:
    # the build fills every table; only the leaf view's private slot is
    # filled later, by a read of vertex_leaves, and no mask test or
    # comparison fills or replaces a field
    def test_unread_by_edges_masks_and_comparisons(self, nine_point_tree):
        ground = MarkedSet.range(9)
        t = tree_from_splits(ground, nine_point_tree.edges)
        u = tree_from_splits(ground, nine_point_tree.edges[:2])
        built = {name: getattr(t, name) for name in StableTree.__slots__}
        assert (t.codim, t.dim, t.num_vertices, len(t.vertices)) == (4, 2, 5, 5)
        assert t.edges == nine_point_tree.edges
        assert flag_equivalence(t, u) and t == nine_point_tree and t != u
        assert hash(t) == hash(nine_point_tree) and repr(t).startswith("<StableTree n=9 codim=4")
        assert all(getattr(t, name) is built[name] for name in StableTree.__slots__)
        assert all(hasattr(u, name) for name in TABLES)
        assert "__getattr__" not in vars(StableTree)

    @pytest.mark.parametrize("name", TABLES)
    def test_one_read_fills_every_table(self, name, nine_point_tree):
        t = tree_from_splits(nine_point_tree.ground, nine_point_tree.edges)
        # the build filled every table, so a read only returns it
        assert all(hasattr(t, other) for other in TABLES)
        first = getattr(t, name)
        assert getattr(t, name) is first
        assert not hasattr(t, "block_masks") and not hasattr(t, "splits")
        # the parent and owner lists of the build are not slots of the tree
        for gone in ("_up", "_owner"):
            assert gone not in StableTree.__slots__
            with pytest.raises(AttributeError, match=f"no attribute '{gone}'"):
                getattr(t, gone)


class TestBlockMasks:
    # each edge's mask lives on its Split; the tree keeps no table of them
    def test_edge_masks_of_every_enumerated_tree(self):
        for n in range(3, 8):
            for t in enumerate_stable_trees(n):
                assert [s.block_mask for s in t.edges] == [t.ground.mask_of(s.block)
                                                           for s in t.edges]

    def test_edge_masks_of_random_trees(self):
        rng = random.Random(14)
        for n in range(4, 41):
            for _ in range(3):
                t = random_stable_tree(n, rng)
                assert [s.block_mask for s in t.edges] == [t.ground.mask_of(s.block)
                                                           for s in t.edges]

    def test_built_on_first_read_only(self):
        # a split made from labels computes its mask on its first read
        ground = MarkedSet.range(9)
        t = tree_from_splits(ground, [make_split(ground, {2, 3}), make_split(ground, {4, 5, 6})])
        assert not any("block_mask" in vars(s) for s in t.edges)
        masks = [s.block_mask for s in t.edges]
        assert masks == [0b110, 0b111000]
        assert all(vars(s)["block_mask"] is m for s, m in zip(t.edges, masks))
        assert not hasattr(t, "block_masks")
        with pytest.raises(AttributeError, match="no attribute 'block_mask'"):
            t.block_mask


class TestTreeEqual:
    def test_reflexive_and_order_blind(self):
        splits = (make_split(G5, {1, 2}), make_split(G5, {4, 5}))
        t1 = tree_from_splits(G5, splits)
        t2 = tree_from_splits(G5, tuple(reversed(splits)))
        assert tree_equal(t1, t1)
        assert tree_equal(t1, t2)

    def test_distinct_splits_differ(self):
        t1 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t2 = tree_from_splits(G5, (make_split(G5, {4, 5}),))
        assert not tree_equal(t1, t2)

    def test_ground_mismatch(self):
        t1 = tree_from_splits(G4, ())
        t2 = tree_from_splits(G5, ())
        with pytest.raises(GroundMismatch):
            tree_equal(t1, t2)


class TestEnumeration:
    def test_four_points_codim_one(self):
        trees = list(enumerate_stable_trees(4, 1))
        assert len(trees) == 3
        found = {t.edges[0] for t in trees}
        assert found == {make_split(G4, s) for s in ({1, 2}, {1, 3}, {1, 4})}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_divisor_count_formula(self, n):
        assert sum(1 for _ in enumerate_stable_trees(n, 1)) == 2 ** (n - 1) - n - 1

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_trivalent_count_is_double_factorial(self, n):
        expected = math.prod(range(2 * n - 5, 0, -2))
        assert sum(1 for _ in enumerate_stable_trees(n, n - 3)) == expected

    def test_five_points_codim_two_count(self):
        assert sum(1 for _ in enumerate_stable_trees(5, 2)) == 15

    def test_each_tree_appears_once(self):
        for n in (4, 5, 6):
            systems = [t.edges for t in enumerate_stable_trees(n)]
            assert len(systems) == len(set(systems))

    def test_dimension_identity(self):
        for n in (4, 5, 6):
            for t in enumerate_stable_trees(n):
                assert t.dim + t.codim == n - 3
                assert t.dim == sum(t.dims[v] for v in t.vertices)
                assert all(t.dims[v] + 3 >= 3 for v in t.vertices)

    def test_guard(self):
        with pytest.raises(TooLarge):
            enumerate_stable_trees(10)

    @staticmethod
    def _laminar_families(space):
        # the reference: every family of blocks strictly inside `space`,
        # listed afresh each time a block heads a collection
        for coll in _disjoint_blocks(space, space):
            yield from TestEnumeration._refine(coll)

    @staticmethod
    def _refine(blocks):
        if not blocks:
            yield ()
            return
        head, tail = blocks[0], blocks[1:]
        for inner in TestEnumeration._laminar_families(head):
            front = (head,) + inner
            for rest in TestEnumeration._refine(tail):
                yield front + rest

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_families_are_the_reference_families(self, n):
        # the same families in the same order, at every codimension and
        # one past each end
        everything = list(self._laminar_families(MarkedSet.range(n).full_mask & ~1))
        for codim in (None, *range(-1, n - 1)):
            expected = [f for f in everything if codim in (None, len(f))]
            assert list(_families(n, codim)) == expected, codim
