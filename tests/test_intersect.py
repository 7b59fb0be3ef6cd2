"""Compatibility, the coloring insertion, meets, and product decoration."""

import collections
import copy
import itertools
import pickle
import random

import pytest

from m0nbar.errors import DegreeMismatch, EdgeConditionFails, GroundMismatch, NotInternalEdge
from m0nbar.intersect import (
    BLUE,
    EMPTY,
    RED,
    BoundaryProduct,
    DecoratedTree,
    _blocks_meet,
    apply_coloring,
    color_for_divisor,
    compatible,
    flag_equivalence,
    meet_all,
    meet_divisor,
    product_to_decorated,
    strata_product_to_decorated,
)
from m0nbar.oracle import random_decorated_tree, random_stable_tree
from m0nbar.trees import (
    MarkedSet,
    _families,
    enumerate_stable_trees,
    make_split,
    tree_equal,
    tree_from_splits,
)

G5 = MarkedSet.range(5)
G6 = MarkedSet.range(6)
G9 = MarkedSet.range(9)


def table_inputs():
    """Every stable tree on 4..7 points with seeded psi weights, then
    seeded random decorated trees on 3..60 points."""
    rng = random.Random(37)
    for n in range(4, 8):
        for tree in enumerate_stable_trees(n):
            labels = rng.sample(tree.ground.labels, rng.randint(0, n))
            yield DecoratedTree(tree, {}, {lab: rng.randint(0, 2) for lab in labels})
    for n in range(3, 61):
        for _ in range(5):
            yield random_decorated_tree(n, rng)


def all_divisors(n):
    ground = MarkedSet.range(n)
    out = set()
    for size in range(2, n - 1):
        for side in itertools.combinations(ground.labels, size):
            out.add(make_split(ground, side))
    return sorted(out, key=lambda s: s.block)


def beyond(tree, v, e):
    """The leaves past edge e, seen from its end v.

    The child's side of an edge is its canonical block, so from the parent
    that is what lies past the edge, and from the child the complement.
    """
    parent, _ = tree.ends[tree.edges.index(e)]
    return e.block if v == parent else e.complement


def leaf_path(tree, a, b):
    """Vertices and edges on the walk from leaf a's vertex to leaf b's.

    edges[i] joins vertices[i] and vertices[i+1].  Both leaves climb to
    vertex 0 by the edge whose child is the current vertex; the climbs
    share everything above the last common vertex.
    """
    parent_edge = {child: i for i, (_, child) in enumerate(tree.ends)}

    def climb(v):
        path = [v]
        while v:
            v = tree.ends[parent_edge[v]][0]
            path.append(v)
        return path

    up, down = climb(tree.leaf_vertex(a)), climb(tree.leaf_vertex(b))
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    vertices = up + down[-2::-1]
    ids = [parent_edge[v] for v in up[:-1]] + [parent_edge[v] for v in down[-2::-1]]
    return vertices, [tree.edges[i] for i in ids]


class TestEmpty:
    def test_copies_and_pickles_are_empty_itself(self):
        assert copy.copy(EMPTY) is EMPTY
        assert copy.deepcopy(EMPTY) is EMPTY
        assert copy.deepcopy([EMPTY])[0] is EMPTY
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(EMPTY, protocol)) is EMPTY, protocol

    def test_is_falsy_and_reads_empty(self):
        assert bool(EMPTY) is False
        assert repr(EMPTY) == "Empty"


class TestCompatible:
    def test_nested_blocks(self):
        assert compatible(make_split(G5, {1, 2}), make_split(G5, {4, 5}))

    def test_crossing_blocks(self):
        assert not compatible(make_split(G5, {1, 2}), make_split(G5, {1, 3}))

    def test_self(self):
        s = make_split(G5, {1, 2})
        assert compatible(s, s)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            compatible(make_split(G5, {1, 2}), make_split(G6, {1, 2}))


class TestColoring:
    def test_nine_point_example(self, nine_point_tree):
        t = nine_point_tree
        d = make_split(G9, {3, 7, 9})
        coloring = color_for_divisor(t, d)
        assert {lab for lab, c in coloring.leaf_colors.items() if c == BLUE} == {3, 7, 9}
        expected_edge_colors = {
            make_split(G9, {2, 6, 8}): RED,
            make_split(G9, {3, 5, 7, 9}): RED,
            make_split(G9, {1, 4}): RED,
            make_split(G9, {3, 9}): BLUE,
        }
        assert coloring.edge_colors == expected_edge_colors
        # the split vertex separates the {3,7,9} side: it carries leaves 5 and 7
        assert coloring.split_vertex == t.leaf_vertex(5) == t.leaf_vertex(7)

    def test_single_vertex_tree(self):
        t = tree_from_splits(G5, ())
        coloring = color_for_divisor(t, make_split(G5, {1, 2}))
        assert coloring.split_vertex == 0
        assert coloring.leaf_colors == {1: RED, 2: RED, 3: BLUE, 4: BLUE, 5: BLUE}

    def test_incompatible_divisor_reports_witness(self):
        t = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        with pytest.raises(EdgeConditionFails) as info:
            color_for_divisor(t, make_split(G5, {1, 3}))
        assert info.value.witness == make_split(G5, {1, 2})

    def test_branches_at_split_vertex_are_monochromatic(self):
        for n in (5, 6):
            for t in enumerate_stable_trees(n):
                for d in all_divisors(n):
                    try:
                        coloring = color_for_divisor(t, d)
                    except EdgeConditionFails:
                        continue
                    v = coloring.split_vertex
                    for e in t.edges_at(v):
                        side = set(beyond(t, v, e))
                        # an edge lies past e iff one of its sides does; e
                        # itself is one of them
                        colors = {coloring.edge_colors[f] for f in t.edges
                                  if side.issuperset(f.block) or side.issuperset(f.complement)}
                        colors |= {coloring.leaf_colors[lab] for lab in side}
                        assert len(colors) == 1

    def test_blue_edges_lie_strictly_inside_the_block(self):
        for t in enumerate_stable_trees(6):
            for d in all_divisors(6):
                if not all(compatible(e, d) for e in t.edges):
                    continue
                coloring = color_for_divisor(t, d)
                for e in t.edges:
                    inside = set(e.block) < set(d.block)
                    assert coloring.edge_colors[e] == (BLUE if inside else RED)

    def test_split_vertex_is_path_independent(self):
        # recompute the vertex from every blue/red leaf pair: walk from the
        # blue leaf toward the red one and stop just before the first red edge
        for n in (5, 6):
            for t in enumerate_stable_trees(n):
                for d in all_divisors(n):
                    try:
                        coloring = color_for_divisor(t, d)
                    except EdgeConditionFails:
                        continue
                    for blue_leaf in d.block:
                        for red_leaf in d.complement:
                            vertices, edges = leaf_path(t, blue_leaf, red_leaf)
                            vertex = vertices[-1]
                            for i, e in enumerate(edges):
                                if coloring.edge_colors[e] == RED:
                                    vertex = vertices[i]
                                    break
                            assert vertex == coloring.split_vertex


class TestMeetDivisor:
    def test_nine_point_insertion(self, nine_point_tree):
        d = make_split(G9, {3, 7, 9})
        result = meet_divisor(nine_point_tree, d)
        expected = tree_from_splits(G9, (*nine_point_tree.edges, d))
        assert tree_equal(result, expected)

    def test_existing_edge_returns_same_stratum(self, nine_point_tree):
        d = make_split(G9, {2, 6, 8})
        assert meet_divisor(nine_point_tree, d) is nine_point_tree

    def test_incompatible_gives_empty(self):
        t = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        assert meet_divisor(t, make_split(G5, {1, 3})) is EMPTY

    def test_agrees_with_coloring_construction(self):
        for n in (5, 6):
            for t in enumerate_stable_trees(n):
                for d in all_divisors(n):
                    met = meet_divisor(t, d)
                    try:
                        coloring = color_for_divisor(t, d)
                    except EdgeConditionFails:
                        assert met is EMPTY
                        continue
                    assert met is not EMPTY
                    assert tree_equal(apply_coloring(coloring), met)

    def test_meets_exactly_the_compatible_divisors_past_n_6(self):
        rng = random.Random(12)
        kinds = {True: 0, False: 0}
        for n in range(10, 41):
            for _ in range(4):
                t = random_stable_tree(n, rng)
                ground = t.ground
                # a union of some branches at one vertex never crosses an
                # edge; a random side almost always does at these sizes
                v = rng.randrange(t.num_vertices)
                branches = [beyond(t, v, e) for e in t.edges_at(v)]
                branches += [(lab,) for lab in t.vertex_leaves[v]]
                picked = rng.sample(branches, rng.randint(1, len(branches) - 2))
                sides = [[lab for b in picked for lab in b]]
                sides += [rng.sample(ground.labels, rng.randint(2, n - 2)) for _ in range(3)]
                for side in sides:
                    if len(side) < 2:
                        continue  # a lone leaf is no split
                    d = make_split(ground, side)
                    meets = all(compatible(e, d) for e in t.edges)
                    kinds[meets] += 1
                    met = meet_divisor(t, d)
                    assert (met is EMPTY) == (not meets)
                    if meets:
                        assert frozenset(met.edges) == frozenset(t.edges) | {d}
        assert min(kinds.values()) > 50


class TestMeetAll:
    def test_single(self, nine_point_tree):
        assert tree_equal(meet_all([nine_point_tree]), nine_point_tree)

    def test_caterpillar(self):
        t1 = tree_from_splits(G6, (make_split(G6, {1, 2}),))
        t2 = tree_from_splits(G6, (make_split(G6, {5, 6}),))
        met = meet_all([t1, t2])
        assert met.edges == (make_split(G6, {1, 2}), make_split(G6, {5, 6}))

    def test_incompatible(self):
        t1 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t2 = tree_from_splits(G5, (make_split(G5, {1, 3}),))
        assert meet_all([t1, t2]) is EMPTY

    def test_idempotent(self, nine_point_tree):
        assert tree_equal(meet_all([nine_point_tree, nine_point_tree]), nine_point_tree)

    def test_order_independent_on_random_shuffles(self):
        rng = random.Random(7)
        trees = [t for t in enumerate_stable_trees(6) if t.codim >= 1]
        for _ in range(60):
            sample = rng.sample(trees, rng.randint(2, 4))
            met = meet_all(sample)
            for _ in range(3):
                shuffled = sample[:]
                rng.shuffle(shuffled)
                other = meet_all(shuffled)
                if met is EMPTY:
                    assert other is EMPTY
                else:
                    assert tree_equal(met, other)


class TestFlagEquivalence:
    def test_reflexive(self, nine_point_tree):
        assert flag_equivalence(nine_point_tree, nine_point_tree)

    def test_disjoint_divisors(self):
        t1 = tree_from_splits(G6, (make_split(G6, {1, 2}),))
        t2 = tree_from_splits(G6, (make_split(G6, {5, 6}),))
        assert flag_equivalence(t1, t2)

    def test_crossing_divisors(self):
        t1 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t2 = tree_from_splits(G5, (make_split(G5, {1, 3}),))
        assert not flag_equivalence(t1, t2)

    def test_matches_meet_all_exhaustively(self):
        for n in (5, 6):
            trees = list(enumerate_stable_trees(n))
            for t1, t2 in itertools.combinations_with_replacement(trees, 2):
                assert flag_equivalence(t1, t2) == (meet_all([t1, t2]) is not EMPTY)

    def test_matches_meet_all_on_sampled_seven_point_pairs(self):
        trees = [t for t in enumerate_stable_trees(7) if t.codim >= 1]
        rng = random.Random(0)
        for _ in range(100_000):
            t1 = trees[rng.randrange(len(trees))]
            t2 = trees[rng.randrange(len(trees))]
            assert flag_equivalence(t1, t2) == (meet_all([t1, t2]) is not EMPTY)

    def test_matches_common_coarsening_search(self):
        # independent witness: an enumerated tree refining both split systems
        trees = list(enumerate_stable_trees(5))
        for t1, t2 in itertools.combinations_with_replacement(trees, 2):
            union = frozenset(t1.edges) | frozenset(t2.edges)
            witnessed = any(union <= frozenset(t.edges) for t in trees)
            assert flag_equivalence(t1, t2) == witnessed


    def test_matches_all_pairs_compatible_on_random_pairs(self):
        # sizes flag_certify never reaches; a tree and a coarsening of it
        # always meet, so both outcomes are tested
        rng = random.Random(8)
        seen = set()
        for n in range(8, 31):
            ground = MarkedSet.range(n)
            for _ in range(20):
                t1 = random_stable_tree(n, rng)
                t2 = random_stable_tree(n, rng)
                coarser = tree_from_splits(ground, rng.sample(t1.edges, len(t1.edges) // 2))
                for a, b in ((t1, t2), (t2, t1), (t1, coarser), (coarser, t2)):
                    expected = all(compatible(s1, s2) for s1 in a.edges for s2 in b.edges)
                    assert flag_equivalence(a, b) == expected
                    seen.add(expected)
        assert seen == {True, False}

    def test_matches_all_pairs_compatible_on_every_five_point_pair(self):
        trees = list(enumerate_stable_trees(5))
        for t1, t2 in itertools.product(trees, repeat=2):
            expected = all(compatible(s1, s2) for s1 in t1.edges for s2 in t2.edges)
            assert flag_equivalence(t1, t2) == expected

    def test_is_the_mask_predicate_on_enumerated_families(self):
        # flag_certify calls _blocks_meet on the enumerated mask families
        # directly, so it certifies the predicate flag_equivalence runs
        for n in (3, 4, 5):
            trees = list(enumerate_stable_trees(n))
            families = list(_families(n))
            assert len(families) == len(trees)
            for (t1, f1), (t2, f2) in itertools.product(zip(trees, families), repeat=2):
                assert flag_equivalence(t1, t2) == _blocks_meet(f1, f2)

    def test_ground_mismatch(self):
        t5 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t6 = tree_from_splits(G6, (make_split(G6, {1, 2}),))
        with pytest.raises(GroundMismatch):
            flag_equivalence(t5, t6)
        with pytest.raises(GroundMismatch):
            flag_equivalence(tree_from_splits(G6, ()), t5)


class TestProductToDecorated:
    def test_fifteen_point_decoration(self, example_product):
        decorated = product_to_decorated(example_product)
        tree = decorated.tree
        assert sorted(tree.dims[v] for v in tree.vertices) == [0, 0, 1, 1, 2, 3]
        g15 = example_product.ground
        weight_by_side = {
            frozenset({1, 2}): 1,
            frozenset({3, 4, 5}): 2,
            frozenset({1, 2, 3, 4, 5, 6, 7, 8}): 3,
            frozenset({11, 12}): 0,
            frozenset({13, 14, 15}): 1,
        }
        for side, expected in weight_by_side.items():
            assert decorated.edge_weight[make_split(g15, side)] == expected
        # the dimension-balance identity comes out automatically
        assert decorated.weight_total == tree.dim == 7

    def test_pure_psi_product(self):
        product = BoundaryProduct(G6, {}, {1: 1, 2: 1, 3: 1})
        decorated = product_to_decorated(product)
        assert decorated.tree.num_vertices == 1
        assert decorated.psi_weight == {1: 1, 2: 1, 3: 1}

    def test_incompatible_support_is_empty(self):
        product = BoundaryProduct(
            G5, {make_split(G5, {1, 2}): 1, make_split(G5, {1, 3}): 1}, {}
        )
        assert product_to_decorated(product) is EMPTY

    def test_degree_enforcement(self):
        product = BoundaryProduct(G5, {make_split(G5, {1, 2}): 1}, {})
        with pytest.raises(DegreeMismatch):
            product_to_decorated(product)

    def test_exponents_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundaryProduct(G5, {make_split(G5, {1, 2}): 0}, {})
        with pytest.raises(ValueError):
            BoundaryProduct(G5, {}, {1: 0})


class TestDecoratedTree:
    def test_weights_in_edge_order_and_in_any_order_agree(self, nine_point_tree):
        tree = nine_point_tree
        given = {e: k for k, e in enumerate(tree.edges)}
        shuffled = dict(reversed(given.items()))
        partial = {tree.edges[1]: 1, tree.edges[3]: 3}
        for weights in (given, shuffled, partial):
            decorated = DecoratedTree(tree, weights, {})
            assert list(decorated.edge_weight) == list(tree.edges)
            assert decorated.edge_weight == {e: weights.get(e, 0) for e in tree.edges}
        # the decorated tree keeps its own copy
        decorated = DecoratedTree(tree, given, {})
        given[tree.edges[0]] = 5
        assert decorated.edge_weight[tree.edges[0]] == 0

    def test_foreign_edge_and_negative_weight_raise(self, nine_point_tree):
        tree = nine_point_tree
        foreign = make_split(G9, {2, 3})
        assert foreign not in tree.edges
        # as many weights as edges, one of them foreign
        swapped = {foreign if i == 2 else e: 1 for i, e in enumerate(tree.edges)}
        for weights in ({foreign: 1}, swapped):
            with pytest.raises(NotInternalEdge):
                DecoratedTree(tree, weights, {})
        for weights in ({e: -1 for e in tree.edges}, {tree.edges[0]: -1}):
            with pytest.raises(ValueError):
                DecoratedTree(tree, weights, {})


class TestStrataProduct:
    def test_self_intersection(self):
        t = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        decorated = strata_product_to_decorated([t, t])
        assert tree_equal(decorated.tree, t)
        assert decorated.edge_weight[make_split(G5, {1, 2})] == 1

    def test_matches_divisor_power_decoration(self, example_product):
        # the same product expressed as twelve codim-1 strata
        g15 = example_product.ground
        factors = []
        for split, power in example_product.divisor_powers.items():
            factors += [tree_from_splits(g15, (split,))] * power
        via_strata = strata_product_to_decorated(factors)
        via_powers = product_to_decorated(example_product)
        assert tree_equal(via_strata.tree, via_powers.tree)
        assert via_strata.edge_weight == via_powers.edge_weight

    def test_empty_propagates(self):
        t1 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t2 = tree_from_splits(G5, (make_split(G5, {1, 3}),))
        assert strata_product_to_decorated([t1, t2]) is EMPTY

    def test_codimension_budget(self):
        t = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        with pytest.raises(DegreeMismatch, match="codimensions sum to 1 != n - 3 = 2"):
            strata_product_to_decorated([t])
        with pytest.raises(DegreeMismatch, match="codimensions sum to 3 != n - 3 = 2"):
            strata_product_to_decorated([t, t, t])
        with pytest.raises(ValueError):
            strata_product_to_decorated([])

    def test_mixed_ground_sets_raise(self):
        t5 = tree_from_splits(G5, (make_split(G5, {1, 2}),))
        t6 = tree_from_splits(G6, (make_split(G6, {1, 2}),))
        # the codimensions fit the first stratum's n, so only the ground sets
        # are wrong; in the last product the stranger has no edge to carry
        # its ground set
        for trees in ([t5, t6], [t6, t5, t5], [t5, t5, tree_from_splits(G6, ())]):
            with pytest.raises(GroundMismatch):
                strata_product_to_decorated(trees)

    def test_matches_the_meet_weighted_by_containment(self):
        # every pair of strata at n = 6 whose codimensions sum to n - 3
        trees = list(enumerate_stable_trees(6))
        pairs = [(t1, t2) for t1 in trees for t2 in trees if t1.codim + t2.codim == 3]
        assert len(pairs) == 5460
        kinds = collections.Counter(check_against_reference(pair) for pair in pairs)
        assert set(kinds) == {"empty", "weighted", "unweighted"}

    def test_matches_the_meet_on_sampled_products_at_n_8(self):
        # three to five strata on 8 points, with codimensions summing to 5:
        # half drawn from one maximal tree, so they meet and share edges,
        # half from independent random trees, which mostly do not meet
        rng = random.Random(41)
        ground = MarkedSet.range(8)
        kinds = collections.Counter()
        for _ in range(1500):
            k = rng.randint(3, 5)
            cuts = sorted(rng.choices(range(6), k=k - 1))
            codims = [b - a for a, b in zip([0, *cuts], [*cuts, 5])]
            shared = random_tree_of_codim(8, 5, rng) if rng.random() < 0.5 else None
            trees = []
            for c in codims:
                source = shared or random_tree_of_codim(8, c, rng)
                trees.append(tree_from_splits(ground, rng.sample(source.edges, c)))
            kinds[check_against_reference(trees)] += 1
        assert min(kinds[kind] for kind in ("empty", "weighted", "unweighted")) >= 100


def reference_strata_decoration(trees):
    """Decoration of a product of strata by its earlier definition: the meet
    of the strata, each edge weighted by the number of strata containing it
    less one."""
    meet = meet_all(trees)
    if meet is EMPTY:
        return EMPTY
    return DecoratedTree(meet, {e: sum(e in t.edges for t in trees) - 1 for e in meet.edges}, {})


def check_against_reference(trees):
    """Assert strata_product_to_decorated agrees with the reference; name the case."""
    got = strata_product_to_decorated(trees)
    want = reference_strata_decoration(trees)
    assert got == want
    if got is EMPTY:
        return "empty"
    return "weighted" if any(got.edge_weight.values()) else "unweighted"


def random_tree_of_codim(n, codim, rng):
    """A random stable tree on 1..n with at least ``codim`` edges."""
    while True:
        tree = random_stable_tree(n, rng)
        if tree.codim >= codim:
            return tree


class TestTables:
    """The tables a tree and a decoration build once match what they summarize."""

    def test_dims_are_degrees_less_three(self):
        for decorated in table_inputs():
            tree = decorated.tree
            dims = [len(tree.edges_at(v)) + len(tree.vertex_leaves[v]) - 3 for v in tree.vertices]
            assert list(tree.dims) == dims
            assert tree.dim == sum(dims)

    def test_ends_follow_the_edge_order(self):
        for decorated in table_inputs():
            tree = decorated.tree
            assert len(tree.ends) == len(tree.edges)
            for e, (p, c) in zip(tree.edges, tree.ends):
                # the child lists the edge toward vertex 0 first
                assert e in tree.edges_at(p) and tree.edges_at(c)[0] == e and c != 0
            # each label sits in the leaves of the vertex leaf_vertex names
            assert len(tree.vertex_leaves) == tree.num_vertices
            holder = {lab: v for v in tree.vertices for lab in tree.vertex_leaves[v]}
            assert holder == {lab: tree.leaf_vertex(lab) for lab in tree.ground.labels}

    def test_psi_pairs_are_the_leaf_scan(self):
        for decorated in table_inputs():
            tree, psi = decorated.tree, decorated.psi_weight
            for v in tree.vertices:
                scan = tuple((lab, psi[lab]) for lab in tree.vertex_leaves[v] if lab in psi)
                assert decorated.vertex_psi[v] == scan
