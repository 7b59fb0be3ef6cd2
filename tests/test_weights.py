"""Balanced weightings and the closed evaluation."""

import collections
import hashlib
import random

import pytest

from conftest import bench_gen, half_weights
from m0nbar.cli import parse, to_boundary_product
from m0nbar.errors import DegreeMismatch, DimensionUnbalanced, LabelOutOfRange, NoBalanceGiven
from m0nbar.intersect import BoundaryProduct, DecoratedTree, product_to_decorated
from m0nbar.oracle import expansion_eval, random_decorated_tree, surviving_decompositions
from m0nbar.trees import MarkedSet, make_split, tree_from_splits
from m0nbar.weights import balance, evaluate, evaluate_ratio, integrate_psi_monomial

G4 = MarkedSet.range(4)
G5 = MarkedSet.range(5)
G6 = MarkedSet.range(6)

# sha256 of balance's peel traces, half-weights and values over a seeded stream
PINNED_PEELS = "3aaa509f2137e14ffede63ca818f5cbc66e3679cb040f5de87dc4421275641df"


def decorated_caterpillar():
    """D_{12}^3 D_{567} on 1..7: dims (0,1,1), weights (2,0); no balance."""
    g7 = MarkedSet.range(7)
    product = BoundaryProduct(
        g7, {make_split(g7, {1, 2}): 3, make_split(g7, {5, 6, 7}): 1}, {}
    )
    return product_to_decorated(product)


class TestBalance:
    def test_fifteen_point_half_weights(self, example_product):
        decorated = product_to_decorated(example_product)
        tree = decorated.tree
        halves = half_weights(balance(decorated))
        g15 = example_product.ground
        # identify vertices by an attached leaf
        u, w, v = tree.leaf_vertex(1), tree.leaf_vertex(6), tree.leaf_vertex(3)
        x, y, z = tree.leaf_vertex(9), tree.leaf_vertex(11), tree.leaf_vertex(13)
        e_uw = make_split(g15, {1, 2})
        e_wv = make_split(g15, {3, 4, 5})
        e_wx = make_split(g15, {1, 2, 3, 4, 5, 6, 7, 8})
        e_xy = make_split(g15, {11, 12})
        e_xz = make_split(g15, {13, 14, 15})
        assert (halves[(u, e_uw)], halves[(w, e_uw)]) == (0, 1)
        assert (halves[(w, e_wv)], halves[(v, e_wv)]) == (1, 1)
        assert (halves[(x, e_wx)], halves[(w, e_wx)]) == (2, 1)
        assert (halves[(x, e_xy)], halves[(y, e_xy)]) == (0, 0)
        assert (halves[(x, e_xz)], halves[(z, e_xz)]) == (0, 1)

    def test_psi_fixture_half_weights(self, psi_example_product):
        decorated = product_to_decorated(psi_example_product)
        tree = decorated.tree
        halves = half_weights(balance(decorated))
        g15 = psi_example_product.ground
        u, w, v = tree.leaf_vertex(1), tree.leaf_vertex(6), tree.leaf_vertex(3)
        x, z = tree.leaf_vertex(9), tree.leaf_vertex(13)
        assert halves[(w, make_split(g15, {1, 2}))] == 1
        assert halves[(u, make_split(g15, {1, 2}))] == 0
        assert halves[(w, make_split(g15, {3, 4, 5}))] == 0
        assert halves[(v, make_split(g15, {3, 4, 5}))] == 0
        assert halves[(x, make_split(g15, {1, 2, 3, 4, 5, 6, 7, 8}))] == 2
        assert halves[(w, make_split(g15, {1, 2, 3, 4, 5, 6, 7, 8}))] == 0
        assert halves[(x, make_split(g15, {13, 14, 15}))] == 0
        assert halves[(z, make_split(g15, {13, 14, 15}))] == 1

    def test_single_vertex_tree_has_empty_weighting(self):
        decorated = product_to_decorated(BoundaryProduct(G6, {}, {1: 1, 2: 1, 3: 1}))
        weighting = balance(decorated)
        assert weighting is not None
        assert weighting.halves == [] and half_weights(weighting) == {}
        # the one vertex's multinomial reads its psi weights alone
        assert evaluate(decorated).vertex_factors == (6,)

    def test_caterpillar_has_no_balance(self):
        assert balance(decorated_caterpillar()) is None

    def test_unbalanced_dimensions_are_rejected(self):
        tree = tree_from_splits(G6, (make_split(G6, {1, 2, 3}),))
        bad = DecoratedTree(tree, {make_split(G6, {1, 2, 3}): 1}, {})
        with pytest.raises(DimensionUnbalanced):
            balance(bad)
        with pytest.raises(DimensionUnbalanced):
            evaluate(bad)

    def test_peel_order_does_not_matter(self):
        # balance equals the unique decomposition the expansion oracle finds
        # without peeling, so no other peel order could reach another answer
        rng = random.Random(11)
        for _ in range(150):
            decorated = random_decorated_tree(rng.randint(4, 9), rng)
            survivors = surviving_decompositions(decorated)
            assert len(survivors) <= 1
            weighting = balance(decorated)
            if survivors:
                assert weighting.halves == survivors[0][0]
            else:
                assert weighting is None

    def test_halves_and_parts_agree_with_half_weight(self):
        rng = random.Random(13)
        for _ in range(300):
            decorated = random_decorated_tree(rng.randint(3, 30), rng)
            weighting = balance(decorated)
            if weighting is None:
                continue
            tree = decorated.tree
            for e, halves in zip(tree.edges, weighting.halves):
                assert sum(halves) == decorated.edge_weight[e]
            # the halves at each vertex, read by edges_at, and its psi
            # weights fill its dimension
            halves = half_weights(weighting)
            assert len(halves) == 2 * tree.codim
            for v in tree.vertices:
                at_v = sum(halves[(v, e)] for e in tree.edges_at(v))
                psi_v = sum(decorated.psi_weight.get(lab, 0) for lab in tree.vertex_leaves[v])
                assert at_v + psi_v == tree.dims[v]

    def test_a_failed_peel_ends_on_a_negative_half(self):
        # explain's "a half-weight went negative" line: a None with peels in
        # its trace stops at the first peel with a negative half
        rng = random.Random(31)
        traced = 0
        for _ in range(2000):
            decorated = random_decorated_tree(rng.randint(4, 20), rng)
            trace: list = []
            if balance(decorated, trace) is None and trace:
                traced += 1
                *done, (_, _, near, far) = trace
                assert near < 0 or far < 0
                assert all(a >= 0 and b >= 0 for _, _, a, b in done)
        assert traced > 100

    def test_peels_are_pinned(self):
        # the peel order, each peel's halves and the value, over 500 draws
        rng = random.Random(29)
        digest = hashlib.sha256()
        for _ in range(500):
            decorated = random_decorated_tree(rng.randint(4, 14), rng)
            trace: list = []
            weighting = balance(decorated, trace)
            halves = None if weighting is None else sorted(
                (v, e.block, h) for (v, e), h in half_weights(weighting).items()
            )
            digest.update(repr((
                [(v, str(e), near, far) for v, e, near, far in trace],
                halves,
                evaluate(decorated).value,
            )).encode() + b"\n")
        assert digest.hexdigest() == PINNED_PEELS


def cut_halves(decorated):
    """Each edge's (parent half, child half) from the cut equations, or None.

    The child half at vertex c is what c's dimension leaves after its psi
    weights and the parent halves of the edges below it; summed over the
    subtree of c, that is the cut equation of the edge above c.  A child is
    numbered above its parent, so walking the vertices from the highest
    number down fixes the edges below c before c.  None unless every child
    half lies in [0, k].
    """
    tree = decorated.tree
    need = [dim - sum(w for _, w in pairs) for dim, pairs in zip(tree.dims, decorated.vertex_psi)]
    weights = list(decorated.edge_weight.values())
    above = [None] * tree.num_vertices  # each vertex's parent edge
    for i, (p, c) in enumerate(tree.ends):
        assert p < c
        above[c] = i
    halves = [None] * len(weights)
    for c in range(tree.num_vertices - 1, 0, -1):
        i = above[c]
        k = weights[i]
        halves[i] = (k - need[c], need[c])
        need[tree.ends[i][0]] -= k - need[c]
    if all(0 <= hc <= k for (_, hc), k in zip(halves, weights)):
        return halves
    return None


class TestCutEquations:
    # the balanced weighting is the cut equations' one solution, so balance
    # is checked without the expansion oracle's budget at every n

    @staticmethod
    def agree(decorated):
        halves = cut_halves(decorated)
        weighting = balance(decorated)
        assert (None if weighting is None else weighting.halves) == halves, decorated
        return "no_balance" if halves is None else "ok"

    def test_random_decorated_trees(self):
        rng = random.Random(53)
        reasons = collections.Counter(
            self.agree(random_decorated_tree(n, rng)) for n in range(4, 31) for _ in range(150)
        )
        assert reasons == {"ok": 816, "no_balance": 3234}

    def test_generated_strata_and_batch_products(self):
        # bench/gen.py's large strata and small products, whose reasons the
        # generator certifies without m0nbar
        gen = bench_gen()
        strata = [inst for variant in (0, 1) for inst in gen.stratum_large(variant)]
        batch = [inst for inst in gen.batch_small(3, 400) if inst.reason != "empty"]
        for instances, counts in ((strata, {"ok": 30, "no_balance": 20}),
                                  (batch, {"ok": 200, "no_balance": 100})):
            reasons = collections.Counter()
            for inst in instances:
                decorated = product_to_decorated(to_boundary_product(parse(inst.text, inst.n)))
                reason = self.agree(decorated)
                assert reason == inst.reason, inst.key
                reasons[reason] += 1
            assert reasons == counts
        assert max(inst.n for inst in strata) == 2000


class TestEvaluate:
    def test_fifteen_point_value(self, example_product):
        decorated = product_to_decorated(example_product)
        result = evaluate(decorated)
        assert result.value == -36
        assert result.sign == -1
        nontrivial = sorted(f for f in result.edge_factors if f != 1)
        assert nontrivial == [2, 3]
        vertex_nontrivial = [f for f in result.vertex_factors if f != 1]
        assert vertex_nontrivial == [6]

    def test_psi_fixture_value(self, psi_example_product):
        decorated = product_to_decorated(psi_example_product)
        result = evaluate(decorated)
        assert result.value == 3
        assert result.sign == 1

    def test_swapped_psi_exponents_vanish(self):
        # same divisors but psi weights 2 at leaf 4 and 1 at leaf 7: leaf 4
        # sits at a dimension-1 vertex, so the product is zero
        from conftest import fifteen_point_product

        product = fifteen_point_product(psi={4: 2, 7: 1}, exponents=(2, 1, 3, 1, 2))
        decorated = product_to_decorated(product)
        result = evaluate(decorated)
        assert result.value == 0
        assert result.reason == "no_balance"
        assert expansion_eval(decorated) == 0

    def test_point_class_on_four_points(self):
        decorated = product_to_decorated(
            BoundaryProduct(G4, {make_split(G4, {1, 2}): 1}, {})
        )
        assert evaluate(decorated).value == 1

    def test_divisor_square_on_five_points(self):
        decorated = product_to_decorated(
            BoundaryProduct(G5, {make_split(G5, {1, 2}): 2}, {})
        )
        assert evaluate(decorated).value == -1
        assert expansion_eval(decorated) == -1

    def test_three_three_cube_on_six_points(self):
        decorated = product_to_decorated(
            BoundaryProduct(G6, {make_split(G6, {1, 2, 3}): 3}, {})
        )
        assert evaluate(decorated).value == 2
        assert expansion_eval(decorated) == 2

    def test_two_four_cube_on_six_points(self):
        decorated = product_to_decorated(
            BoundaryProduct(G6, {make_split(G6, {1, 2}): 3}, {})
        )
        assert evaluate(decorated).value == 1
        assert expansion_eval(decorated) == 1

    def test_caterpillar_evaluates_to_zero(self):
        decorated = decorated_caterpillar()
        result = evaluate(decorated)
        assert result.value == 0
        assert result.reason == "no_balance"
        assert expansion_eval(decorated) == 0

    def test_pure_divisor_sign_law(self):
        rng = random.Random(3)
        checked = 0
        while checked < 200:
            decorated = random_decorated_tree(rng.randint(4, 9), rng)
            if decorated.psi_weight:
                continue  # codim-0 trees have nowhere but psi to carry weight
            checked += 1
            result = evaluate(decorated)
            assert result.sign == (1 if decorated.tree.dim % 2 == 0 else -1)

    def test_reduces_to_psi_integral_without_edges(self):
        rng = random.Random(5)
        for n in (4, 5, 6, 7):
            tree = tree_from_splits(MarkedSet.range(n), ())
            for _ in range(20):
                psi = {}
                for _ in range(n - 3):
                    lab = rng.randint(1, n)
                    psi[lab] = psi.get(lab, 0) + 1
                decorated = DecoratedTree(tree, {}, psi)
                assert evaluate(decorated).value == integrate_psi_monomial(n, psi)


class TestEvaluateRatio:
    def test_fifteen_point_ratio(self, example_product):
        assert evaluate_ratio(product_to_decorated(example_product)) == -36

    def test_pure_psi_ratio(self):
        decorated = product_to_decorated(BoundaryProduct(G6, {}, {1: 1, 2: 1, 3: 1}))
        assert evaluate_ratio(decorated) == 6

    def test_point_class(self):
        decorated = product_to_decorated(
            BoundaryProduct(G4, {make_split(G4, {1, 2}): 1}, {})
        )
        assert evaluate_ratio(decorated) == 1

    def test_requires_a_balance(self):
        with pytest.raises(NoBalanceGiven):
            evaluate_ratio(decorated_caterpillar())

    def test_matches_evaluate_on_fuzzed_instances(self):
        rng = random.Random(17)
        for _ in range(1500):
            decorated = random_decorated_tree(rng.randint(4, 10), rng)
            result = evaluate(decorated)
            if result.weighting is None:
                assert result.value == 0
                with pytest.raises(NoBalanceGiven):
                    evaluate_ratio(decorated)
            else:
                assert evaluate_ratio(decorated) == result.value


class TestPsiIntegral:
    def test_examples(self):
        assert integrate_psi_monomial(6, {1: 1, 2: 1, 3: 1}) == 6
        assert integrate_psi_monomial(4, {1: 1}) == 1
        assert integrate_psi_monomial(5, {1: 2}) == 1

    def test_degree_enforcement(self):
        with pytest.raises(DegreeMismatch):
            integrate_psi_monomial(6, {1: 1})

    @pytest.mark.parametrize("label", [0, 6, 7])
    def test_label_outside_the_ground_set(self, label):
        # psi_7 does not exist on the 5-pointed space, as BoundaryProduct says
        with pytest.raises(LabelOutOfRange, match=f"label {label} is not in 1..5"):
            integrate_psi_monomial(5, {label: 2})
        with pytest.raises(LabelOutOfRange, match=f"label {label} is not in 1..5"):
            BoundaryProduct(MarkedSet.range(5), {}, {label: 2})


def test_empty_product_on_three_points_is_one():
    # the moduli space is a point; the empty product integrates to 1
    decorated = product_to_decorated(BoundaryProduct(MarkedSet.range(3), {}, {}))
    result = evaluate(decorated)
    assert result.value == 1
    assert evaluate_ratio(decorated) == 1
