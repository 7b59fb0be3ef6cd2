"""The brute-force verifiers themselves."""

import hashlib
import math
import random

import pytest

from m0nbar.combinat import multinomial
from m0nbar.errors import BudgetExceeded, DegreeMismatch, TooLarge
from m0nbar.intersect import BoundaryProduct, product_to_decorated
from m0nbar.oracle import (
    compositions,
    expansion_eval,
    flag_certify,
    random_decorated_tree,
    random_stable_tree,
    string_eq_psi_integral,
    surviving_decompositions,
)
from m0nbar.trees import MarkedSet, make_split
from m0nbar.weights import balance

# sha256 of the seeded random_stable_tree / random_decorated_tree streams
PINNED_STREAMS = "6eed5c07ecf2ed61b86682b630d751a21b152c37dc5a47600b8e833e6daa3517"


class TestExpansion:
    def test_fifteen_point_example(self, example_product):
        decorated = product_to_decorated(example_product)
        assert expansion_eval(decorated) == -36
        assert len(surviving_decompositions(decorated)) == 1

    def test_psi_example(self, psi_example_product):
        decorated = product_to_decorated(psi_example_product)
        assert expansion_eval(decorated) == 3
        assert len(surviving_decompositions(decorated)) == 1

    def test_no_balance_means_no_surviving_tuple(self):
        g7 = MarkedSet.range(7)
        decorated = product_to_decorated(
            BoundaryProduct(g7, {make_split(g7, {1, 2}): 3, make_split(g7, {5, 6, 7}): 1}, {})
        )
        assert surviving_decompositions(decorated) == []
        assert expansion_eval(decorated) == 0

    def test_surviving_tuple_matches_greedy_balance(self):
        rng = random.Random(23)
        for _ in range(400):
            decorated = random_decorated_tree(rng.randint(4, 8), rng)
            terms = surviving_decompositions(decorated)
            assert len(terms) <= 1
            weighting = balance(decorated)
            if weighting is None:
                assert terms == []
            else:
                assert terms[0][0] == weighting.half_weight

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_uniqueness_exhaustive_over_all_weightings(self, n):
        # every stable tree, every split of its dimension across edges and
        # leaf psi weights: never more than one surviving decomposition, and
        # the greedy answer is exactly that one
        from m0nbar.intersect import DecoratedTree
        from m0nbar.trees import enumerate_stable_trees, ordered_splits

        for tree in enumerate_stable_trees(n):
            edges = ordered_splits(tree.splits)
            leaves = tree.ground.labels
            slots = len(edges) + len(leaves)
            for vec in compositions(tree.dim, slots):
                decorated = DecoratedTree(
                    tree,
                    dict(zip(edges, vec)),
                    {lab: w for lab, w in zip(leaves, vec[len(edges):]) if w},
                )
                terms = surviving_decompositions(decorated)
                assert len(terms) <= 1
                weighting = balance(decorated)
                if weighting is None:
                    assert terms == []
                else:
                    assert terms[0][0] == weighting.half_weight

    def test_budget_guard(self):
        g30 = MarkedSet.range(30)
        decorated = product_to_decorated(
            BoundaryProduct(g30, {make_split(g30, {1, 2}): 27}, {})
        )
        with pytest.raises(BudgetExceeded):
            expansion_eval(decorated)


class TestStringEquation:
    def test_three_points_is_a_point(self):
        assert string_eq_psi_integral(3, {}) == 1

    def test_six_points_example(self):
        assert string_eq_psi_integral(6, {1: 1, 2: 1, 3: 1, 4: 0}) == 6

    @pytest.mark.parametrize("n", range(3, 8))
    def test_matches_multinomial_exhaustively(self, n):
        for vec in compositions(n - 3, n):
            exps = {i + 1: k for i, k in enumerate(vec)}
            assert string_eq_psi_integral(n, exps) == multinomial(n - 3, vec)

    @pytest.mark.parametrize("n", [9, 10])
    def test_matches_multinomial_on_samples(self, n):
        rng = random.Random(n)
        for _ in range(300):
            vec = [0] * n
            for _ in range(n - 3):
                vec[rng.randrange(n)] += 1
            exps = {i + 1: k for i, k in enumerate(vec)}
            assert string_eq_psi_integral(n, exps) == multinomial(n - 3, vec)

    def test_degree_enforcement(self):
        with pytest.raises(DegreeMismatch):
            string_eq_psi_integral(6, {1: 1})

    def test_one_point_carries_everything_at_600_points(self):
        # 597 forgetting steps in a row, past the default recursion limit
        assert string_eq_psi_integral(600, {1: 597}) == 1

    def test_two_exponent_classes_at_600_points(self):
        assert string_eq_psi_integral(600, {1: 2, 2: 595}) == multinomial(597, (2, 595))


class TestFlagCertify:
    def test_four_points(self):
        report = flag_certify(4)
        assert report.pairs_checked == 6  # three divisors, self-pairs included
        assert report.ok

    def test_five_points_exhaustive(self):
        report = flag_certify(5)
        assert report.pairs_checked == 25 * 26 // 2
        assert report.discrepancies == ()

    def test_sampling_is_reproducible(self):
        first = flag_certify(6, sample_limit=500, seed=42)
        second = flag_certify(6, sample_limit=500, seed=42)
        assert first.pairs_checked == second.pairs_checked == 500
        assert first.ok and second.ok

    def test_guard(self):
        with pytest.raises(TooLarge):
            flag_certify(3)
        with pytest.raises(TooLarge):
            flag_certify(8)


class TestGenerators:
    def test_random_trees_are_stable(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(3, 12)
            tree = random_stable_tree(n, rng)
            assert all(tree.degree(v) >= 3 for v in tree.vertices)
            assert tree.dim + tree.codim == n - 3

    def test_random_decorations_balance_dimension(self):
        rng = random.Random(2)
        for _ in range(200):
            decorated = random_decorated_tree(rng.randint(3, 12), rng)
            assert decorated.weight_total == decorated.tree.dim

    def test_seeded_streams_are_pinned(self):
        # many seeded tests draw from these generators; a change to the
        # draw sequence or to the tree built from it changes this digest
        digest = hashlib.sha256()
        for seed in range(50):
            for n in (*range(3, 13), 20, 40):
                tree = random_stable_tree(n, random.Random(seed))
                digest.update("; ".join(map(str, tree.edges)).encode() + b"\n")
                decorated = random_decorated_tree(n, random.Random(seed))
                digest.update(repr((
                    [str(e) for e in decorated.tree.edges],
                    [(str(e), k) for e, k in decorated.edge_weight.items()],
                    sorted(decorated.psi_weight.items()),
                )).encode() + b"\n")
        assert digest.hexdigest() == PINNED_STREAMS

    def test_composition_count(self):
        for total, slots in ((3, 4), (5, 3), (0, 4)):
            expected = math.comb(total + slots - 1, slots - 1)
            assert sum(1 for _ in compositions(total, slots)) == expected
