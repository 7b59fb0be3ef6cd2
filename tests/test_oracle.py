"""The brute-force verifiers themselves."""

import hashlib
import itertools
import math
import random
import time
import types

import pytest

from m0nbar import oracle
from m0nbar.combinat import multinomial
from m0nbar.errors import BudgetExceeded, DegreeMismatch, TooLarge
from m0nbar.intersect import BoundaryProduct, product_to_decorated
from m0nbar.oracle import (
    _sampled_pairs,
    compositions,
    expansion_eval,
    flag_certify,
    random_decorated_tree,
    random_stable_tree,
    string_eq_psi_integral,
    surviving_decompositions,
)
from m0nbar.cli import main
from m0nbar.trees import (
    ENUMERATION_LIMIT,
    MarkedSet,
    Split,
    _split_table,
    enumerate_stable_trees,
    make_split,
    tree_from_splits,
)
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
                assert terms[0][0] == weighting.halves

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_uniqueness_exhaustive_over_all_weightings(self, n):
        # every stable tree, every split of its dimension across edges and
        # leaf psi weights: never more than one surviving decomposition, and
        # the greedy answer is exactly that one
        from m0nbar.intersect import DecoratedTree
        from m0nbar.trees import enumerate_stable_trees

        for tree in enumerate_stable_trees(n):
            edges = tree.edges
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
                    assert terms[0][0] == weighting.halves

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

    def test_zero_exponents_are_ignored(self):
        assert string_eq_psi_integral(3, {1: 0, 2: 0, 3: 0}) == 1
        assert string_eq_psi_integral(6, {1: 1, 2: 1, 3: 1, 4: 0, 5: 0, 6: 0}) == 6
        assert string_eq_psi_integral(7, {2: 0, 5: 4, 7: 0}) == 1

    def test_negative_exponent_is_rejected_before_the_degree(self):
        # the degree is wrong in the first case and right in the second
        for exps in ({1: -1}, {1: 4, 2: -1}):
            with pytest.raises(ValueError, match="non-negative"):
                string_eq_psi_integral(6, exps)
        with pytest.raises(DegreeMismatch):
            string_eq_psi_integral(5, {})

    def test_read_only_mapping(self):
        exps = types.MappingProxyType({1: 2, 2: 1, 3: 0})
        assert string_eq_psi_integral(6, exps) == 3
        with pytest.raises(ValueError):
            string_eq_psi_integral(6, types.MappingProxyType({1: -1, 2: 4}))

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

    # the stratum counts of n = 4..7 and one count past 2**20
    @pytest.mark.parametrize("count", [3, 25, 235, 2751, 2**20 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 3, 42, -5, 2**70, "flag"])
    def test_sampled_pairs_are_the_randrange_pairs(self, count, seed):
        # _sampled_pairs reads CPython's rejection sampler directly; this
        # pins it to randrange on whichever interpreter runs the tests
        rng = random.Random(seed)
        expected = [(rng.randrange(count), rng.randrange(count)) for _ in range(5000)]
        assert list(_sampled_pairs(random.Random(seed), count, 5000)) == expected

    def test_a_predicate_that_always_meets_is_caught(self, monkeypatch):
        monkeypatch.setattr(oracle, "_blocks_meet", lambda masks1, masks2: True)

        def unrealized(strata, pairs):
            # the witness as it was first written: the frozenset union of
            # the two split systems, looked up among the enumerated systems
            systems = {frozenset(t.edges) for t in strata}
            return tuple((t1, t2) for t1, t2 in pairs
                         if frozenset(t1.edges) | frozenset(t2.edges) not in systems)

        strata = [t for t in enumerate_stable_trees(5) if t.codim >= 1]
        report = flag_certify(5)
        assert report.pairs_checked == len(strata) * (len(strata) + 1) // 2
        expected = unrealized(strata, itertools.combinations_with_replacement(strata, 2))
        assert expected and report.discrepancies == expected

        strata = [t for t in enumerate_stable_trees(6) if t.codim >= 1]
        rng = random.Random(3)
        count = len(strata)
        drawn = [(strata[rng.randrange(count)], strata[rng.randrange(count)]) for _ in range(500)]
        report = flag_certify(6, sample_limit=500, seed=3)
        assert report.pairs_checked == 500
        expected = unrealized(strata, drawn)
        assert expected and report.discrepancies == expected

    @pytest.mark.parametrize("n, limit, seed", [(4, None, 0), (5, None, 0), (6, None, 0),
                                                (7, 20_000, 1)])
    def test_walks_the_enumerated_strata_in_order(self, n, limit, seed, monkeypatch):
        # pair index i names the i-th stratum of enumerate_stable_trees(n),
        # so a seed draws the same pairs of strata as a walk over the trees;
        # masks are compared as sets, since a family need not list them in
        # edges order
        strata = [sorted(e.block_mask for e in t.edges)
                  for t in enumerate_stable_trees(n) if t.codim]
        walked = []
        real = oracle._blocks_meet

        def recorded(masks1, masks2):
            walked.append((sorted(masks1), sorted(masks2)))
            return real(masks1, masks2)

        monkeypatch.setattr(oracle, "_blocks_meet", recorded)
        assert flag_certify(n, limit, seed).ok
        count = len(strata)
        if limit is None:
            pairs = list(itertools.combinations_with_replacement(range(count), 2))
        else:
            rng = random.Random(seed)
            pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(limit)]
        assert {i for pair in pairs for i in pair} == set(range(count))
        assert walked == [(strata[i], strata[j]) for i, j in pairs]

    def test_guard(self):
        with pytest.raises(TooLarge):
            flag_certify(3)
        with pytest.raises(TooLarge):
            flag_certify(8)

    def test_negative_sample_limit_is_refused(self):
        with pytest.raises(ValueError, match="sample_limit"):
            flag_certify(5, sample_limit=-1)
        report = flag_certify(5, sample_limit=0)
        assert report.pairs_checked == 0 and report.ok


class TestGenerators:
    def test_random_trees_are_stable(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(3, 12)
            tree = random_stable_tree(n, rng)
            assert all(tree.dims[v] + 3 >= 3 for v in tree.vertices)
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

    def test_draws_at_small_n_share_the_table_splits(self):
        # the pinned draws again up to the enumeration guard: each edge is the
        # one table Split of its block, handed to every draw and to the
        # enumerated trees, and a fresh Split of the block gives the same tree
        for n in range(3, ENUMERATION_LIMIT + 1):
            table = _split_table(n)
            assert len(table) == 2 ** (n - 1) - n - 1
            assert all(s.block_mask == m for m, s in table.items())
            ground = MarkedSet.range(n)
            held = {}
            drawn = 0
            for seed in range(50):
                tree = random_decorated_tree(n, random.Random(seed)).tree
                fresh = [Split(ground, e.block_mask) for e in tree.edges]
                assert tree_from_splits(ground, fresh) == tree
                drawn += tree.codim
                for e in tree.edges:
                    assert held.setdefault(e.block_mask, e) is e is table[e.block_mask]
            assert n < 5 or drawn > len(held)
            # the first few thousand trees: all of them up to n = 6
            for tree in itertools.islice(enumerate_stable_trees(n), 3000):
                assert all(e is table[e.block_mask] for e in tree.edges)

    def test_no_split_table_above_the_guard(self, capsys):
        # enumeration refuses before a table is asked for, and larger draws
        # build their own Splits
        before = _split_table.cache_info()
        with pytest.raises(TooLarge):
            enumerate_stable_trees(ENUMERATION_LIMIT + 1)
        assert main(["enumerate", "--n", str(ENUMERATION_LIMIT + 1)]) == 2
        capsys.readouterr()
        first = random_stable_tree(ENUMERATION_LIMIT + 3, random.Random(4))
        again = random_stable_tree(ENUMERATION_LIMIT + 3, random.Random(4))
        assert first == again and first.codim > 0
        assert all(a is not b for a, b in zip(first.edges, again.edges))
        assert _split_table.cache_info() == before

    def test_composition_count(self):
        for total, slots in ((3, 4), (5, 3), (0, 4)):
            expected = math.comb(total + slots - 1, slots - 1)
            assert sum(1 for _ in compositions(total, slots)) == expected

    @staticmethod
    def _recursive_compositions(total, slots):
        # the reference order: each first entry, then the compositions of the rest
        if total < 0:
            return  # every part is non-negative
        if slots == 0:
            if total == 0:
                yield ()
            return
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in TestGenerators._recursive_compositions(total - first, slots - 1):
                yield (first,) + rest

    def test_negative_total_has_no_composition(self):
        for total in (-1, -2, -7):
            for slots in range(0, 5):
                assert list(compositions(total, slots)) == [], (total, slots)

    def test_compositions_keep_the_recursive_order(self):
        for total in range(-2, 7):
            for slots in range(0, 7):
                assert list(compositions(total, slots)) == list(
                    self._recursive_compositions(total, slots)
                ), (total, slots)

    def test_compositions_of_many_slots(self):
        # slots cost no recursion depth, and each tuple costs O(slots) work
        # in C: a generator nested per slot raises at 5000 and takes about
        # 3.5 s to list the 20,100 tuples of 200 slots
        assert list(compositions(0, 5000)) == [(0,) * 5000]
        start = time.perf_counter()
        assert sum(1 for _ in compositions(2, 200)) == math.comb(201, 2)
        assert time.perf_counter() - start < 1.5
        head = list(itertools.islice(compositions(2, 2000), 3))
        assert head == [(0,) * 1998 + (0, 2), (0,) * 1998 + (1, 1), (0,) * 1998 + (2, 0)]
