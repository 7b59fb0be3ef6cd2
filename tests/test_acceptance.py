"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Expected values are frozen from independent calculations: closed
counting formulas, the full-expansion oracle, and the string-equation
recursion; nothing below trusts the code path it is checking.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import fifteen_point_product
from m0nbar.cli import main, parse, to_boundary_product
from m0nbar.errors import EdgeConditionFails, NoBalanceGiven
from m0nbar.intersect import (
    EMPTY,
    BoundaryProduct,
    apply_coloring,
    color_for_divisor,
    meet_divisor,
    product_to_decorated,
)
from m0nbar.oracle import (
    compositions,
    expansion_eval,
    flag_certify,
    random_decorated_tree,
    string_eq_psi_integral,
    surviving_decompositions,
)
from m0nbar.combinat import multinomial
from m0nbar.trees import (
    MarkedSet,
    enumerate_stable_trees,
    make_split,
    tree_equal,
    tree_from_splits,
)
from m0nbar.weights import balance, evaluate, evaluate_ratio

EXAMPLE = "D{1,2}^2 D{3,4,5}^3 D{1,2,3,4,5,6,7,8}^4 D{11,12} D{13,14,15}^2"
PSI_EXAMPLE = "psi4 psi7^2 D{1,2}^2 D{3,4,5} D{1,2,3,4,5,6,7,8}^3 D{11,12} D{13,14,15}^2"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_example_fixture(capsys):
    with criterion(1, "five-divisor product on 15 points gives -36 in under 10 ms"):
        expr = parse(EXAMPLE, 15)
        decorated = product_to_decorated(to_boundary_product(expr))
        result = evaluate(decorated)  # warm-up
        best = min(
            _timed(lambda: evaluate(product_to_decorated(to_boundary_product(expr))))
            for _ in range(5)
        )
        assert result.value == -36
        assert result.sign == -1
        factors = [f for _, f in result.edge_factors] + [f for _, f in result.vertex_factors]
        assert sorted(f for f in factors if f != 1) == [2, 3, 6]
        assert best < 0.010

        assert main(["eval", "--n", "15", EXAMPLE]) == 0
        assert "value = -36" in capsys.readouterr().out


def _timed(thunk):
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


def test_criterion_2_psi_fixture(capsys):
    with criterion(2, "psi-decorated product on 15 points gives +3 with the expected halves"):
        expr = parse(PSI_EXAMPLE, 15)
        decorated = product_to_decorated(to_boundary_product(expr))
        result = evaluate(decorated)
        assert result.value == 3

        tree = decorated.tree
        g15 = decorated.tree.ground
        u, w, v = tree.leaf_vertex(1), tree.leaf_vertex(6), tree.leaf_vertex(3)
        x, y, z = tree.leaf_vertex(9), tree.leaf_vertex(11), tree.leaf_vertex(13)
        weighting = result.weighting
        expected_halves = {
            (make_split(g15, {1, 2}), u, w): (0, 1),
            (make_split(g15, {3, 4, 5}), w, v): (0, 0),
            (make_split(g15, {1, 2, 3, 4, 5, 6, 7, 8}), x, w): (2, 0),
            (make_split(g15, {11, 12}), x, y): (0, 0),
            (make_split(g15, {13, 14, 15}), x, z): (0, 1),
        }
        for (edge, a, b), (ha, hb) in expected_halves.items():
            assert (weighting.half_weight[(a, edge)], weighting.half_weight[(b, edge)]) == (ha, hb)
        assert decorated.psi_weight == {4: 1, 7: 2}

        # the same divisors with the psi exponents swapped put weight 2 on a
        # dimension-1 vertex, so that product vanishes instead
        swapped = fifteen_point_product(psi={4: 2, 7: 1}, exponents=(2, 1, 3, 1, 2))
        assert evaluate(product_to_decorated(swapped)).value == 0

        assert main(["eval", "--n", "15", PSI_EXAMPLE]) == 0
        assert "value = 3" in capsys.readouterr().out


def test_criterion_3_ratio_consistency():
    with criterion(3, "factorial-ratio form equals the factored form on 10^4 fuzzed trees"):
        rng = random.Random(0)
        balanced = 0
        for _ in range(10_000):
            decorated = random_decorated_tree(rng.randint(4, 12), rng)
            result = evaluate(decorated)
            if result.weighting is None:
                assert result.value == 0
                with pytest.raises(NoBalanceGiven):
                    evaluate_ratio(decorated)
            else:
                balanced += 1
                assert evaluate_ratio(decorated) == result.value
        assert balanced > 1000  # the fuzz mix must actually exercise the ratio


def test_criterion_4_expansion_oracle_equivalence():
    with criterion(4, "full-expansion oracle agrees and never finds two surviving tuples"):
        start = time.perf_counter()
        rng = random.Random(1)
        for n in range(4, 9):
            for _ in range(2000):
                decorated = random_decorated_tree(n, rng)
                terms = surviving_decompositions(decorated)
                assert len(terms) <= 1
                result = evaluate(decorated)
                assert expansion_eval(decorated) == result.value
                weighting = balance(decorated)
                if terms:
                    assert weighting is not None
                    assert terms[0][0] == weighting.half_weight
                else:
                    assert weighting is None
        assert time.perf_counter() - start < 60


def test_criterion_5_string_equation():
    with criterion(5, "string-equation recursion equals the multinomial for all n <= 8"):
        start = time.perf_counter()
        for n in range(3, 9):
            for vec in compositions(n - 3, n):
                exps = {i + 1: k for i, k in enumerate(vec)}
                assert string_eq_psi_integral(n, exps) == multinomial(n - 3, vec)
        assert time.perf_counter() - start < 30


def test_criterion_6_flag_property():
    with criterion(6, "compatibility matches coarsening search: n=4,5,6 exhaustive, n=7 sampled"):
        start = time.perf_counter()
        expected_pairs = {4: 6, 5: 325, 6: 27730}  # k strata -> k(k+1)/2 pairs
        for n in (4, 5, 6):
            report = flag_certify(n)
            assert report.discrepancies == ()
            assert report.pairs_checked == expected_pairs[n]
        report = flag_certify(7, sample_limit=100_000, seed=0)
        assert report.pairs_checked == 100_000
        assert report.discrepancies == ()
        assert time.perf_counter() - start < 300


def test_criterion_7_small_case_ground_truths():
    with criterion(7, "known integrals on 4, 5 and 6 points"):
        g4, g5, g6 = MarkedSet.range(4), MarkedSet.range(5), MarkedSet.range(6)

        def value(ground, powers):
            decorated = product_to_decorated(BoundaryProduct(ground, powers, {}))
            if decorated is EMPTY:
                return 0
            return evaluate(decorated).value

        for side in ({1, 2}, {1, 3}, {1, 4}):
            assert value(g4, {make_split(g4, side): 1}) == 1
        assert value(g5, {make_split(g5, {1, 2}): 2}) == -1
        assert value(g5, {make_split(g5, {1, 2}): 1, make_split(g5, {1, 3}): 1}) == 0
        assert value(g6, {make_split(g6, {1, 2, 3}): 3}) == 2
        assert value(g6, {make_split(g6, {1, 2}): 3}) == 1


def test_criterion_8_enumeration_counts():
    with criterion(8, "divisor and trivalent-tree counts match the closed formulas for n=4..7"):
        start = time.perf_counter()
        for n in range(4, 8):
            divisors = sum(1 for _ in enumerate_stable_trees(n, 1))
            assert divisors == 2 ** (n - 1) - n - 1
            trivalent = sum(1 for _ in enumerate_stable_trees(n, n - 3))
            assert trivalent == math.prod(range(2 * n - 5, 0, -2))
        assert time.perf_counter() - start < 30


def test_criterion_9_coloring_cross_check():
    with criterion(9, "coloring insertion equals split insertion for every pair with n <= 7"):
        start = time.perf_counter()

        # the worked 9-point coloring example first
        g9 = MarkedSet.range(9)
        tree = tree_from_splits(
            g9, [make_split(g9, s) for s in ({2, 6, 8}, {1, 2, 4, 6, 8}, {1, 4}, {3, 9})]
        )
        divisor = make_split(g9, {3, 7, 9})
        built = apply_coloring(color_for_divisor(tree, divisor))
        assert tree_equal(built, meet_divisor(tree, divisor))
        assert built.splits == tree.splits | {divisor}

        for n in range(4, 8):
            divisors = [next(iter(t.splits)) for t in enumerate_stable_trees(n, 1)]
            for t in enumerate_stable_trees(n):
                for d in divisors:
                    met = meet_divisor(t, d)
                    try:
                        coloring = color_for_divisor(t, d)
                    except EdgeConditionFails:
                        assert met is EMPTY
                        continue
                    assert met is not EMPTY
                    assert tree_equal(apply_coloring(coloring), met)
        assert time.perf_counter() - start < 120
