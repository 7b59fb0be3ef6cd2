"""The record types' repr, equality, hashing and frozenness.

These pin what callers can observe of the nine value types, whatever
machinery defines them: the repr text, == and != between instances,
whether instances hash, that a frozen field refuses assignment, and the
positional and keyword forms of each constructor.
"""

import pytest

from conftest import half_weights
from m0nbar import (
    BalancedWeighting,
    BoundaryProduct,
    Coloring,
    DecoratedTree,
    EvalResult,
    FlagReport,
    MarkedSet,
    Split,
    color_for_divisor,
    evaluate,
    flag_certify,
    make_split,
    product_to_decorated,
    tree_from_splits,
)
from m0nbar.cli import Expression, parse

G5 = MarkedSet.range(5)
G5_REPR = "MarkedSet(labels=range(1, 6))"
S345 = make_split(G5, {1, 2})
S345_REPR = f"Split({G5_REPR}, block=(3, 4, 5))"
TREE = tree_from_splits(G5, [S345])
TREE_REPR = "<StableTree n=5 codim=1 [3,4,5|1,2]>"


def assert_hashable(obj, hashable):
    if hashable:
        assert hash(obj) == hash(obj)
    else:
        with pytest.raises(TypeError):
            hash(obj)


def assert_equality(first, same, other):
    assert first == same and not first != same
    assert first != other and not first == other


class TestMarkedSet:
    def test_repr(self):
        assert repr(G5) == G5_REPR
        assert repr(MarkedSet([3, 1, 2])) == "MarkedSet(labels=range(1, 4))"

    def test_equality_and_hash(self):
        same = MarkedSet(labels=[5, 4, 3, 2, 1])
        assert_equality(G5, same, MarkedSet.range(6))
        assert hash(G5) == hash(same) == hash((range(1, 6),))
        assert G5 != range(1, 6)

    def test_frozen(self):
        ground = MarkedSet(range(1, 6))
        for name, value in (("labels", range(1, 7)), ("n", 6), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(ground, name, value)
        with pytest.raises(AttributeError):
            del ground.labels
        assert ground.labels == range(1, 6) and ground.n == 5

    def test_cached_values(self):
        ground = MarkedSet(range(1, 8))
        assert ground.full_mask == 0b1111111
        assert ground._ints == list(range(8))


class TestSplit:
    def test_repr(self):
        assert repr(S345) == S345_REPR
        assert str(S345) == "3,4,5|1,2"

    def test_equality_and_hash(self):
        assert_equality(S345, make_split(G5, {3, 4, 5}), make_split(G5, {4, 5}))
        assert_hashable(S345, True)


class TestExpression:
    def test_repr(self):
        expr = parse("D{1,2}^2 psi3", 5)
        assert repr(expr) == (
            f"Expression(n=5, factors=(('divisor', {S345_REPR}, 2), ('psi', 3, 1)))"
        )

    def test_constructor_forms(self):
        factors = (("psi", 1, 1),)
        assert Expression(4, factors) == Expression(n=4, factors=factors)
        assert Expression(4, factors).factors is factors

    def test_equality_and_hash(self):
        expr = parse("D{1,2}^2 psi3", 5)
        assert_equality(expr, parse("D{3,4,5}^2 psi3^1", 5), parse("D{1,2}^2 psi4", 5))
        assert_hashable(expr, True)
        assert hash(expr) == hash(parse("D{3,4,5}^2 psi3^1", 5))

    def test_frozen(self):
        expr = parse("psi1", 4)
        for name in ("n", "factors"):
            with pytest.raises(AttributeError):
                setattr(expr, name, None)
        assert expr.n == 4


class TestBoundaryProduct:
    def test_repr(self):
        product = BoundaryProduct(G5, {S345: 2}, {})
        assert repr(product) == (
            f"BoundaryProduct(ground={G5_REPR}, divisor_powers={{{S345_REPR}: 2}}, psi_powers={{}})"
        )

    def test_constructor_forms(self):
        assert BoundaryProduct(G5, {S345: 2}, {}) == BoundaryProduct(
            ground=G5, divisor_powers={S345: 2}, psi_powers={}
        )

    def test_equality_and_hash(self):
        product = BoundaryProduct(G5, {S345: 2}, {})
        assert_equality(product, BoundaryProduct(G5, {S345: 2}, {}),
                        BoundaryProduct(G5, {S345: 1}, {1: 1}))
        assert_hashable(product, False)

    def test_fields_assignable(self):
        product = BoundaryProduct(G5, {S345: 2}, {})
        product.psi_powers = {1: 1}
        assert product.total_degree == 3


class TestDecoratedTree:
    def test_repr_leaves_out_vertex_psi(self):
        decorated = DecoratedTree(TREE, {S345: 1}, {4: 0, 1: 1})
        assert repr(decorated) == (
            f"DecoratedTree(tree={TREE_REPR}, edge_weight={{{S345_REPR}: 1}}, psi_weight={{1: 1}})"
        )
        assert decorated.vertex_psi == [((1, 1),), ()]

    def test_constructor_forms(self):
        assert DecoratedTree(TREE, {}, {}) == DecoratedTree(tree=TREE, edge_weight={}, psi_weight={})
        with pytest.raises(TypeError):
            DecoratedTree(TREE, {}, {}, [(), ()])

    def test_equality_ignores_vertex_psi(self):
        decorated = DecoratedTree(TREE, {S345: 1}, {1: 1})
        same = DecoratedTree(TREE, {S345: 1}, {1: 1, 2: 0})
        same.vertex_psi = [(), ()]
        assert_equality(decorated, same, DecoratedTree(TREE, {S345: 1}, {4: 1}))
        assert_hashable(decorated, False)


def five_point_result():
    return evaluate(product_to_decorated(BoundaryProduct(G5, {S345: 2}, {})))


class TestBalancedWeighting:
    def test_repr(self):
        weighting = five_point_result().weighting
        assert repr(weighting) == (
            f"BalancedWeighting(decorated=DecoratedTree(tree={TREE_REPR}, "
            f"edge_weight={{{S345_REPR}: 1}}, psi_weight={{}}), halves=[(0, 1)])"
        )

    def test_constructor_forms_and_equality(self):
        weighting = five_point_result().weighting
        decorated = weighting.decorated
        same = BalancedWeighting(decorated=decorated, halves=[(0, 1)])
        assert_equality(weighting, same, BalancedWeighting(decorated, [(1, 0)]))
        assert_hashable(weighting, False)

    def test_half_weight_is_cached(self):
        # nothing is cached beside the fields: the (vertex, edge) view of a
        # half is read off the halves table through the tree's ends
        weighting = five_point_result().weighting
        assert not hasattr(weighting, "__dict__") and not hasattr(weighting, "half_weight")
        assert half_weights(weighting)[(1, S345)] == 1


class TestEvalResult:
    def test_repr(self):
        assert repr(EvalResult.empty_intersection()) == (
            "EvalResult(value=0, sign=1, edge_factors=(), vertex_factors=(), "
            "weighting=None, reason='empty')"
        )
        result = five_point_result()
        assert repr(result) == (
            f"EvalResult(value=-1, sign=-1, edge_factors=(1,), vertex_factors=(1, 1), "
            f"weighting={result.weighting!r}, reason='ok')"
        )

    def test_constructor_forms_and_equality(self):
        empty = EvalResult.empty_intersection()
        same = EvalResult(value=0, sign=1, edge_factors=(), vertex_factors=(),
                          weighting=None, reason="empty")
        other = EvalResult(0, 1, (), (), None, "no_balance")
        assert_equality(empty, same, other)
        assert_equality(five_point_result(), five_point_result(), empty)
        assert_hashable(empty, False)


class TestColoring:
    def test_repr(self):
        coloring = color_for_divisor(TREE, make_split(G5, {4, 5}))
        assert repr(coloring) == (
            f"Coloring(tree={TREE_REPR}, edge_colors={{{S345_REPR}: 'red'}}, "
            "leaf_colors={1: 'red', 2: 'red', 3: 'red', 4: 'blue', 5: 'blue'}, split_vertex=1)"
        )

    def test_constructor_forms_and_equality(self):
        coloring = color_for_divisor(TREE, make_split(G5, {4, 5}))
        same = Coloring(tree=TREE, edge_colors=dict(coloring.edge_colors),
                        leaf_colors=dict(coloring.leaf_colors), split_vertex=1)
        other = Coloring(TREE, coloring.edge_colors, coloring.leaf_colors, 0)
        assert_equality(coloring, same, other)
        assert_hashable(coloring, False)


class TestFlagReport:
    def test_repr(self):
        assert repr(flag_certify(4)) == "FlagReport(n=4, pairs_checked=6, discrepancies=())"

    def test_constructor_forms_and_equality(self):
        report = flag_certify(4)
        same = FlagReport(n=4, pairs_checked=6, discrepancies=())
        assert_equality(report, same, FlagReport(4, 6, ((TREE, TREE),)))
        assert report.ok and not FlagReport(4, 6, ((TREE, TREE),)).ok
        assert_hashable(report, False)
