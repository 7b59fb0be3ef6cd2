"""Guard clauses that no other test reaches, each pinned with its class and message."""

import pytest

from m0nbar import (
    BoundaryProduct,
    DecoratedTree,
    MarkedSet,
    Split,
    color_for_divisor,
    compatible,
    flag_equivalence,
    integrate_psi_monomial,
    make_split,
    meet_all,
    meet_divisor,
    strata_product_to_decorated,
    tree_equal,
    tree_from_splits,
)
from m0nbar.cli import main
from m0nbar.errors import DimensionUnbalanced, GroundMismatch, LabelOutOfRange, UnstableSplit
from m0nbar.oracle import string_eq_psi_integral, surviving_decompositions

G5 = MarkedSet.range(5)
G6 = MarkedSet.range(6)
T5 = tree_from_splits(G5, [make_split(G5, {1, 2})])
T6 = tree_from_splits(G6, [make_split(G6, {1, 2})])
D6 = make_split(G6, {1, 2, 3})

RAISES = [
    pytest.param(lambda: Split(G5, 1 << 5), LabelOutOfRange,
                 "block mask reaches outside the ground set", id="split-mask-past-ground"),
    pytest.param(lambda: Split(G5, 0b10), UnstableSplit,
                 "a split side has 1 of 5 marked points; both need >= 2", id="split-one-label"),
    # the label rule and the stability rule, one message each wherever they are checked
    pytest.param(lambda: make_split(G5, {2, 9}), LabelOutOfRange,
                 "label 9 outside 1..5", id="make-split-label"),
    pytest.param(lambda: G5.mask_of([2, 9]), LabelOutOfRange,
                 "label 9 outside 1..5", id="mask-of-label"),
    pytest.param(lambda: BoundaryProduct(G5, {}, {9: 2}), LabelOutOfRange,
                 "label 9 outside 1..5", id="product-psi-label"),
    pytest.param(lambda: T5.leaf_vertex(9), LabelOutOfRange,
                 "label 9 outside 1..5", id="leaf-vertex-label"),
    pytest.param(lambda: DecoratedTree(T5, {}, {9: 1}), LabelOutOfRange,
                 "label 9 outside 1..5", id="decorated-psi-label"),
    pytest.param(lambda: make_split(G5, {1}), UnstableSplit,
                 "a split side has 1 of 5 marked points; both need >= 2", id="make-split-one-label"),
    pytest.param(lambda: color_for_divisor(T5, D6), GroundMismatch,
                 "tree and divisor live on different ground sets", id="color-ground"),
    pytest.param(lambda: meet_divisor(T5, D6), GroundMismatch,
                 "tree and divisor live on different ground sets", id="meet-divisor-ground"),
    pytest.param(lambda: meet_all([T5, T6]), GroundMismatch,
                 "strata live on different ground sets", id="meet-all-ground"),
    pytest.param(lambda: compatible(make_split(G5, {1, 2}), D6), GroundMismatch,
                 "splits live on different ground sets", id="compatible-ground"),
    pytest.param(lambda: flag_equivalence(T5, T6), GroundMismatch,
                 "strata live on different ground sets", id="flag-equivalence-ground"),
    # the codimensions fit the first stratum's n, so only the ground sets are wrong
    pytest.param(lambda: strata_product_to_decorated([T5, T6]), GroundMismatch,
                 "strata live on different ground sets", id="strata-product-ground"),
    pytest.param(lambda: tree_equal(T5, T6), GroundMismatch,
                 "trees live on different ground sets", id="tree-equal-ground"),
    pytest.param(lambda: BoundaryProduct(G5, {D6: 1}, {}), GroundMismatch,
                 "divisor 4,5,6|1,2,3 lives on a different ground set", id="product-ground"),
    pytest.param(lambda: meet_all([]), ValueError,
                 "meet_all needs at least one stratum", id="meet-all-empty"),
    pytest.param(lambda: DecoratedTree(T5, {}, {3: -1}), ValueError,
                 "psi weights must be >= 0", id="negative-psi-weight"),
    pytest.param(lambda: surviving_decompositions(DecoratedTree(T5, {}, {})), DimensionUnbalanced,
                 "edge weights + psi weights = 0, but the stratum has dimension 1",
                 id="expansion-unbalanced"),
    pytest.param(lambda: string_eq_psi_integral(2, {}), ValueError,
                 "need n >= 3 marked points, got 2", id="string-n-2"),
    pytest.param(lambda: integrate_psi_monomial(2, {}), ValueError,
                 "need n >= 3 marked points, got 2", id="psi-integral-n-2"),
    pytest.param(lambda: main(["eval", "--n", "2", "psi1"]), SystemExit,
                 "need at least 3 marked points", id="cli-eval-n-2"),
]


@pytest.mark.parametrize("call, error, message", RAISES)
def test_raises_with_message(call, error, message, capsys):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    if error is SystemExit:
        # argparse rejects the option: usage error, exit 2, message on stderr
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
    else:
        assert str(excinfo.value) == message
