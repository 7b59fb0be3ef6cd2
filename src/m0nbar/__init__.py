"""Exact intersection numbers of boundary divisors and psi classes on the
moduli space of stable genus-zero curves with n marked points.

Dimension-zero products of boundary classes evaluate to a sign times a
product of multinomial coefficients read off a balanced weighting of the
underlying stable tree, or to zero when the strata do not meet or the
weights do not balance.  Everything is exact integer arithmetic, and every
step has an independent brute-force verifier in :mod:`m0nbar.oracle`.

The oracle's names are the names of ``__all__`` this module does not
import; they are imported on first use, so evaluating a product never
loads it.
"""

from . import errors
from .combinat import factorial, multinomial
from .intersect import (
    BLUE,
    EMPTY,
    RED,
    BoundaryProduct,
    Coloring,
    DecoratedTree,
    apply_coloring,
    color_for_divisor,
    compatible,
    flag_equivalence,
    meet_all,
    meet_divisor,
    product_to_decorated,
    strata_product_to_decorated,
)
from .trees import (
    MarkedSet,
    Split,
    StableTree,
    enumerate_stable_trees,
    make_split,
    ordered_splits,
    split_of_edge,
    tree_equal,
    tree_from_splits,
)
from .weights import (
    BalancedWeighting,
    EvalResult,
    balance,
    evaluate,
    evaluate_ratio,
    integrate_psi_monomial,
)

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "BalancedWeighting",
    "BoundaryProduct",
    "Coloring",
    "DecoratedTree",
    "EMPTY",
    "EvalResult",
    "FlagReport",
    "MarkedSet",
    "RED",
    "Split",
    "StableTree",
    "apply_coloring",
    "balance",
    "color_for_divisor",
    "compatible",
    "compositions",
    "enumerate_stable_trees",
    "errors",
    "evaluate",
    "evaluate_ratio",
    "expansion_eval",
    "factorial",
    "flag_certify",
    "flag_equivalence",
    "integrate_psi_monomial",
    "make_split",
    "meet_all",
    "meet_divisor",
    "multinomial",
    "ordered_splits",
    "product_to_decorated",
    "random_decorated_tree",
    "random_stable_tree",
    "split_of_edge",
    "strata_product_to_decorated",
    "string_eq_psi_integral",
    "surviving_decompositions",
    "tree_equal",
    "tree_from_splits",
]


def __getattr__(name):
    # a name of __all__ not bound yet is one of the oracle's
    if name in __all__ or name == "oracle":
        import importlib

        # "from . import oracle" would look the name up here first, and recurse
        oracle = importlib.import_module(".oracle", __name__)
        # a list, since the update writes to globals()
        globals().update([(n, getattr(oracle, n)) for n in __all__ if n not in globals()])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "oracle"})
