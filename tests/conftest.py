import pytest

from m0nbar import BoundaryProduct, MarkedSet, make_split, tree_from_splits


@pytest.fixture
def nine_point_tree():
    """The codim-4 stratum on 1..9 whose splits are 268|134579,
    12468|3579, 14|2356789 and 39|1245678."""
    ground = MarkedSet.range(9)
    sides = ({2, 6, 8}, {1, 2, 4, 6, 8}, {1, 4}, {3, 9})
    return tree_from_splits(ground, [make_split(ground, s) for s in sides])


def fifteen_point_product(psi=None, exponents=(2, 3, 4, 1, 2)):
    """The running n=15 example: five divisor powers, optional psi powers."""
    ground = MarkedSet.range(15)
    sides = ({1, 2}, {3, 4, 5}, {1, 2, 3, 4, 5, 6, 7, 8}, {11, 12}, {13, 14, 15})
    divisors = {make_split(ground, s): e for s, e in zip(sides, exponents)}
    return BoundaryProduct(ground, divisors, dict(psi or {}))


@pytest.fixture
def example_product():
    """Divisor powers only; evaluates to -36."""
    return fifteen_point_product()


@pytest.fixture
def psi_example_product():
    """With psi weights 1 at leaf 4 and 2 at leaf 7; evaluates to +3."""
    return fifteen_point_product(psi={4: 1, 7: 2}, exponents=(2, 1, 3, 1, 2))


def half_weights(weighting):
    """Each half-weight keyed by (vertex, edge): the ``halves`` table read through ``ends``."""
    tree = weighting.decorated.tree
    out = {}
    for e, (p, c), (hp, hc) in zip(tree.edges, tree.ends, weighting.halves):
        out[(p, e)] = hp
        out[(c, e)] = hc
    return out
