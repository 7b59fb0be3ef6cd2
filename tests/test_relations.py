"""Relations in the cohomology of the moduli space that the evaluator never uses.

Keel (Trans. AMS 330, 1992) gives the Poincaré polynomial of the space by
a recursion, the four-point relations among boundary divisors, and psi
classes as sums of divisors.  Each is checked here on exact values from
``evaluate``, so a wrong sign or factor shows up as a broken identity.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from m0nbar import (
    EMPTY,
    BoundaryProduct,
    MarkedSet,
    enumerate_stable_trees,
    evaluate,
    make_split,
    product_to_decorated,
    strata_product_to_decorated,
)
from m0nbar.oracle import random_stable_tree

PRIMES = (2, 3, 2**61 - 1)


def keel_poincare(n):
    """The even Betti numbers of the n-pointed space, b_0, b_2, ..., b_(2n-6).

    P_3 = 1 and P_(m+1) = (1+q) P_m + (q/2) sum_(j=2..m-2) C(m, j) P_(j+1) P_(m-j+1),
    a polynomial in q listed by its coefficients.
    """
    polys = {3: [1]}
    for m in range(3, n):
        nxt = [0] * (m - 1)
        for d, c in enumerate(polys[m]):
            nxt[d] += c
            nxt[d + 1] += c
        twice = [0] * (m - 1)
        for j in range(2, m - 1):
            for (a, x), (b, y) in itertools.product(enumerate(polys[j + 1]),
                                                    enumerate(polys[m - j + 1])):
                twice[a + b + 1] += math.comb(m, j) * x * y
        assert all(c % 2 == 0 for c in twice)
        polys[m + 1] = [c + t // 2 for c, t in zip(nxt, twice)]
    return polys[n]


def rank_mod(rows, p):
    """Rank over F_p of an integer matrix given as a list of rows."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def integral(ground, divisors, psi):
    """The top intersection number of a divisor and psi product, 0 when empty."""
    decorated = product_to_decorated(BoundaryProduct(ground, dict(divisors), dict(psi)))
    return 0 if decorated is EMPTY else evaluate(decorated).value


def pairing(a, b):
    """The integral of the product of two strata of complementary codimension."""
    decorated = strata_product_to_decorated([a, b])
    return 0 if decorated is EMPTY else evaluate(decorated).value


class TestBettiNumbers:
    def test_keel_recursion_gives_the_second_betti_number(self):
        assert keel_poincare(4) == [1, 1]
        assert keel_poincare(5) == [1, 5, 1]
        for n in range(4, 12):
            assert keel_poincare(n)[1] == 2 ** (n - 1) - math.comb(n, 2) - 1

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_strata_pairing_has_the_betti_rank(self, n):
        # strata span the Chow groups and the pairing is perfect, so the
        # matrix of integrals between complementary codimensions has rank
        # b_2k; dropping the sign gives a larger rank at n = 6, k = 1 over
        # the odd primes, which F_2 cannot see
        betti = keel_poincare(n)
        for k in range(n - 2):
            rows = [[pairing(a, b) for b in enumerate_stable_trees(n, n - 3 - k)]
                    for a in enumerate_stable_trees(n, k)]
            for p in PRIMES:
                assert rank_mod(rows, p) == betti[k], (n, k, p)


def random_completion(n, rng):
    """A divisor and psi product of degree n - 4 on 1..n, as two Counters.

    Its divisors are the edges of a random stable tree of codim <= n - 4,
    each to a power >= 1; the degree left goes one unit at a time to a
    random edge or psi label.
    """
    while True:
        tree = random_stable_tree(n, rng)
        if tree.codim <= n - 4:
            break
    divisors = Counter(tree.edges)
    psi = Counter()
    slots = [*tree.edges, *tree.ground.labels]
    for _ in range(n - 4 - tree.codim):
        slot = slots[rng.randrange(len(slots))]
        (psi if isinstance(slot, int) else divisors)[slot] += 1
    return divisors, psi


def side_sum(ground, inside, outside, divisors, psi):
    """Sum of the integrals of D_A times the product over every A holding
    ``inside`` and missing ``outside``, each divisor once."""
    rest = [lab for lab in ground.labels if lab not in inside and lab not in outside]
    total = 0
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            side = (*inside, *extra)
            if len(side) < 2:
                continue
            d = make_split(ground, side)
            total += integral(ground, divisors + Counter({d: 1}), psi)
    return total


def relation_draws(seed):
    rng = random.Random(seed)
    for n in range(5, 10):
        ground = MarkedSet.range(n)
        for _ in range(120):
            divisors, psi = random_completion(n, rng)
            yield ground, rng.sample(ground.labels, 4), divisors, psi


class TestRelations:
    def test_keel_four_point_relation(self):
        nonzero = 0
        for ground, (i, j, k, l), divisors, psi in relation_draws(41):
            left = side_sum(ground, (i, j), (k, l), divisors, psi)
            right = side_sum(ground, (i, k), (j, l), divisors, psi)
            assert left == right, (ground.n, (i, j, k, l), divisors, psi)
            nonzero += left != 0
        assert nonzero >= 60

    def test_psi_is_a_boundary_sum(self):
        # psi_i is the sum of the divisors D_A with i in A and j, k not
        nonzero = 0
        for ground, (i, j, k, _), divisors, psi in relation_draws(43):
            value = integral(ground, divisors, psi + Counter({i: 1}))
            assert value == side_sum(ground, (i,), (j, k), divisors, psi), (
                ground.n, (i, j, k), divisors, psi)
            nonzero += value != 0
        assert nonzero >= 100
