"""Relations in the cohomology of the moduli space that the evaluator never uses.

Keel (Trans. AMS 330, 1992) gives the Poincaré polynomial of the space by
a recursion, the four-point relations among boundary divisors, psi
classes as sums of divisors, and the restriction of a product to a
boundary divisor, which is the product of two smaller spaces.  Each is
checked here on exact values from ``evaluate``, so a wrong sign or factor
shows up as a broken identity.  The dilaton equation and the closed form
of a divisor's top self-intersection follow from these.
"""

import itertools
import math
import random
from collections import Counter

import pytest
from conftest import bench_gen

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
from m0nbar.cli import parse, to_boundary_product
from m0nbar.oracle import random_decorated_tree, random_stable_tree, string_eq_psi_integral

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


def outcome(product):
    """The reason and the value of a product."""
    decorated = product_to_decorated(product)
    if decorated is EMPTY:
        return "empty", 0
    result = evaluate(decorated)
    return result.reason, result.value


def integral(ground, divisors, psi):
    """The top intersection number of a divisor and psi product, 0 when empty."""
    return outcome(BoundaryProduct(ground, dict(divisors), dict(psi)))[1]


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


def restriction_value(points, divisors, psi, rng=None):
    """The top intersection number of a divisor and psi product, computed by
    restriction to a boundary divisor; no code of ``weights`` runs.

    ``points`` is a frozenset of labels, ``divisors`` maps one side of each
    divisor (a frozenset) to its power, and ``psi`` maps labels to powers.
    D = D_(A|B) is the image of the space on A + * times the space on B + o,
    and the normal bundle restricts to -psi_* - psi_o, so D^k times the rest
    is the sum over j of (-1)^(k-1) C(k-1, j) times the two factors' values,
    with psi_*^j and psi_o^(k-1-j); the first factor's degree forces j.
    Another divisor nested in a side becomes that factor's divisor, and one
    that crosses D gives 0.  The fresh point of a factor with m points is
    named -m: sizes fall along every path, so names never collide.  The
    divisor restricted on is one with the smallest side, or a random one
    when ``rng`` is given.
    """
    if not divisors:
        return string_eq_psi_integral(len(points), psi)
    if rng is None:
        side = min(divisors, key=lambda s: min(len(s), len(points) - len(s)))
    else:
        side = rng.choice(list(divisors))
    a, b = side, points - side
    k = divisors[side]
    halves = ({}, {})
    for s, power in divisors.items():
        if s != side:
            inner = next((t for t in (s, points - s) if t < a or t < b), None)
            if inner is None:
                return 0  # the divisor crosses D
            halves[inner < b][inner] = power
    fresh = [-(len(a) + 1), -(len(b) + 1)]
    factors = [a | {fresh[0]}, b | {fresh[1]}]
    psis = [{lab: w for lab, w in psi.items() if lab in half} for half in (a, b)]
    j = len(a) - 2 - sum(halves[0].values()) - sum(psis[0].values())
    if not 0 <= j <= k - 1:
        return 0
    psis[0][fresh[0]] = j
    psis[1][fresh[1]] = k - 1 - j
    sign = -1 if (k - 1) % 2 else 1
    return sign * math.comb(k - 1, j) * math.prod(
        restriction_value(*factor, rng) for factor in zip(factors, halves, psis))


def restriction_of(decorated, rng=None):
    """restriction_value of a decorated tree's product."""
    tree = decorated.tree
    divisors = {frozenset(e.block): w + 1 for e, w in decorated.edge_weight.items()}
    return restriction_value(frozenset(tree.ground.labels), divisors, decorated.psi_weight, rng)


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

    def test_top_self_intersection_of_a_divisor(self):
        # restricting D^(n-3) to D leaves only the normal bundle's powers:
        # the integral is (-1)^(n-4) C(n-4, |A|-2)
        def rows():
            for n in range(5, 40):
                for size in range(2, n - 1):
                    yield n, size
            for n in (1000, 3000):
                for size in (2, 3, n // 2, n - 2):
                    yield n, size

        nonzero = 0
        for n, size in rows():
            ground = MarkedSet.range(n)
            side = range(1, size + 1)
            expected = (-1) ** (n - 4) * math.comb(n - 4, size - 2)
            assert integral(ground, {make_split(ground, side): n - 3}, {}) == expected, (n, size)
            if n <= 12:
                points = frozenset(ground.labels)
                assert restriction_value(points, {frozenset(side): n - 3}, {}) == expected
            nonzero += expected != 0
        assert nonzero == 665 + 8

    def test_dilaton_equation(self):
        # with p = n + 1 forgotten by pi: (n - 2) times the integral of alpha
        # is the integral of psi_p pi^*(alpha), where
        # pi^*D_(A|B) = D_(A+p|B) + D_(A|B+p) and pi^*psi_i = psi_i - D_(i,p)
        rng = random.Random(61)
        nonzero = 0
        for n in range(4, 9):
            up = MarkedSet.range(n + 1)
            p = n + 1
            for _ in range(60):
                decorated = random_decorated_tree(n, rng)
                value = evaluate(decorated).value
                # each factor of alpha pulled back, as a list of
                # (coefficient, divisors, psi) terms at n + 1
                pulled = []
                for e, w in decorated.edge_weight.items():
                    with_a = make_split(up, (*e.block, p))
                    with_b = make_split(up, (*e.complement, p))
                    pulled.append([(math.comb(w + 1, i), {with_a: i, with_b: w + 1 - i}, {})
                                   for i in range(w + 2)])
                for lab, w in decorated.psi_weight.items():
                    near = make_split(up, (lab, p))
                    pulled.append([((-1) ** i * math.comb(w, i), {near: i}, {lab: w - i})
                                   for i in range(w + 1)])
                total = 0
                for terms in itertools.product(*pulled):
                    divisors, psi = Counter(), Counter({p: 1})
                    for _, d, q in terms:
                        divisors.update(d)
                        psi.update(q)
                    coefficient = math.prod(c for c, _, _ in terms)
                    total += coefficient * integral(up, +divisors, +psi)
                assert total == (n - 2) * value, decorated
                nonzero += value != 0
        assert nonzero >= 200


def relabeled(product, sigma):
    """The product with every label l renamed sigma[l], divisors and psi classes alike."""
    ground = product.ground
    divisors = {make_split(ground, [sigma[lab] for lab in d.block]): k
                for d, k in product.divisor_powers.items()}
    psi = {sigma[lab]: k for lab, k in product.psi_powers.items()}
    return BoundaryProduct(ground, divisors, psi)


def permutation(n, rng):
    """A random permutation of 1..n, as a list indexed by label."""
    return [0, *rng.sample(range(1, n + 1), n)]


class TestRelabeling:
    # the symmetric group acts on the space, so renaming the labels keeps
    # every integral; it moves each split's canonical side, the order of
    # edges, the vertex numbering and balance's heap order, which every
    # other identity holds fixed

    def test_random_decorated_trees(self):
        rng = random.Random(67)
        nonzero = 0
        for n in range(4, 31):
            for _ in range(40):
                decorated = random_decorated_tree(n, rng)
                divisors = {e: w + 1 for e, w in decorated.edge_weight.items()}
                product = BoundaryProduct(decorated.tree.ground, divisors, decorated.psi_weight)
                expected = outcome(product)
                assert outcome(relabeled(product, permutation(n, rng))) == expected, decorated
                nonzero += expected[1] != 0
        assert nonzero >= 200

    def test_large_strata(self):
        # bench/gen.py's strata, whose reason and value the generator
        # computes without m0nbar
        gen = bench_gen()
        rng = random.Random("relabel")
        tree = gen.bushy_tree(2000, rng)
        instances = [gen.make_instance(family, tree, reason, rng, psi_share=0.3, vary=False)
                     for family, reason in (("random", "ok"), ("unbalanced", "no_balance"))]
        caterpillar = gen.caterpillar_tree(800, rng)
        instances.append(gen.make_instance("caterpillar", caterpillar, "ok", rng, vary=False))
        for inst in instances:
            product = to_boundary_product(parse(inst.text, inst.n))
            assert outcome(product) == (inst.reason, inst.value), inst.key
            sigma = permutation(inst.n, rng)
            assert outcome(relabeled(product, sigma)) == (inst.reason, inst.value), inst.key


class TestRestriction:
    def test_agrees_with_evaluate_on_random_decorated_trees(self):
        rng = random.Random(53)
        nonzero = 0
        for n in range(4, 31):
            for _ in range(150):
                decorated = random_decorated_tree(n, rng)
                value = evaluate(decorated).value
                assert restriction_of(decorated) == value, decorated
                nonzero += value != 0
        assert nonzero >= 600

    def test_any_divisor_may_be_restricted_on_first(self):
        rng = random.Random(59)
        nonzero = 0
        for n in range(4, 25):
            for _ in range(80):
                decorated = random_decorated_tree(n, rng)
                value = restriction_of(decorated)
                assert restriction_of(decorated, rng) == value, decorated
                nonzero += value != 0
        assert nonzero >= 350
