"""Exact factorials and multinomial coefficients."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from m0nbar.combinat import factorial, multinomial
from m0nbar.errors import PartsMismatch


def test_factorial_small_values():
    assert factorial(0) == 1
    assert factorial(3) == 6


def test_factorial_ten_matches_repeated_multiplication():
    expected = 1
    for k in range(1, 11):
        expected *= k
    assert expected == 3628800
    assert factorial(10) == expected


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_multinomial_known_values():
    assert multinomial(3, [1, 2]) == 3
    assert multinomial(0, []) == 1
    # 7!/(2! 2! 3!) = 5040/24
    assert multinomial(7, [2, 2, 3]) == 210


def test_multinomial_parts_must_sum_to_top():
    with pytest.raises(PartsMismatch):
        multinomial(4, [1, 2])


def test_multinomial_rejects_negative_parts():
    with pytest.raises(ValueError):
        multinomial(3, [4, -1])
    with pytest.raises(ValueError):
        multinomial(-2, [-2])


def test_multinomial_of_top_zero_or_one_is_one():
    assert multinomial(0, [0, 0, 0]) == 1
    assert multinomial(1, [0, 1, 0]) == 1
    assert multinomial(1, [1]) == 1


def test_multinomial_checks_parts_at_top_zero_and_one():
    # the shortcut for a top of 0 or 1 runs after the argument checks
    with pytest.raises(ValueError):
        multinomial(1, [2, -1])
    with pytest.raises(PartsMismatch):
        multinomial(1, [0, 0])
    with pytest.raises(PartsMismatch):
        multinomial(0, [1])


def _positive_compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _positive_compositions(total - first):
            yield (first,) + rest


@pytest.mark.parametrize("total", range(0, 11))
def test_multinomial_equals_factorial_ratio_exhaustively(total):
    # independent oracle: the plain ratio of factorials
    for parts in _positive_compositions(total):
        expected = factorial(total)
        for p in parts:
            expected //= factorial(p)
        assert multinomial(total, parts) == expected


@given(st.lists(st.integers(0, 12), max_size=6))
@settings(max_examples=100)
def test_multinomial_invariant_under_part_permutation(parts):
    top = sum(parts)
    reference = multinomial(top, parts)
    assert multinomial(top, sorted(parts)) == reference
    assert multinomial(top, list(reversed(parts))) == reference


@given(st.lists(st.integers(0, 12), max_size=6))
@settings(max_examples=100)
def test_multinomial_ignores_zero_parts(parts):
    top = sum(parts)
    assert multinomial(top, parts + [0]) == multinomial(top, parts)


def _running_comb(top, parts):
    # the product of binomials that multinomial used to compute
    out, remaining = 1, top
    for p in parts:
        out *= math.comb(remaining, p)
        remaining -= p
    return out


def test_multinomial_matches_running_binomials_on_random_parts():
    rng = random.Random(7)
    shapes = [
        lambda k: [k - 1, 1],  # an edge factor
        lambda k: [1] * k,  # a vertex carrying k psi classes of weight 1
        lambda k: [k],
        lambda k: [k - 3, 1, 1, 1, 0],
        lambda k: [rng.randrange(4) for _ in range(rng.randrange(1, 8))],
        lambda k: [rng.randrange(k) for _ in range(rng.randrange(1, 6))],
    ]
    for _ in range(2000):
        parts = rng.choice(shapes)(rng.randrange(3, 300))
        rng.shuffle(parts)
        assert multinomial(sum(parts), parts) == _running_comb(sum(parts), parts)
