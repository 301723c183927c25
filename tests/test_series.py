import random
import time
from fractions import Fraction

import pytest

from probmink import (
    DigitSeq,
    DomainError,
    alt_series_exact,
    alt_series_periodic_closed_form,
    alt_series_truncated,
    prefix_enclosure,
)
from probmink.series import _finite_sum

from oracles import partial_sums

F = Fraction


def test_exact_fixtures():
    assert alt_series_exact(DigitSeq((), (1,))) == F(2, 3)
    assert alt_series_exact(DigitSeq((), (2,))) == F(2, 5)
    assert alt_series_exact(DigitSeq((), (1, 2))) == F(6, 7)
    assert alt_series_exact(DigitSeq((), (2, 1))) == F(2, 7)
    assert alt_series_exact(DigitSeq((), (1, 4))) == F(30, 31)
    assert alt_series_exact([2, 2]) == F(3, 8)
    assert alt_series_exact([5]) == F(1, 16)
    assert alt_series_exact([]) == 0


def test_periodic_closed_form():
    assert alt_series_periodic_closed_form(1, 2) == F(6, 7)
    assert alt_series_periodic_closed_form(2, 1) == F(2, 7)
    for v in range(1, 7):
        for w in range(1, 7):
            assert alt_series_periodic_closed_form(v, w) == alt_series_exact(
                DigitSeq((), (v, w))
            )


def test_matches_partial_sums():
    rng = random.Random(41)
    for _ in range(60):
        pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        seq = DigitSeq(pre, per)
        exact = alt_series_exact(seq)
        sums = partial_sums(seq.digits(40))
        # consecutive partial sums of an alternating series bracket the limit
        for a, b in zip(sums, sums[1:]):
            assert min(a, b) <= exact <= max(a, b)


def test_value_range():
    rng = random.Random(43)
    for _ in range(60):
        pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        assert 0 < alt_series_exact(DigitSeq(pre, per)) < 1
    assert alt_series_exact([1]) == 1
    for _ in range(60):
        word = [rng.randint(1, 6) for _ in range(rng.randint(1, 6))]
        assert 0 < alt_series_exact(word) <= 1


def test_prefix_split_identity():
    rng = random.Random(47)
    for _ in range(60):
        pre = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 4)))
        seq = DigitSeq(pre, per)
        l = rng.randint(1, 6)
        head = seq.digits(l)
        partial = partial_sums(head)[-1]
        sign = -1 if l % 2 else 1
        tail = alt_series_exact(seq.shifted(l))
        assert alt_series_exact(seq) == partial + sign * F(1, 1 << sum(head)) * tail


def test_truncated_enclosure():
    seq = DigitSeq((), (1, 2))
    t = alt_series_truncated(seq, 3)
    exact = alt_series_exact(seq)
    assert t.lower <= exact <= t.upper
    assert t.width == F(1, 1 << 4)
    assert t.midpoint == (t.lower + t.upper) / 2
    rng = random.Random(53)
    for _ in range(40):
        pre = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
        per = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        s = DigitSeq(pre, per)
        n = rng.randint(1, 8)
        t = alt_series_truncated(s, n)
        assert t.lower <= alt_series_exact(s) <= t.upper
        assert t.width == F(1, 1 << sum(s.digits(n)))
        assert not t.exact


def test_truncated_finite_list():
    t = alt_series_truncated([2, 2], 5)
    assert t.exact and t.value == F(3, 8)
    t = alt_series_truncated([1, 3, 1], 3)
    assert t.exact and t.value == alt_series_exact([1, 3, 1])


def test_prefix_enclosure_sign():
    # after an odd number of terms the next term is negative
    t = prefix_enclosure([1])
    assert t.upper == 1 and t.lower == F(1, 2)
    t = prefix_enclosure([1, 2])
    assert t.lower == alt_series_exact([1, 2]) and t.width == F(1, 8)


def test_invalid_digits():
    with pytest.raises(DomainError):
        alt_series_exact([1, 0, 2])
    with pytest.raises(DomainError):
        alt_series_truncated([0], 1)


def test_long_series_values_in_linear_time():
    """700 000 digits of 1-5, a digit sum of about 2.1 * 10^6: each value within 2 s.

    The values are reduced by a shift of their trailing zeros. Built by the
    Fraction constructor, whose gcd runs over the whole power of two, the
    enclosure took 9.2 s and the finite sum 4.7 s on a 2-CPU x86-64 host.
    """
    rng = random.Random(700)
    digits = tuple(rng.randint(1, 5) for _ in range(700_000))
    m, s, sign = _finite_sum(digits)
    start = time.perf_counter()
    enclosure = prefix_enclosure(digits)
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    value = alt_series_exact(digits)
    assert time.perf_counter() - start < 2
    # 2m / 2^s in lowest terms: an odd numerator over a power of two
    num, den = value.numerator, value.denominator
    zeros = den.bit_length() - 1
    assert den == 1 << zeros and num & 1 and num << (s - zeros) == 2 * m
    assert value == enclosure.value
    other = enclosure.upper if sign > 0 else enclosure.lower
    assert (other.numerator, other.denominator) == (2 * m + sign, 1 << s)
