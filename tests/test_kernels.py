"""The integer kernels against their plain Fraction references, bit for bit.

Fractions are always held in lowest terms, so `==` on two Fractions
compares their numerators and denominators exactly.
"""

import importlib
import itertools
import math
import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from probmink import (
    Aperiodic,
    CustomPrefixTail,
    DigitSeq,
    Dyadic,
    Geometric,
    NotDetected,
    alt_series_exact,
    alt_series_truncated,
    cylinder,
    cylinder_increment,
    decode,
    decode_periodic,
    encode,
    graph_points,
    parse_distribution,
    prefix_enclosure,
    render_decimal,
    shift,
)
from probmink import distribution, expansion, fmt, integral, series
from probmink.distribution import MAX_POWER_BITS, Distribution
from probmink.errors import DomainError, ResourceLimitError
from probmink.expansion import _compose, _coprime_fraction, _word_table
from probmink.integral import (
    _mc_sample_decode,
    _mc_sample_dyadic,
    _mc_sample_table,
    integral_mc,
)
from probmink.series import _finite_sum

from oracles import (
    FAMILIES,
    brute_graph_points,
    ref_alt_series_exact,
    ref_bucket_index,
    ref_decode,
    ref_decode_periodic,
    ref_digit_of,
    ref_digit_seq,
    ref_encode,
    ref_exact_walk,
    ref_family_affine,
    ref_family_branch_primes,
    ref_finite_sum,
    ref_geometric_branch,
    ref_int_finite_sum,
    ref_mc_sample_int,
    ref_pmf,
    ref_prefix,
    ref_prefix_enclosure,
    ref_render_decimal,
    ref_shift,
)

F = Fraction


def _random_seq(rng, max_pre, max_per, max_digit):
    pre = tuple(rng.randint(1, max_digit) for _ in range(rng.randint(0, max_pre)))
    per = tuple(rng.randint(1, max_digit) for _ in range(rng.randint(1, max_per)))
    return DigitSeq(pre, per)


def _check_series(stream):
    assert alt_series_exact(stream) == ref_alt_series_exact(stream)
    digits = stream.digits(40) if isinstance(stream, DigitSeq) else tuple(stream)
    m, s, sign = _finite_sum(digits)
    total, ref_s, ref_sign = ref_finite_sum(digits)
    assert (F(2 * m, 1 << s), s, sign) == (total, ref_s, ref_sign)
    enc = prefix_enclosure(digits)
    assert (enc.lower, enc.upper) == ref_prefix_enclosure(digits)
    assert enc.value == total


def _check_shift(dist, x):
    """shift(dist, x) equals the reference and is a Fraction in lowest terms."""
    step = shift(dist, x)
    assert step == ref_shift(dist, x)
    y = step[1]
    assert type(y) is Fraction
    assert y.denominator > 0 and math.gcd(y.numerator, y.denominator) == 1
    return step


def _check_codec(dist, seq, shifts):
    x = encode(dist, seq)
    assert x == ref_encode(dist, seq)
    for _ in range(shifts):
        if not 0 <= x < 1:
            break
        x = _check_shift(dist, x)[1]


def test_affine_matches_reference_formulas():
    for dist in FAMILIES:
        head = len(getattr(dist, "head", ()))
        for i in range(1, head + 31):
            p, q, l = dist.affine(i)
            assert l > 0 and 0 < q < l and 0 <= p < l
            assert F(p, l) == dist.prefix(i) == ref_prefix(dist, i)
            assert F(q, l) == dist.pmf(i) == ref_pmf(dist, i)
            assert dist.prefix(i) + dist.pmf(i) == dist.prefix(i + 1)


def test_core_matches_family_bodies():
    # equal as integers, not only as fractions: decode_periodic's S-part
    # bookkeeping, the word tables' scale and encode's unreduced composition
    # all read the raw triples
    rng = random.Random(41)
    points, deep = [], []
    for bits in (8, 64, 256, 1024, 1900):
        for _ in range(12):
            d = rng.getrandbits(bits) | (1 << (bits - 1))
            near = d - (d >> rng.randint(1, 150)) - rng.randint(1, 3)
            points += [(rng.randrange(d), d), (near, d)]
            deep.append((d - rng.randint(1, 3), d))
    headless = [dist for dist in FAMILIES if not dist.head_tail()[0]]
    assert len(headless) == 7
    for dist in headless:
        assert dist.branch_primes() == ref_family_branch_primes(dist), dist
        for i in range(1, 61):
            assert dist.affine(i) == ref_family_affine(dist, i), (dist, i)
        for n, d in points + deep if isinstance(dist, Dyadic) else points:
            c = dist._digit(n, d)
            if isinstance(dist, Dyadic):
                # the bit-length override against the shared search, digits up to 1 901
                assert c < 2000
                assert c == Distribution._digit(dist, n, d), (n, d)
            else:
                assert (c, *dist.affine(c)) == ref_geometric_branch(dist, n, d), (dist, n, d)


def test_series_matches_reference_on_random_streams():
    rng = random.Random(2024)
    for _ in range(200):
        seq = _random_seq(rng, 20, 20, 8)
        _check_series(seq)
        _check_series(list(seq.digits(rng.randint(0, 30))))
        n = rng.randint(1, 30)
        trunc = alt_series_truncated(seq, n)
        assert (trunc.lower, trunc.upper) == ref_prefix_enclosure(seq.digits(n))


def test_series_matches_reference_on_adversarial_streams():
    rng = random.Random(7)
    ones = (1,) * 3000
    for stream in (
        DigitSeq(ones + (2,), (1,)),
        DigitSeq((2,) + ones, (3, 1, 1)),
        DigitSeq((), (1,) * 999 + (2,)),
        list(ones),
        list(ones) + [200],
        DigitSeq(tuple(rng.randint(1, 200) for _ in range(20)),
                 tuple(rng.randint(1, 200) for _ in range(60))),
        DigitSeq(tuple(rng.randint(1, 4) for _ in range(50)),
                 tuple(rng.randint(1, 4) for _ in range(2000))),
        [rng.randint(150, 200) for _ in range(60)],
    ):
        _check_series(stream)


def test_finite_sum_on_a_long_seeded_list():
    # far past the per-digit loop's length, the two bit strings give its integers
    rng = random.Random(1 << 16)
    for length in (1 << 16, (1 << 16) + 1):
        digits = tuple(rng.randint(1, 3) for _ in range(length))
        assert _finite_sum(digits) == ref_int_finite_sum(digits)


def test_codec_matches_reference_on_random_streams():
    rng = random.Random(99)
    for dist in FAMILIES:
        for _ in range(25):
            _check_codec(dist, _random_seq(rng, 6, 6, 8), 12)
        for _ in range(25):
            den = rng.randint(2, 10**12)
            _check_shift(dist, F(rng.randrange(den), den))
        for _ in range(10):
            word = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 6)))
            cyl = cylinder(dist, word)
            upper = word[:-1] + (word[-1] + 1,)
            assert cyl.inf == ref_encode(dist, DigitSeq(word, (1,)))
            assert cyl.sup == ref_encode(dist, DigitSeq(upper, (1,)))
            measure = F(1)
            for d in word:
                measure *= ref_pmf(dist, d)
            assert cyl.measure == measure


def test_codec_matches_reference_on_adversarial_streams():
    rng = random.Random(11)
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-2], FAMILIES[-1]):
        big = tuple(rng.randint(100, 200) for _ in range(6))
        _check_codec(dist, DigitSeq(big, (200, 1)), 10)
        cyl = cylinder(dist, big)
        assert cyl.inf == ref_encode(dist, DigitSeq(big, (1,)))
        _check_codec(dist, DigitSeq((3,) + (1,) * 1000 + (2,), (1, 2)), 1010)
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-1]):
        seq = DigitSeq(tuple(rng.randint(1, 3) for _ in range(20)),
                       tuple(rng.randint(1, 3) for _ in range(2000)))
        _check_codec(dist, seq, 60)
        assert decode_periodic(dist, encode(dist, seq), max_steps=2100) == seq


def test_shift_edge_points():
    rng = random.Random(64)
    for dist in FAMILIES:
        assert _check_shift(dist, 0) == (1, 0)
        for c in range(1, 12):
            # a cylinder's left end shifts to exactly 0, held as 0/1
            digit, y = _check_shift(dist, dist.prefix(c))
            assert digit == c
            assert (y.numerator, y.denominator) == (0, 1)
        # the Monte Carlo sampler's points a/2^64
        for a in [0, 1, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(200)]:
            _check_shift(dist, F(a, 1 << 64))
        for x in (F(1), 1, F(3, 2), F(-1, 5), -1):
            with pytest.raises(DomainError):
                shift(dist, x)


def test_coprime_fraction_matches_constructor():
    rng = random.Random(20000)
    pairs = [(0, 1), (1, 1), (-1, 1), (-3, 7)]
    while len(pairs) < 300:
        num = rng.getrandbits(rng.randint(1, 20000)) * rng.choice((1, -1))
        den = rng.getrandbits(rng.randint(1, 20000)) or 1
        if math.gcd(num, den) == 1:
            pairs.append((num, den))
    for num, den in pairs:
        got, want = _coprime_fraction(num, den), F(num, den)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got == want and hash(got) == hash(want)
        assert not got < want and not got > want and got <= want
        assert got + 1 > want and got - want == 0
        assert round(got, 3) == round(want, 3)
        if max(num.bit_length(), den.bit_length()) < 14000:
            # str() of a wider int passes the 4 300-digit int-string limit
            assert str(got) == str(want) and repr(got) == repr(want)
            if "__format__" in vars(F):  # Fraction format specs arrived in Python 3.12
                assert f"{got:.5e}" == f"{want:.5e}"


def test_graph_points_matches_brute_enumeration():
    # one family of each kind; the level-by-level enumeration composes affine
    # triples and sums the series inline, so compare it with per-word encode
    # and series calls
    for dist in (Dyadic(), Geometric(F(2, 5)), CustomPrefixTail((F(1, 3), F(1, 5)), F(2, 3))):
        for depth in range(1, 5):
            for cap in range(1, 6):
                points = graph_points(dist, depth, cap).points
                assert list(points) == brute_graph_points(dist, depth, cap)
                xs = [x for x, _ in points]
                assert all(a < b for a, b in zip(xs, xs[1:])), (dist, depth, cap)


def test_cylinder_increment_measure_matches_pmf_product():
    rng = random.Random(2024)
    for dist in FAMILIES:
        for _ in range(20):
            word = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 8)))
            expected = math.prod((ref_pmf(dist, d) for d in word), start=F(1))
            assert cylinder_increment(dist, word).measure == expected


def test_render_decimal_matches_reference():
    rng = random.Random(77)
    values = [F(0), F(1), F(-1), F(7), F(-12), F(1, 2), F(-1, 2), F(10**45 + 1, 10**15)]
    for precision in range(1, 41):
        # exact ties just past the last kept digit, with odd and even last digits
        for last in range(10):
            k = rng.randint(0, 10**precision // 10)
            tie = F(2 * (10 * k + last) + 1, 2 * 10**precision)
            values += [tie, -tie, tie + rng.randint(1, 99)]
    for _ in range(400):
        den = rng.choice((1, 2, 3, 7, 10**rng.randint(1, 50), rng.randint(1, 1 << 200)))
        values.append(F(rng.randint(-(1 << 220), 1 << 220), den))
    for value in values:
        for precision in (1, 2, 5, 17, 30, 40):
            assert render_decimal(value, precision) == ref_render_decimal(value, precision)
    for precision in range(1, 41):
        for value in values[::7]:
            assert render_decimal(value, precision) == ref_render_decimal(value, precision)


def test_series_budget_on_digit_sum(monkeypatch):
    # the real budget: sums that would shift past 2^24 bits raise before shifting
    huge = series.MAX_DIGIT_SUM + 1
    for call in (
        lambda: alt_series_exact(DigitSeq((), (huge,))),
        lambda: alt_series_exact(DigitSeq((huge,), (1,))),
        lambda: alt_series_exact((10**99, 3)),
        lambda: prefix_enclosure((2, 100_000_000_000)),
    ):
        with pytest.raises(ResourceLimitError):
            call()
    # the boundary, on a small budget
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 10)
    assert alt_series_exact((3, 7)) == ref_alt_series_exact((3, 7))
    assert alt_series_exact(DigitSeq((4,), (6,))) == ref_alt_series_exact(DigitSeq((4,), (6,)))
    for stream in ((3, 8), (11,), DigitSeq((), (5, 6)), DigitSeq((11,), (1,))):
        with pytest.raises(ResourceLimitError):
            alt_series_exact(stream)


def test_codec_budget_on_digit_sum(monkeypatch):
    # the real budget: a word or digit past 2^24 raises before any power is built
    huge = series.MAX_DIGIT_SUM + 1
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-1]):
        for call in (
            lambda: encode(dist, DigitSeq((), (100_000_000_000,))),
            lambda: encode(dist, DigitSeq((huge,), (1,))),
            lambda: cylinder(dist, (2, huge)),
            lambda: dist.affine(huge),
            lambda: dist.pmf(10**5000),
        ):
            with pytest.raises(ResourceLimitError):
                call()
    # the boundary, on a small budget: encode composes the preperiod and the
    # period apart, cylinder composes the word's right sibling too
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 10)
    for dist in (Dyadic(), Geometric(F(2, 5)), FAMILIES[-2]):
        for seq in (DigitSeq((3, 7), (10,)), DigitSeq((10,), (4, 6))):
            assert encode(dist, seq) == ref_encode(dist, seq)
        _, q, l = dist.affine(10)
        assert F(q, l) == ref_pmf(dist, 10)
        assert cylinder(dist, (3, 6)).inf == ref_encode(dist, DigitSeq((3, 6), (1,)))
        assert cylinder(dist, (9,)).sup == ref_encode(dist, DigitSeq((10,), (1,)))
        for call in (
            lambda: encode(dist, DigitSeq((3, 8), (1,))),
            lambda: encode(dist, DigitSeq((), (5, 6))),
            lambda: cylinder(dist, (3, 7)),
            lambda: cylinder(dist, (10,)),
            lambda: dist.affine(11),
        ):
            with pytest.raises(ResourceLimitError):
                call()


# the digits before a digit of 40, over a budget of REFUSED_BUDGET: none, one,
# and two table words' worth, so that the digit sits at k = 1, 2 and 7
REFUSED_BUDGET = 30
REFUSED_PREFIXES = ((), (2,), (1, 2, 1, 3, 1, 2))


def _refused_digit_points():
    """(dist, x, k) with x's k-th digit over REFUSED_BUDGET; tables built on the full budget."""
    points = []
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[7], FAMILIES[-1]):
        words = {node[3] for node in _word_table(dist).index if node is not None}
        for prefix in REFUSED_PREFIXES:
            # the longest prefix is read as two table words before the digit
            assert len(prefix) < 3 or prefix[:3] in words
            points.append((dist, encode(dist, DigitSeq(prefix + (40,), (1,))), len(prefix) + 1))
    return points


def test_short_digits_end_before_a_refused_digit(monkeypatch):
    # a run ends just before a digit that shift refuses, with the exact remainder
    # there; the run that starts at the digit raises the per-digit loop's error
    points = _refused_digit_points()
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", REFUSED_BUDGET)
    for dist, x, k in points:
        want = _budget_outcome(ref_decode, dist, x, k)
        assert isinstance(want, str)
        y = x
        if k > 1:
            word = []
            y, room = expansion._short_digits(dist, x, word, 64, 64, REFUSED_BUDGET)
            digits, rest = ref_decode(dist, x, k - 1)
            assert word == digits, (dist, k)
            assert (y.numerator, y.denominator) == (rest.numerator, rest.denominator)
            assert room == REFUSED_BUDGET - sum(digits)
        word = []
        with pytest.raises(ResourceLimitError) as err:
            expansion._short_digits(dist, y, word, 64, 64, REFUSED_BUDGET)
        assert str(err.value) == want and word == []


def test_decode_budget_on_running_digit_sum(monkeypatch):
    # the digits of 1/3 under the dyadic law are 1, 2, 2, ...: 51 of them sum to 101
    rng = random.Random(31)
    long_points = [
        (dist, encode(dist, DigitSeq((), tuple(rng.randint(1, 3) for _ in range(1500)))))
        for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-2])
    ]
    big_digit_points = [(dist, encode(dist, DigitSeq((1, 3) * 10 + (150,), (1,))))
                        for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-1])]
    refused_points = _refused_digit_points()
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 100)
    assert decode(Dyadic(), F(1, 3), 50) == ref_decode(Dyadic(), F(1, 3), 50)
    with pytest.raises(ResourceLimitError) as err:
        decode(Dyadic(), F(1, 3), 60)
    assert str(err.value) == _budget_message(101)
    # the batch path stops at the same digit, with the same message, for any batch sizes
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 2000)
    for dist, x in long_points:
        digits, _ = ref_decode(dist, x, 1500)
        first = next(i for i in range(1500) if sum(digits[: i + 1]) > 2000)
        assert decode(dist, x, first) == ref_decode(dist, x, first)
        for sizes in ((1024, 512, 256), (200, 64, 60), (40, 40, 48)):
            with mock.patch.multiple(expansion, _BATCH_BITS=sizes[0], _LEAD_BITS=sizes[1],
                                     _WORD_BITS=sizes[2]):
                with pytest.raises(ResourceLimitError) as err:
                    decode(dist, x, 1500)
            assert str(err.value) == _budget_message(sum(digits[: first + 1]))
    # a digit over the budget on its own: y0's search refuses it, and x's own step
    # raises with the message of the plain loop
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 100)
    for dist, x in big_digit_points:
        want = _budget_outcome(ref_decode, dist, x, 30)
        assert isinstance(want, str)
        for sizes in ((1024, 512, 256), (100, 64, 60), (40, 40, 48)):
            with mock.patch.multiple(expansion, _BATCH_BITS=sizes[0], _LEAD_BITS=sizes[1],
                                     _WORD_BITS=sizes[2]):
                assert _budget_outcome(decode, dist, x, 30) == want
    # a digit over the budget at k = 1, 2 and after two table words: the digits
    # before it, then the per-digit loop's message
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", REFUSED_BUDGET)
    for dist, x, k in refused_points:
        for n in range(max(k - 1, 1), k + 3):
            want = _budget_outcome(ref_decode, dist, x, n)
            assert isinstance(want, str) == (n >= k)
            assert _budget_outcome(decode, dist, x, n) == want, (dist, k, n)


def test_short_decode_with_zero_remainder_inside_a_word():
    # a lookup can propose a word such as (3, 1, 1) whose remainder is 0 after its
    # first digit; the unreduced pair (0, d*B) must come out as the plain loop's 0/1
    for dist in FAMILIES:
        for word in ((2, 3), (1, 2), (3,), (2, 2, 2, 1, 2), (4, 1, 3)):
            x = encode(dist, DigitSeq(word, (1,)))
            for n in range(1, 12):
                assert decode(dist, x, n) == ref_decode(dist, x, n)


def test_decode_budget_inside_a_table_word(monkeypatch):
    # a budget that a table word would pass is met digit by digit, so the error
    # names the running digit sum that the plain loop reaches
    rng = random.Random(16)
    cases = []
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[7]):
        # built and cached on the full budget
        assert _word_table(dist) is not None
        x = encode(dist, DigitSeq(tuple(rng.randint(1, 3) for _ in range(40)), (2,)))
        cases.append((dist, x, *ref_decode(dist, x, 40)))
    for dist, x, digits, rest in cases:
        sums = list(itertools.accumulate(digits))
        for budget in range(40, sums[-1] + 2):
            monkeypatch.setattr(series, "MAX_DIGIT_SUM", budget)
            over = next((total for total in sums if total > budget), None)
            want = (digits, rest) if over is None else _budget_message(over)
            assert _budget_outcome(decode, dist, x, 40) == want, (dist, budget)


def _budget_message(total):
    """The message of series.check_digit_sum(total)."""
    try:
        series.check_digit_sum(total)
    except ResourceLimitError as exc:
        return str(exc)
    raise AssertionError(f"{total} is within the budget")


MC_QS = (F(1, 2), F(1, 3), F(2, 5), F(1, 4), F(3, 7), F(5, 6))


def _mc_points(seed, count):
    """Seeded 64-bit draws plus the edge cases of the Monte Carlo sampler."""
    rng = random.Random(seed)
    edges = {0, 1, 1 << 63, (1 << 64) - 1}
    edges.update(1 << k for k in range(64))
    edges.update((1 << k) - 1 for k in range(65))
    # short draws: leading zero bits of x, which are digit 1s
    short = [rng.getrandbits(rng.randint(1, 63)) for _ in range(count)]
    return sorted(edges) + short + [rng.getrandbits(64) for _ in range(count)]


def _table_sample(s, t, a):
    """The Monte Carlo table walk's sample at a under q = s/t, on the law's own word table."""
    dist = Geometric(F(s, t))
    return _mc_sample_table(dist, _word_table(dist), t.bit_length() - 1, a)


def test_mc_sample_kernels_match_reference():
    for a in _mc_points(164, 1000):
        assert _mc_sample_dyadic(a) == ref_mc_sample_int(1, 2, a), a
    for q in MC_QS:
        s, t = q.numerator, q.denominator
        for a in _mc_points(t, 150):
            assert _table_sample(s, t, a) == ref_mc_sample_int(s, t, a), (q, a)
    # digits near 100 per step: each reference sample walks about 6 400 candidates
    for a in (0, (1 << 64) - 1, random.Random(100).getrandbits(64)):
        assert _table_sample(1, 100, a) == ref_mc_sample_int(1, 100, a), a


def test_table_walk_zero_inside_a_word():
    # under q = 1/4 the left end of the cylinder of (2,) is 1/4, whose remainder is 0
    # after its first digit: the walk certifies the word (2, 1, 1) and stops at (2,)
    for a in (1 << 62, (1 << 62) - 1, (1 << 62) + 1, 0):
        assert _table_sample(1, 4, a) == ref_mc_sample_int(1, 4, a), a
    assert _table_sample(1, 4, 1 << 62) == (6 * 1 - 2, 2)


def test_mc_kernel_steps_through_the_shared_search(monkeypatch):
    # a table miss takes its digit from Distribution._digit and its triple from
    # affine: one call of each per plain step, at that step's remainder (from
    # shift, before the counters). q = 1/100 has no word table, so every digit
    # is a plain step
    rng = random.Random(25)
    draws = {F(1, 100): [rng.getrandbits(64) for _ in range(4)],
             F(1, 3): [rng.getrandbits(64) for _ in range(300)]}
    walks = {}
    for q, points in draws.items():
        for a in points:
            x, steps = F(a, 1 << 64), []
            while x and len(steps) < 64:
                c, y = shift(Geometric(q), x)
                steps.append((x, c))
                x = y
            walks[q, a] = steps
    tables = {q: _word_table(Geometric(q)) for q in draws}
    assert tables[F(1, 100)] is None and tables[F(1, 3)] is not None
    calls = []
    search, build = Distribution._digit, Distribution.affine

    def digit(self, n, d, bits=1):
        c = search(self, n, d, bits)
        calls.append((F(n, d), c))
        return c

    def affine(self, i):
        calls.append(i)
        return build(self, i)

    monkeypatch.setattr(Distribution, "_digit", digit)
    monkeypatch.setattr(Distribution, "affine", affine)
    plain = Counter()
    for (q, a), steps in walks.items():
        calls.clear()
        got = _mc_sample_table(Geometric(q), tables[q], q.denominator.bit_length() - 1, a)
        if tables[q] is not None:
            assert got == ref_mc_sample_int(q.numerator, q.denominator, a), (q, a)
        searched, built = calls[::2], calls[1::2]
        assert len(searched) == len(built) and [c for _, c in searched] == built, (q, a)
        # raises ValueError if a search was made at no remainder of x's walk
        at = [steps.index(step) for step in searched]
        assert at == sorted(set(at)), (q, a)
        if tables[q] is None:
            assert at == list(range(len(steps))), (q, a)
        plain[q] += len(at)
    assert plain[F(1, 100)] == 4 * 64
    assert 0 < plain[F(1, 3)] < 2 * len(draws[F(1, 3)])


def test_mc_kernel_serves_custom_heads():
    # the table walk is law-generic: under custom heads its samples equal decode's by value
    for spec in ("custom:1/3,1/5;2/3", "custom:1/4,1/6;1/2", "custom:2/5,1/10;3/5",
                 "custom:1/7,2/9,1/12;3/5"):
        dist = parse_distribution(spec)
        table, bits = _word_table(dist), dist.tail_ratio.denominator.bit_length() - 1
        assert table is not None, spec
        for a in _mc_points(len(spec), 750):
            got, want = _mc_sample_table(dist, table, bits, a), _mc_sample_decode(dist, a)
            assert F(got[0], 3 << got[1]) == F(want[0], 3 << want[1]), (spec, a)


def _bench_specs(monkeypatch):
    """Every distribution spec that the benchmark's workloads send to the CLI."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    workloads = importlib.import_module("workloads")
    specs = set(workloads.EXACT_FAMILIES) | set(workloads.SWEEP_FAMILIES)
    specs.update(spec for kind in workloads.MC_FAMILIES.values() for spec in kind)
    return sorted(specs)


def _heavy_words(dist, bits, size):
    """Every word of 1 to `size` digits with measure at least 2^-bits, searched with `ref_pmf`."""
    head = len(dist.head) if isinstance(dist, CustomPrefixTail) else 0
    heavy, c = [], 1
    while True:
        p = ref_pmf(dist, c)
        if p * (1 << bits) >= 1:
            heavy.append((c, p))
        elif c > head:
            break
        c += 1
    words, level = [], [((), F(1))]
    for _ in range(size):
        level = [(w + (c,), m * p) for w, m in level for c, p in heavy
                 if m * p * (1 << bits) >= 1]
        words += [w for w, _ in level]
    return words


def test_equal_distributions_share_one_word_table():
    # every CLI op parses a new distribution, and a cache hit compares it by its stored integers
    for spec in ("dyadic", "geometric:1/3", "custom:1/3,1/5;2/3", "custom:1/10;1/2"):
        first, second = parse_distribution(spec), parse_distribution(spec)
        assert first is not second and first == second
        assert _word_table(first) is _word_table(second)
    assert _word_table(Dyadic()) is not _word_table(Geometric(F(1, 2)))
    assert CustomPrefixTail((F(1, 3), F(1, 5)), F(2, 3)) != CustomPrefixTail(
        (F(1, 3), F(1, 6)), F(2, 3))
    assert CustomPrefixTail((F(1, 2),), F(1, 2)) != CustomPrefixTail((F(1, 4), F(1, 4)), F(1, 2))
    # the same lcm, tail mass and ratio, with the head in another order
    assert CustomPrefixTail((F(1, 6), F(1, 3)), F(1, 2)) != CustomPrefixTail(
        (F(1, 3), F(1, 6)), F(1, 2))


def test_word_table_bounds(monkeypatch):
    bits, size = expansion._TABLE_MEASURE_BITS, expansion._TABLE_DIGITS
    cap = expansion._TABLE_MAP_BITS
    odd = (1 << 200) + 235
    dists = [parse_distribution(spec) for spec in _bench_specs(monkeypatch)] + [
        Geometric(F(1, 10**8)),
        Geometric(F(10**8 - 1, 10**8)),
        # a head whose first mass is tiny, and one whose masses have 200-bit denominators
        CustomPrefixTail((F(1, 10**9), F(1, 2)), F(1, 2)),
        CustomPrefixTail((F(odd // 3, odd), F(odd // 5, odd + 2)), F(1, 3)),
    ]
    for dist in dists:
        took = []
        for _ in range(5):
            _word_table.cache_clear()
            start = time.perf_counter()
            table = _word_table(dist)
            took.append(time.perf_counter() - start)
        assert min(took) < 1e-3, (dist, took)
        heavy = _heavy_words(dist, bits, size)
        if table is None:
            # nothing to tabulate, or a word's map past the cap
            assert not heavy or max(_compose(dist, w)[2] for w in heavy).bit_length() > cap
            continue
        nodes = set(table.index) - {None}
        words = {node[3] for node in nodes}
        assert words <= set(heavy)
        for length in range(1, size + 1):
            assert len({w for w in words if len(w) == length}) <= 1 << bits
        # a word of the full length covers a bucket that no longer word takes
        assert {w for w in words if len(w) == size} == {w for w in heavy if len(w) == size}
        assert all(den.bit_length() <= cap for _, _, den, *_ in nodes), dist
    _word_table.cache_clear()
    assert _word_table(Geometric(F(1, 10**8))) is None
    # the heavy words are (1,), (1, 1) and (1, 1, 1), each inside the one before, so the
    # longest holds every bucket but the last, which reaches past digit 1's cylinder
    dist = Geometric(F(10**8 - 1, 10**8))
    assert set(_heavy_words(dist, bits, size)) == {(1,), (1, 1), (1, 1, 1)}
    last = (1 << expansion._INDEX_BITS) - 1
    assert [node and node[3] for node in _word_table(dist).index] == [(1, 1, 1)] * last + [None]


def test_bucket_index_holds_the_longest_covering_word(monkeypatch):
    # every bucket of every table holds the node of the longest word in the table whose
    # cylinder holds the whole bucket, or None when no word's cylinder does
    bits = expansion._INDEX_BITS
    assert bits == expansion._TABLE_MEASURE_BITS + 3
    dists = [parse_distribution(spec) for spec in _bench_specs(monkeypatch)] + list(FAMILIES) + [
        Geometric(F(99, 100)),
        # no word for digit 1, so the buckets of its cylinder hold None
        CustomPrefixTail((F(1, 10**9), F(1, 2)), F(1, 2)),
        CustomPrefixTail((F(1, 3), F(1, 7)), F(5, 11)),
    ]
    for dist in dists:
        table = _word_table(dist)
        assert table is not None, dist
        want = ref_bucket_index(dist, bits, expansion._TABLE_DIGITS, expansion._TABLE_MEASURE_BITS)
        assert table.index_bits == bits and len(table.index) == len(want) == 1 << bits
        assert [node and node[3] for node in table.index] == want, dist
        for a, b, den, word, total, alt in set(table.index) - {None}:
            assert (a, b, den) == _compose(dist, word)
            assert (alt, total) == _finite_sum(word)[:2]


def test_walks_unchanged_without_the_index(monkeypatch):
    # with every index entry None, each lookup takes a plain step: the digits,
    # remainders, periodic streams and Monte Carlo estimates are the same
    rng = random.Random(27)
    dists = [parse_distribution(spec) for spec in _bench_specs(monkeypatch)]
    points = []
    for dist in dists:
        points += [(dist, F(rng.getrandbits(64), 1 << 64), 50) for _ in range(40)]
        seq = DigitSeq((), tuple(rng.randint(1, 3) for _ in range(600)))
        points.append((dist, encode(dist, seq), 700))

    def run():
        return ([decode(dist, x, n) for dist, x, n in points],
                [decode_periodic(dist, x) for dist, x, n in points if n == 700],
                [integral_mc(dist, 150, 5) for dist in dists])

    indexed = run()
    plain = {dist: _word_table(dist)._replace(index=(None,) * (1 << expansion._INDEX_BITS))
             for dist in dists}
    for module in (expansion, integral):
        monkeypatch.setattr(module, "_word_table", lambda dist: plain.get(dist))
    assert run() == indexed


def _strip(n, primes):
    """n with every prime factor of `primes` divided out."""
    g = math.gcd(n, primes)
    while g > 1:
        n //= g
        g = math.gcd(n, primes)
    return n


def _prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _valuation(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _random_law(rng):
    """A geometric law with q = s/t, t <= 1000, or a custom head of 1-4 masses."""
    if rng.random() < 0.5:
        t = rng.randint(2, 1000)
        return Geometric(F(rng.randint(1, t - 1), t))
    while True:
        head = tuple(F(rng.randint(1, 6), rng.randint(7, 60)) for _ in range(rng.randint(1, 4)))
        if sum(head) < 1:
            rd = rng.randint(2, 60)
            return CustomPrefixTail(head, F(rng.randint(1, rd - 1), rd))


def test_branch_primes_against_affine():
    rng = random.Random(29)
    for dist in FAMILIES + tuple(_random_law(rng) for _ in range(60)):
        primes, w = dist.branch_primes()
        assert primes > 1 and w >= 1 and math.gcd(w, primes) == 1
        g = 0
        for c in range(1, 41):
            _, q, l = dist.affine(c)
            assert _strip(l, primes) == 1, (dist, c)
            if c >= 2:
                assert q % w == 0, (dist, c)
                g = math.gcd(g, q)
        # W is all of the S-free part of gcd(Q(c), c >= 2) that 40 digits show
        assert _strip(g, primes) == w, dist
    assert [d.branch_primes()[1] > 1 for d in FAMILIES].count(True) == 6


def test_aperiodic_certificate_by_hand():
    rng = random.Random(2026)
    fired = 0
    for dist in FAMILIES:
        _, w = dist.branch_primes()
        for _ in range(40):
            x = F(rng.randrange(300), 300 + rng.randrange(300))
            r = decode_periodic(dist, x, max_steps=600)
            if not isinstance(r, Aperiodic):
                continue
            fired += 1
            assert r.witness > 1 and w % r.witness == 0
            assert len(r.prefix) == r.step
            digits, _ = decode(dist, x, r.step + 20)
            assert tuple(digits[: r.step]) == r.prefix
            dens = [x.denominator]
            y = x
            for _ in range(r.step + 20):
                y = shift(dist, y)[1]
                dens.append(y.denominator)
            for p in _prime_factors(r.witness):
                v = [_valuation(den, p) for den in dens]
                assert all(a <= b for a, b in zip(v, v[1:])), (dist, x, p)
                assert all(e > 0 for e in v[r.step:]), (dist, x, p)
            # the certificate fires at the first remainder any prime of W reaches
            for p in _prime_factors(w):
                assert all(_valuation(den, p) == 0 for den in dens[: r.step]), (dist, x, p)
    assert fired > 150


def test_batched_walk_hands_hard_points_to_the_exact_walk():
    rng = random.Random(23)
    g = Geometric(F(1, 3))
    _, w = g.branch_primes()
    seq = DigitSeq(tuple(rng.randint(1, 3) for _ in range(30)),
                   tuple(rng.randint(1, 3) for _ in range(1500)))
    x = encode(g, seq)
    assert x.denominator.bit_length() > expansion._ENCODE_CHECK_BITS and len(seq.preperiod) > 20
    # x's exact remainders r_0 .. r_(mu+lambda), one shift each, and their integer pairs
    rems = [x]
    for _ in range(len(seq.preperiod + seq.period)):
        rems.append(shift(g, rems[-1])[1])
    keys = [(r.numerator, r.denominator) for r in rems]
    exact = ref_exact_walk(g, x)
    walk_repeat = expansion._walk_repeat
    hits = []

    def spy(branches, digits, starts, rests, held, k):
        before = list(held)
        result = walk_repeat(branches, digits, starts, rests, held, k)
        hits.append((k, before, result, list(held)))
        return result

    # fingerprints modulo a tiny prime collide every few digits: each hit is
    # tested against every earlier remainder with its fingerprint, oldest
    # first, each false one is refused, and the batched walk itself goes on
    # to the true repeat; Q = 2^(c-1) is prime to each of these moduli
    tiny = [p for p in (5, 7, 11, 13) if x.denominator % p]
    assert len(tiny) >= 3
    for modulus in tiny:
        hits.clear()
        with mock.patch.object(expansion, "_PRINT_MOD", modulus), \
                mock.patch.object(expansion, "_walk_repeat", spy), \
                mock.patch.object(expansion, "_batched_walk",
                                  wraps=expansion._batched_walk) as batched:
            assert decode_periodic(g, x) == seq
            assert batched.call_count == 1
        assert len(hits) > 1000 // modulus
        *refused, (last, tried, found, _) = hits
        for k, before, result, after in refused:
            # every remainder in held was checked when it joined
            assert result is None and k < len(rems) - 1 and after[-1] == (k, rems[k])
            positions = [i for i, _ in before]
            assert positions == sorted(positions)
            assert all(keys[i] != keys[k] for i in positions)
        # the last hit is the exact walk's first repeat, at mu + lambda
        assert last == len(rems) - 1 and found == seq
        assert (found.preperiod, found.period) == ref_digit_seq(found.preperiod, found.period)
        assert any(i == len(seq.preperiod) for i, _ in tried)
        with mock.patch.object(expansion, "_PRINT_MOD", modulus):
            assert expansion._batched_walk(g, x, 4096, w) == seq == exact
    # a modulus that divides some Q, or x's denominator, hands the point to
    # the plain walk, which gives the exact walk's result: Q(2) = 2 is a
    # multiple of 2, and 3 divides the denominator of x / 3, so the batched
    # walk never starts
    y = x / 3
    for point, modulus, calls in ((x, 2, 1), (y, 3, 0)):
        with mock.patch.object(expansion, "_PRINT_MOD", modulus), \
                mock.patch.object(expansion, "_batched_walk",
                                  wraps=expansion._batched_walk) as batched, \
                mock.patch.object(expansion, "_plain_walk",
                                  wraps=expansion._plain_walk) as plain:
            assert decode_periodic(g, point) == ref_exact_walk(g, point)
            assert batched.call_count == calls and plain.call_count == 1
            if calls:
                assert expansion._batched_walk(g, point, 4096, w) is None
    assert decode_periodic(g, x) == seq


def _is_prime(n):
    """Miller-Rabin with the first 13 prime bases, exact for n below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n in bases:
        return True
    if n < 2 or any(n % b == 0 for b in bases):
        return False
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for b in bases:
        y = pow(b, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def test_fingerprint_prime_divides_no_dyadic_period_factor():
    # p = 2q + 1 with p and q prime and p = 3 mod 8; ord_p(2) divides 2q, and
    # 2^2 and 2^q = -1 are not 1, so it is 2q: p divides 2^s - 1 only when 2q
    # divides s, and 2q is past the digit budget. p < 2^30, so a fingerprint
    # is one CPython digit
    p = expansion._PRINT_MOD
    q = (p - 1) // 2
    assert p < 1 << 30 and p % 8 == 3 and _is_prime(p) and _is_prime(q)
    assert pow(2, q, p) == p - 1 and pow(2, 2, p) != 1
    assert 2 * q > series.MAX_DIGIT_SUM
    # the test itself: a Mersenne prime, and a strong pseudoprime to bases 2, 3, 5 and 7
    assert _is_prime((1 << 61) - 1) and not _is_prime(3215031751)


def test_plain_walk_at_the_fingerprint_prime():
    # the fingerprint prime p divides the denominators of x = k / (p*m), so
    # they take the plain walk, under dyadic, geometric:1/3 and a custom head;
    # so do the points of a custom law whose first digit has Q(1) = 5p, once
    # the batched walk meets that digit. Each result is the exact walk's, and
    # so is each message under a small digit budget
    p = expansion._PRINT_MOD
    rng = random.Random(1073739179)
    points = []
    for spec in ("dyadic", "geometric:1/3", "custom:1/3,1/4;1/2"):
        dist = parse_distribution(spec)
        for _ in range(12):
            d = p * rng.randint(1, 10**6)
            points.append((dist, F(rng.randrange(d), d), True))
    law = CustomPrefixTail((F(p, 1 << 31), F(1, 5)), F(1, 2))
    assert law.affine(1)[1] == 5 * p
    for length in (1, 5, 40, 300):
        for _ in range(3):
            seq = DigitSeq(tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4))),
                           (1,) + tuple(rng.randint(1, 3) for _ in range(length - 1)))
            points.append((law, encode(law, seq), False))
    for bits in (20, 200, 600):
        for _ in range(3):
            d = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            points.append((law, F(rng.randrange(d), d), False))
    kinds, plain_walks = set(), 0
    for budget in (None, 12):
        for dist, x, divides in points:
            with mock.patch.object(series, "MAX_DIGIT_SUM", budget or series.MAX_DIGIT_SUM):
                want = _budget_outcome(ref_exact_walk, dist, x, 600)
                with mock.patch.object(expansion, "_plain_walk",
                                       wraps=expansion._plain_walk) as plain:
                    assert _budget_outcome(decode_periodic, dist, x, 600) == want, (dist, x)
            kinds.add(type(want).__name__)
            plain_walks += plain.call_count
            # only W on x itself ends such a point before the plain walk
            if divides:
                assert plain.call_count == 1 or want.step == 0, (dist, x)
    assert kinds == {"DigitSeq", "Aperiodic", "NotDetected", "str"}
    assert plain_walks > len(points)


def test_dyadic_period_with_digit_sum_a_multiple_of_61_takes_the_batched_walk():
    # 2^61 - 1 divides 2^s - 1, and so the point's denominator, whenever 61
    # divides the period's digit sum s; the fingerprint prime never does
    rng = random.Random(61)
    dyadic = Dyadic()
    _, w = dyadic.branch_primes()
    for length in (700, 2000):
        per = [rng.randint(1, 3) for _ in range(length - 1)]
        per.append(61 - sum(per) % 61)
        seq = DigitSeq((3,), tuple(per))
        x = encode(dyadic, seq)
        assert sum(seq.period) % 61 == 0 and x.denominator % ((1 << 61) - 1) == 0
        assert x.denominator.bit_length() > expansion._ENCODE_CHECK_BITS
        with mock.patch.object(expansion, "_batched_walk",
                               wraps=expansion._batched_walk) as batched:
            assert decode_periodic(dyadic, x) == seq
        assert batched.call_count == 1
        assert expansion._batched_walk(dyadic, x, 4096, w) == seq == ref_exact_walk(dyadic, x)


def test_batched_walk_in_the_band_below_2560_bits():
    # on points of _ENCODE_CHECK_BITS to 2 560 bits the batched walk gives the
    # exact walk's DigitSeq, Aperiodic and NotDetected; a step budget that is
    # no multiple of 3 stops it where a table word would run past it
    rng = random.Random(1280)
    band = range(expansion._ENCODE_CHECK_BITS + 1, 2561)
    # period lengths of about 1 350, 1 800 and 2 400 bits under each family
    lengths = {"dyadic": (680, 900, 1180), "geometric:1/3": (430, 570, 760),
               "custom:1/3,1/4;1/2": (500, 660, 880)}
    for spec, spans in lengths.items():
        dist = parse_distribution(spec)
        _, w = dist.branch_primes()
        points = []
        for length in spans:
            seq = DigitSeq((2, 1), tuple(rng.randint(1, 3) for _ in range(length)))
            points.append((encode(dist, seq), seq))
        for bits in (1400, 2000, 2500):
            d = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            points.append((F(rng.randrange(d), d), None))
        for x, seq in points:
            assert x.denominator.bit_length() in band, (dist, x.denominator.bit_length())
            for max_steps in (4096, 100, 497, 802):
                with mock.patch.object(expansion, "_batched_walk",
                                       wraps=expansion._batched_walk) as batched:
                    result = decode_periodic(dist, x, max_steps)
                assert batched.call_count == 1
                assert result == ref_exact_walk(dist, x, max_steps)
                if seq is not None and max_steps > len(seq.preperiod + seq.period):
                    assert result == seq
                elif isinstance(result, NotDetected):
                    assert len(result.prefix) == max_steps
                else:
                    assert w > 1 and isinstance(result, Aperiodic)


def test_batched_walk_in_the_band_below_1280_bits():
    # on points of _ENCODE_CHECK_BITS to 1 280 bits the batched walk reads
    # table words on its short remainders and gives the exact walk's
    # DigitSeq, Aperiodic and NotDetected, also when max_steps stops it just
    # before, at or just after mu + lambda, or inside a table word
    rng = random.Random(320)
    band = range(expansion._ENCODE_CHECK_BITS + 1, 1281)
    # period lengths of about 360, 800 and 1 200 bits under each family
    lengths = {"dyadic": (185, 400, 590), "geometric:1/3": (115, 255, 380),
               "custom:1/3,1/4;1/2": (135, 300, 445)}
    for spec, spans in lengths.items():
        dist = parse_distribution(spec)
        _, w = dist.branch_primes()
        points = []
        for length in spans:
            seq = DigitSeq((2, 1), tuple(rng.randint(1, 3) for _ in range(length)))
            steps = len(seq.preperiod + seq.period)
            points.append((encode(dist, seq), seq, (steps - 1, steps, steps + 1, 200, 4096)))
        for bits in (340, 800, 1270):
            d = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
            points.append((F(rng.randrange(d), d), None, (200, 301, 4096)))
        for x, seq, budgets in points:
            assert x.denominator.bit_length() in band, (dist, x.denominator.bit_length())
            for max_steps in budgets:
                with mock.patch.object(expansion, "_batched_walk",
                                       wraps=expansion._batched_walk) as batched:
                    result = decode_periodic(dist, x, max_steps)
                assert batched.call_count == 1
                assert result == ref_exact_walk(dist, x, max_steps)
                if seq is not None and max_steps >= len(seq.preperiod + seq.period):
                    assert result == seq
                elif isinstance(result, NotDetected):
                    assert len(result.prefix) == max_steps
                    assert seq is None or result.prefix == seq.digits(max_steps)
                else:
                    assert w > 1 and isinstance(result, Aperiodic)


def test_batched_walk_witness_inside_a_batch():
    # a random word's map applied to a long point with no period: the witness
    # 2 arrives after the word, and the remainders stay long enough for
    # full-size batches, so it is found by walking one batch again
    rng = random.Random(5)
    g = Geometric(F(1, 3))
    word = tuple(rng.randint(1, 3) for _ in range(700))
    d = rng.getrandbits(2000) | 1
    a, b, den = expansion._compose(g, word)
    x = (a + b * F(rng.randrange(d), d)) / den
    found = []
    first_witness = expansion._first_witness

    def spy(dist, y, batch, digits, w):
        start = len(digits)
        result = first_witness(dist, y, batch, digits, w)
        found.append((len(batch), result.step - start, y.denominator.bit_length()))
        return result

    with mock.patch.object(expansion, "_first_witness", spy):
        result = decode_periodic(g, x)
    assert isinstance(result, Aperiodic) and result.step > len(word)
    assert result == ref_exact_walk(g, x)
    (length, offset, bits), = found
    assert 1 <= offset < length and bits > expansion._BATCH_BITS


def test_batched_walk_finds_a_witness_before_a_digit_over_the_budget(monkeypatch):
    # digit 18 brings the witness 99 = gcd(Q(c), c >= 2) into the remainder
    # y >= 1/2, whose first digit is past a budget of 30: the run that would
    # reach that digit is walked a step at a time, so the walk ends at the
    # witness, as the exact walk does, before the digit raises
    g = Geometric(F(1, 100))
    rng = random.Random(18)
    d = rng.getrandbits(600) | 1 | (1 << 599)
    y = F(rng.randrange(d // 2, d), d)
    p, q, l = g.affine(18)
    x = (p + q * y) / l
    assert x.denominator.bit_length() > expansion._ENCODE_CHECK_BITS
    refused_points = _refused_digit_points()
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 30)
    with pytest.raises(ResourceLimitError):
        shift(g, y)
    result = decode_periodic(g, x)
    assert result == ref_exact_walk(g, x)
    assert isinstance(result, Aperiodic) and result.prefix == (18,) and result.step == 1
    # with no witness, the walk on short points raises at the digit over the
    # budget, at k = 1, 2 and after two table words, as the exact walk does
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", REFUSED_BUDGET)
    for dist, x, k in refused_points:
        want = _budget_outcome(ref_exact_walk, dist, x)
        assert isinstance(want, str)
        assert _budget_outcome(decode_periodic, dist, x) == want, (dist, k)


def test_decode_periodic_memory_is_linear():
    # the exact walk kept every remainder, 18-28 MB at an 8 000-digit period;
    # the fingerprint walk keeps one 30-bit fingerprint per remainder
    rng = random.Random(8000)
    for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[7]):
        seq = DigitSeq((2, 3), tuple(rng.randint(1, 3) for _ in range(8000)))
        x = encode(dist, seq)
        tracemalloc.start()
        try:
            result = decode_periodic(dist, x, max_steps=8100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == seq
        assert peak < 4 << 20, (dist, peak)


def test_power_budget():
    """Tail digit k + j is refused when j * bit_length(rd) passes MAX_POWER_BITS.

    affine refuses it before any pow, and the digit search refuses a point
    whose geometric lower bound already does. No law with rd <= 3 reaches
    this budget inside the digit budget, and no law with rd <= 7 pays for
    the search's check.
    """
    tiny = Geometric(F(1, 10**8))
    last = MAX_POWER_BITS // (10**8).bit_length()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="digit 1242757's branch triple needs a power"):
        tiny.affine(last + 1)
    for x in (F(1, 10), F(1, 20)):
        with pytest.raises(ResourceLimitError, match="whose branch triple needs a power"):
            tiny.digit_of(x)
    head = CustomPrefixTail((F(1, 2),), F(10**8 - 1, 10**8))
    with pytest.raises(ResourceLimitError, match="digit 1242758's branch triple"):
        head.affine(last + 2)
    assert time.perf_counter() - start < 1
    # a 2 001-bit rd with digits near 2^15: inside the digit budget, but at
    # 3/4 the search's lower bound, about 24 600, passes 2^25 / 2 001
    wide = Geometric(F(1, 1 << 15) + F(1, 1 << 2000))
    with pytest.raises(ResourceLimitError, match="whose branch triple needs a power"):
        wide.digit_of(F(3, 4))
    assert wide.digit_of(F(1, 1 << 30)) == 1
    for dist in FAMILIES + (Geometric(F(1, 4)), Geometric(F(2, 5)), Geometric(F(1, 7))):
        _, _, r = dist.head_tail()
        last_j, wide = dist._tail[-2:]
        assert not wide
        if r.denominator <= 3:
            assert last_j >= series.MAX_DIGIT_SUM


def test_digit_search_budget(monkeypatch):
    # a tiny q puts the first digit past the budget: raised before any power
    for dist, x in (
        (Geometric(F(1, 10**8)), F(1, 2)),
        (CustomPrefixTail((F(1, 2),), F(10**8 - 1, 10**8)), F(3, 4)),
    ):
        with pytest.raises(ResourceLimitError):
            dist.digit_of(x)
    # the Monte Carlo search, held in the bits of t^c; and n digits sum to at least n
    with pytest.raises(ResourceLimitError):
        _table_sample(1, 10**8, 1 << 63)
    with pytest.raises(ResourceLimitError):
        decode(Dyadic(), F(1, 3), series.MAX_DIGIT_SUM + 1)
    # on a small budget the bound never refuses a digit within it
    rng = random.Random(10)
    dists = (Geometric(F(1, 100)), Geometric(F(2, 301)),
             CustomPrefixTail((F(1, 3), F(1, 5)), F(97, 100)))
    points = [F(rng.randrange(1000), 1000) for _ in range(300)]
    digits = {(dist, x): dist.digit_of(x) for dist in dists for x in points}
    monkeypatch.setattr(series, "MAX_DIGIT_SUM", 10)
    refused = 0
    for (dist, x), c in digits.items():
        try:
            assert dist.digit_of(x) == c
        except ResourceLimitError:
            assert c > 10
            refused += 1
    assert refused > 300
    # the walk refuses a digit where shift's digit_of and affine do, with the same error
    refused = 0
    for dist in dists:
        for x in points[:100]:
            walk, ref = (_budget_outcome(f, dist, x, 30)
                         for f in (decode_periodic, ref_decode_periodic))
            if isinstance(walk, Aperiodic):
                # the certificate can end the walk before a digit over budget
                assert isinstance(ref, (NotDetected, str))
            else:
                assert walk == ref, (dist, x)
                refused += isinstance(walk, str)
    assert refused > 150


def _budget_outcome(fn, *args):
    """fn's result, or the message of the ResourceLimitError it raises."""
    try:
        return fn(*args)
    except ResourceLimitError as exc:
        return str(exc)


def test_shift_builds_one_triple(monkeypatch):
    # one digit search and one affine call per shift: affine alone builds the triple
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    dists = [parse_distribution(spec) for spec in _bench_specs(monkeypatch)]
    for cls in (Distribution, Dyadic):
        monkeypatch.setattr(cls, "_digit", counted("_digit", vars(cls)["_digit"]))
    monkeypatch.setattr(Distribution, "affine", counted("affine", Distribution.affine))
    rng = random.Random(23)
    for dist in dists:
        for _ in range(200):
            d = rng.getrandbits(40) | 1 << 39
            x = F(rng.randrange(d), d)
            calls.clear()
            c, y = shift(dist, x)
            assert calls == {"_digit": 1, "affine": 1}, (dist, x)
            assert x == dist.prefix(c) + dist.pmf(c) * y


def test_dyadic_shift_reads_a_huge_digit_from_bit_lengths():
    # the shared search would make about 100 000 multiplications of growing integers here
    x = 1 - F(1, 1 << 100000)
    start = time.perf_counter()
    assert shift(Dyadic(), x) == (100001, 0)
    assert time.perf_counter() - start < 0.5


def test_tail_search_lifts_by_squares():
    # the digit of 1 - 2^-160 under q = 1/1000 is 110 849; stepping one factor a digit
    # makes that many products of growing integers, and binary lifting about 70
    dist = Geometric(F(1, 1000))
    start = time.perf_counter()
    c = dist._digit((1 << 160) - 1, 1 << 160)
    assert time.perf_counter() - start < 2
    assert c == 110849
    # the least c with r^c < 1 - x for r = 999/1000, 1 - x = 2^-160
    assert 999**c << 160 < 1000**c
    assert 999 ** (c - 1) << 160 >= 1000 ** (c - 1)


def test_tail_search_stops_at_the_budgets(monkeypatch):
    # with budgets of 2^12 power bits (tail index 409 for rd = 1000) and of 300 for
    # the digit sum, the search finds every digit that affine builds and refuses the
    # next ones, at the first index past the budget
    monkeypatch.setattr(distribution, "MAX_POWER_BITS", 1 << 12)
    for dist, digit_sum, last, message in (
        (Geometric(F(1, 1000)), 1 << 24, 409, "at least 410, whose branch triple needs a power"),
        (CustomPrefixTail((F(1, 2),), F(999, 1000)), 1 << 24, 410,
         "at least 411, whose branch triple"),
        (Geometric(F(1, 3)), 300, 300, "at least 301, above the budget of 300"),
    ):
        monkeypatch.setattr(series, "MAX_DIGIT_SUM", digit_sum)
        head, rest, r = dist.head_tail()
        for c in range(last - 40, last + 40):
            # the least point of cylinder c, and the last point below it
            low = 1 - rest * r ** (c - 1 - len(head))
            for x in (low, low - F(1, low.denominator * 7)):
                want = c if x == low else c - 1
                if want <= last:
                    assert dist.digit_of(x) == want == ref_digit_of(dist, x)
                else:
                    with pytest.raises(ResourceLimitError, match=message):
                        dist.digit_of(x)


def test_tail_search_refuses_far_points_at_once():
    # 1 - 2^-k under q = 1/1000 has digit about 693 k: past the 2^25-bit power
    # budget (index 3 355 443) from k = 4 843 on, and past the digit budget from
    # k = 24 216. Two bit lengths bound the digit from below, so no power is built
    dist = Geometric(F(1, 1000))
    for k in (5000, 10000, 24000, 30000):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="at least 3355444, whose branch triple"):
            dist._digit((1 << k) - 1, 1 << k)
        assert time.perf_counter() - start < 0.5, k


def test_bounded_geometric_laws_have_no_word_table():
    # the Monte Carlo kernel holds a law to the budget in the bits of t^c when
    # t * (bit_length(t) - 1) > s * MAX_DIGIT_SUM, and walks it with no table:
    # q < 2^-9 leaves no digit in the table, or t passes the table's cap on a word's D
    t = (1 << 32769) | 1
    for q in (F(1, 10**8), F(t >> 9, t), F((t >> 9) + 1, t)):
        s, t_q = q.numerator, q.denominator
        assert t_q * (t_q.bit_length() - 1) > s * series.MAX_DIGIT_SUM, q
        assert _word_table(Geometric(q)) is None, q


def test_int_text_matches_str():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rng = random.Random(17)
        split = fmt._SPLIT_BITS
        values = [10**k for k in (0, 1, 3999, 4000, 4001, 8000, 19728, 19729, 40000)]
        values += [10**k - 1 for k in (4000, 4001, 19729, 40000)]
        for bits in (13_000, 14_001, split - 1, split, split + 1, split + 77, 3 * split):
            values.append(rng.getrandbits(bits) | (1 << (bits - 1)))
        values += [1 << split, (1 << split) - 1, (1 << (split + 1)) - 1]
        for v in values:
            for n in (v, -v):
                assert fmt.int_text(n) == str(n), n.bit_length()
    finally:
        sys.set_int_max_str_digits(old)
