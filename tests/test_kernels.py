"""The integer kernels against their plain Fraction references, bit for bit.

Fractions are always held in lowest terms, so `==` on two Fractions
compares their numerators and denominators exactly.
"""

import math
import random
import sys
import tracemalloc
from fractions import Fraction
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
    prefix_enclosure,
    render_decimal,
    shift,
)
from probmink import expansion, fmt, series
from probmink.errors import DomainError, ResourceLimitError
from probmink.expansion import _coprime_fraction
from probmink.integral import _mc_sample_dyadic, _mc_sample_geometric
from probmink.series import _finite_sum

from oracles import (
    FAMILIES,
    brute_graph_points,
    ref_alt_series_exact,
    ref_decode,
    ref_decode_periodic,
    ref_encode,
    ref_finite_sum,
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


def test_decode_budget_on_running_digit_sum(monkeypatch):
    # the digits of 1/3 under the dyadic law are 1, 2, 2, ...: 51 of them sum to 101
    rng = random.Random(31)
    long_points = [
        (dist, encode(dist, DigitSeq((), tuple(rng.randint(1, 3) for _ in range(1500)))))
        for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-2])
    ]
    big_digit_points = [(dist, encode(dist, DigitSeq((1, 3) * 10 + (150,), (1,))))
                        for dist in (Dyadic(), Geometric(F(1, 3)), FAMILIES[-1])]
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


def test_mc_sample_kernels_match_reference():
    for a in _mc_points(164, 1000):
        assert _mc_sample_dyadic(a) == ref_mc_sample_int(1, 2, a), a
    for q in MC_QS:
        s, t = q.numerator, q.denominator
        for a in _mc_points(t, 150):
            assert _mc_sample_geometric(s, t, a) == ref_mc_sample_int(s, t, a), (q, a)
    # digits near 100 per step: each reference sample walks about 6 400 candidates
    for a in (0, (1 << 64) - 1, random.Random(100).getrandbits(64)):
        assert _mc_sample_geometric(1, 100, a) == ref_mc_sample_int(1, 100, a), a


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


def test_branch_primes_against_affine():
    for dist in FAMILIES:
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


def _exact_walk(dist, x, max_steps=4096):
    with mock.patch.object(expansion, "_WALK_BATCH_BITS", 1 << 62):
        return decode_periodic(dist, x, max_steps)


def test_batched_walk_hands_hard_points_to_the_exact_walk():
    rng = random.Random(23)
    g = Geometric(F(1, 3))
    _, w = g.branch_primes()
    seq = DigitSeq((2,), tuple(rng.randint(1, 3) for _ in range(1500)))
    x = encode(g, seq)
    assert x.denominator.bit_length() > expansion._WALK_BATCH_BITS
    # a false repeat: fingerprints modulo a tiny prime collide within a few
    # digits, and its certification fails; Q(2) = 2 is a multiple of 2; and
    # 3 divides the denominator of x / 3, so the batched stage never starts
    tiny = next(p for p in (5, 7, 11, 13) if x.denominator % p)
    y = x / 3
    cases = ((x, tiny, 1), (x, 2, 1), (y, 3, 0))
    for point, modulus, calls in cases:
        with mock.patch.object(expansion, "_PRINT_MOD", modulus), \
                mock.patch.object(expansion, "_batched_walk",
                                  wraps=expansion._batched_walk) as batched:
            assert decode_periodic(g, point) == _exact_walk(g, point)
            assert batched.call_count == calls
            if calls:
                assert expansion._batched_walk(g, point, 4096, w) is None
    assert decode_periodic(g, x) == seq


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
    assert result == _exact_walk(g, x)
    (length, offset, bits), = found
    assert 1 <= offset < length and bits > expansion._BATCH_BITS


def test_decode_periodic_memory_is_linear():
    # the exact walk kept every remainder, 18-28 MB at an 8 000-digit period;
    # the batched stage keeps one 61-bit fingerprint per remainder
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
        _mc_sample_geometric(1, 10**8, 1 << 63)
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
