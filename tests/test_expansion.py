import random
import time
from fractions import Fraction

import pytest

from probmink import (
    Aperiodic,
    DigitSeq,
    DomainError,
    Dyadic,
    Geometric,
    NotDetected,
    ParseError,
    approximation_bound,
    cylinder,
    decode,
    decode_periodic,
    encode,
    encode_enclosure,
    parse_digit_seq,
    shift,
)

from oracles import ref_digit_seq

F = Fraction
DISTS = (Dyadic(), Geometric(F(1, 3)))


def test_parse_digit_seq():
    assert parse_digit_seq("1,2(1)") == DigitSeq((1, 2), (1,))
    assert parse_digit_seq("(2)") == DigitSeq((), (2,))
    assert parse_digit_seq("1,2") == DigitSeq((1, 2), (1,))
    assert parse_digit_seq(" 3 , 1 ( 2 , 5 ) ") == DigitSeq((3, 1), (2, 5))


def test_parse_digit_seq_errors():
    for bad in ("", "0,2", "(0)", "abc", "1,(2", "(1,2", "1,,2"):
        with pytest.raises(ParseError):
            parse_digit_seq(bad)


def test_canonical_form():
    # non-primitive periods collapse
    assert DigitSeq((), (1, 2, 1, 2)) == DigitSeq((), (1, 2))
    # preperiod digits absorbed into the period rotate it
    assert DigitSeq((2, 1), (2, 1)) == DigitSeq((), (2, 1))
    assert DigitSeq((1,), (2, 1)) == DigitSeq((), (1, 2))
    # a terminating stream is a tail of ones
    assert DigitSeq((5, 1, 1), (1,)) == DigitSeq((5,), (1,))
    # thousands of absorbable digits, ending part-way through the period
    pre = (7, 1, 3) + (2, 1, 3) * 2000
    seq = DigitSeq(pre, (2, 1, 3))
    assert (seq.preperiod, seq.period) == ((7,), (1, 3, 2))
    seq = DigitSeq((4,) + (1,) * 5000, (1,))
    assert (seq.preperiod, seq.period) == ((4,), (1,))
    rng = random.Random(5)
    for _ in range(300):
        per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        per = DigitSeq((), per).period
        pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3))) + per * rng.randint(0, 4)
        pre += per[rng.randint(0, len(per)):]
        seq = DigitSeq(pre, per)
        # same stream, with no absorbable preperiod digit left
        n = len(pre) + 2 * len(per)
        assert seq.digits(n) == (pre + per * 3)[:n]
        assert seq.period in {per[i:] + per[:i] for i in range(len(per))}
        assert not seq.preperiod or seq.preperiod[-1] != seq.period[-1]
        assert len(seq.preperiod) <= len(pre)


def _check_canonical(pre, per):
    seq = DigitSeq(pre, per)
    assert (seq.preperiod, seq.period) == ref_digit_seq(pre, per)


def test_canonical_form_matches_reference():
    rng = random.Random(11)
    for _ in range(2000):
        per = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 6))) * rng.randint(1, 3)
        pre = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 4)))
        # a random head, then the period's tail cut at any point, then whole periods
        pre += per[rng.randint(0, len(per)):] + per * rng.randint(0, 4)
        _check_canonical(pre, per)
    # adversarial: every digit absorbs, all but a leading 9 do, a trailing 9 stops all
    for per in ((1,), (2,), (1, 2), (1, 1, 2), (2, 1, 1), (3, 1, 3, 1, 3)):
        for k in range(3 * len(per) + 2):
            full = (per * 4)[len(per) * 4 - k:]
            _check_canonical(full, per)
            _check_canonical((9,) + full, per)
            _check_canonical(full + (9,), per)


def test_canonical_form_of_repeated_words():
    # the primitive root is found by one bytes search for digits below 256
    # and by the divisor loop otherwise; long repeated words, rotated, with
    # absorbable preperiods, and roots that are almost periodic themselves
    rng = random.Random(256)
    alphabets = ((1, 2), (1, 2, 3), (255, 256), (1, 256, 2), (1, 300, 1 << 70))
    for _ in range(600):
        digits = rng.choice(alphabets)
        root = tuple(rng.choice(digits) for _ in range(rng.randint(1, 40)))
        if rng.random() < 0.3:
            # a root that repeats itself but for its last digit
            root = root[:3] * 5 + (rng.choice(digits),)
        per = root * rng.randint(1, 30)
        r = rng.randrange(len(per))
        per = per[r:] + per[:r]
        pre = tuple(rng.choice(digits) for _ in range(rng.randint(0, 3)))
        pre += per[rng.randint(0, len(per)):] + per * rng.randint(0, 2)
        _check_canonical(pre, per)
        _check_canonical((), per)
    # a repeated word over 2 000 digits, whose last copy has one changed digit
    for top in (3, 1000):
        root = tuple(rng.randint(1, top) for _ in range(50))
        _check_canonical((), root * 40)
        _check_canonical((), root * 39 + root[:-1] + (root[-1] % top + 1,))


def test_canonical_form_is_linear():
    for pre, per in (((2,) * 200_000, (2,)), ((1, 2) * 100_000, (1, 2)),
                     ((5,) + (1, 2, 3) * 66_667, (1, 2, 3, 1, 2, 3))):
        start = time.perf_counter()
        seq = DigitSeq(pre, per)
        assert time.perf_counter() - start < 1.0
        assert len(seq.preperiod) <= 1


def test_equality_iff_same_stream():
    rng = random.Random(17)
    seqs = []
    for _ in range(60):
        pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
        per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        seqs.append(DigitSeq(pre, per))
    for a in seqs:
        for b in seqs:
            assert (a == b) == (a.digits(30) == b.digits(30))


def test_digits_and_shift_views():
    s = DigitSeq((3,), (1, 2))
    assert s.digits(6) == (3, 1, 2, 1, 2, 1)
    assert s.shifted(1) == DigitSeq((), (1, 2))
    assert s.shifted(2) == DigitSeq((), (2, 1))
    assert s.shifted(4) == DigitSeq((), (2, 1))
    assert s.prepend(7) == DigitSeq((7, 3), (1, 2))
    assert str(DigitSeq((1, 2), (3,))) == "1,2(3)"


def test_encode_fixtures():
    d = Dyadic()
    assert encode(d, DigitSeq((), (1,))) == 0
    assert encode(d, DigitSeq((), (2,))) == F(2, 3)
    assert encode(d, DigitSeq((1, 2), (1,))) == F(1, 4)
    assert encode(d, DigitSeq((), (1, 2))) == F(2, 7)
    assert encode(d, DigitSeq((), (2, 1))) == F(4, 7)
    assert encode(d, DigitSeq((), (1, 4))) == F(14, 31)
    g = Geometric(F(1, 3))
    assert encode(g, DigitSeq((), (1,))) == 0
    assert encode(g, DigitSeq((), (2,))) == F(3, 7)
    assert encode(g, DigitSeq((1, 2), (1,))) == F(1, 9)


def test_decode_fixtures():
    d = Dyadic()
    assert decode(d, F(1, 4), 3) == ([1, 2, 1], F(0))
    assert decode(d, F(2, 3), 4) == ([2, 2, 2, 2], F(2, 3))
    digits, rem = decode(Geometric(F(1, 3)), F(3, 7), 3)
    assert digits == [2, 2, 2] and rem == F(3, 7)


def test_shift_fixtures():
    d = Dyadic()
    assert shift(d, F(1, 4)) == (1, F(1, 2))
    assert shift(d, F(1, 2)) == (2, F(0))
    rng = random.Random(23)
    for dist in DISTS:
        for _ in range(40):
            x = F(rng.randrange(0, 9973), 9973)
            c, y = shift(dist, x)
            assert 0 <= y < 1
            assert x == dist.prefix(c) + dist.pmf(c) * y


def test_shift_domain():
    with pytest.raises(DomainError):
        shift(Dyadic(), F(3, 2))
    with pytest.raises(DomainError):
        shift(Dyadic(), F(-1, 5))
    with pytest.raises(DomainError):
        shift(Dyadic(), F(1))


def test_decode_periodic_round_trip():
    rng = random.Random(29)
    for dist in DISTS:
        for _ in range(25):
            pre = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
            seq = DigitSeq(pre, per)
            assert decode_periodic(dist, encode(dist, seq)) == seq


def test_decode_periodic_not_detected():
    d = Dyadic()
    r = decode_periodic(d, F(1, 3), max_steps=1)
    assert isinstance(r, NotDetected) and r.prefix == (1,)
    # under the geometric family 1/5 has no period, and the walk proves it
    g = Geometric(F(1, 3))
    r = decode_periodic(g, F(1, 5), max_steps=50)
    assert isinstance(r, Aperiodic) and r.witness == 2 and 1 <= r.step <= 50
    assert list(r.prefix) == decode(g, F(1, 5), r.step)[0]
    # a geometric period longer than the budget is not detected
    x = encode(g, DigitSeq((3,), (1, 2, 3) * 20 + (2,)))
    r = decode_periodic(g, x, max_steps=50)
    assert isinstance(r, NotDetected)
    assert list(r.prefix) == decode(g, x, 50)[0]


def test_cylinder_fixtures():
    d = Dyadic()
    c = cylinder(d, (2,))
    assert (c.inf, c.sup, c.measure) == (F(1, 2), F(3, 4), F(1, 4))
    g = Geometric(F(1, 3))
    c = cylinder(g, (1,))
    assert (c.inf, c.sup, c.measure) == (F(0), F(1, 3), F(1, 3))


def test_cylinder_nesting_and_membership():
    rng = random.Random(31)
    for dist in DISTS:
        for _ in range(25):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
            parent = cylinder(dist, word)
            child = cylinder(dist, word + (rng.randint(1, 5),))
            assert parent.inf <= child.inf and child.sup <= parent.sup
            assert parent.sup - parent.inf == parent.measure
            # the left endpoint belongs to the half-open cylinder
            assert decode(dist, parent.inf, len(word))[0] == list(word)


def test_encode_enclosure():
    d = Dyadic()
    c = encode_enclosure(d, (1, 2, 1, 2), 2)
    assert c == cylinder(d, (1, 2))
    with pytest.raises(DomainError):
        encode_enclosure(d, (1, 2), 3)
    with pytest.raises(DomainError):
        encode_enclosure(d, (1, 2), 0)


def test_approximation_bound():
    d = Dyadic()
    assert approximation_bound(d, 3) == F(1, 8)
    assert approximation_bound(Geometric(F(1, 3)), 2) == F(1, 9)
    rng = random.Random(37)
    for dist in DISTS:
        for _ in range(50):
            u = rng.randint(1, 5)
            word = tuple(rng.randint(1, 5) for _ in range(u))
            ext_a = word + tuple(rng.randint(1, 5) for _ in range(3))
            ext_b = word + tuple(rng.randint(1, 5) for _ in range(3))
            a = encode(dist, DigitSeq(ext_a, (1,)))
            b = encode(dist, DigitSeq(ext_b, (1,)))
            assert abs(a - b) < approximation_bound(dist, u)


def test_invalid_digit_seq():
    with pytest.raises(DomainError):
        DigitSeq((0,), (1,))
    with pytest.raises(DomainError):
        DigitSeq((), (1, 0))
    with pytest.raises(DomainError):
        DigitSeq((), ())
