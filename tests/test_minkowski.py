import random
from fractions import Fraction

import pytest

from probmink import (
    AperiodicError,
    CustomPrefixTail,
    DigitSeq,
    DomainError,
    Dyadic,
    Geometric,
    PeriodDetectionError,
    ResourceLimitError,
    alt_series_exact,
    continued_fraction,
    continuity_modulus_check,
    cylinder_increment,
    encode,
    eval_minkowski,
    eval_minkowski_enclosure,
    eval_question_mark,
    functional_equation_residuals,
    graph_points,
    ifs_maps,
    monotonicity_witnesses,
    singularity_ratio_step,
)
from probmink.minkowski import MAX_GRAPH_POINTS, _graph_size

from oracles import (
    brute_graph_points,
    continued_fraction_value,
    question_mark_by_mediants,
)

F = Fraction
DISTS = (Dyadic(), Geometric(F(1, 3)), CustomPrefixTail((F(1, 3), F(1, 6)), F(1, 2)))


def test_eval_fixtures():
    for dist in DISTS:
        assert eval_minkowski(dist, F(0)) == F(2, 3)
    d = Dyadic()
    assert eval_minkowski(d, F(1, 2)) == F(1, 3)
    assert eval_minkowski(d, F(2, 3)) == F(2, 5)
    assert eval_minkowski(d, DigitSeq((), (1, 2))) == F(6, 7)
    g = Geometric(F(1, 3))
    assert eval_minkowski(g, F(3, 7)) == F(2, 5)


def test_eval_period_detection_failure():
    with pytest.raises(PeriodDetectionError):
        eval_minkowski(Dyadic(), F(1, 3), max_steps=1)
    with pytest.raises(PeriodDetectionError):
        eval_minkowski(Geometric(F(1, 3)), F(1, 5), max_steps=50)


def test_eval_aperiodic_point():
    g = Geometric(F(1, 3))
    for x in (F(5, 7), F(1, 5), F(2, 13), F(123, 1000)):
        with pytest.raises(AperiodicError) as info:
            eval_minkowski(g, x)
        err = info.value
        # an even denominator holds the witness before any digit is decoded
        assert err.witness == 2 and (err.step == 0) == (x.denominator % 2 == 0)
        assert "no digit period" in str(err) and f"from step {err.step} on" in str(err)
        # the error's enclosure, from err.step digits, holds the one from 40 digits
        deeper = eval_minkowski_enclosure(g, x, 40)
        assert err.enclosure.lower <= deeper.lower <= deeper.upper <= err.enclosure.upper


def test_enclosure_terminating_is_exact():
    d = Dyadic()
    e = eval_minkowski_enclosure(d, F(1, 4), 3)
    assert e.exact and e.value == eval_minkowski(d, F(1, 4))
    e = eval_minkowski_enclosure(d, F(0), 1)
    assert e.exact and e.value == F(2, 3)


def test_enclosure_brackets_exact_value():
    rng = random.Random(59)
    for dist in DISTS:
        for _ in range(20):
            pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 2)))
            seq = DigitSeq(pre, per)
            x = encode(dist, seq)
            value = alt_series_exact(seq)
            for depth in (2, 5, 9):
                e = eval_minkowski_enclosure(dist, x, depth)
                assert e.lower <= value <= e.upper
                assert e.width <= F(1, 1 << depth)


def test_continued_fraction():
    assert continued_fraction(F(0)) == ()
    assert continued_fraction(F(1)) == (1,)
    assert continued_fraction(F(1, 2)) == (2,)
    assert continued_fraction(F(1, 3)) == (3,)
    assert continued_fraction(F(2, 5)) == (2, 2)
    assert continued_fraction(F(3, 7)) == (2, 3)
    with pytest.raises(DomainError):
        continued_fraction(F(5, 4))


def test_continued_fraction_round_trip_and_canonical():
    rng = random.Random(61)
    for _ in range(100):
        den = rng.randint(2, 10**6)
        x = F(rng.randint(1, den), den)
        digits = continued_fraction(x)
        assert continued_fraction_value(digits) == x
        if x != 1:
            assert digits[-1] >= 2


def test_question_mark_fixtures():
    assert eval_question_mark(F(0)) == 0
    assert eval_question_mark(F(1)) == 1
    assert eval_question_mark(F(1, 2)) == F(1, 2)
    assert eval_question_mark(F(1, 3)) == F(1, 4)
    assert eval_question_mark(F(2, 5)) == F(3, 8)


def test_question_mark_against_mediant_oracle():
    rng = random.Random(67)
    for x in (F(1, 3), F(2, 5), F(3, 7), F(5, 8), F(355, 452)):
        assert eval_question_mark(x) == question_mark_by_mediants(x)
    for _ in range(50):
        den = rng.randint(2, 5000)
        x = F(rng.randint(0, den), den)
        assert eval_question_mark(x) == question_mark_by_mediants(x)


def test_question_mark_symmetry_and_order():
    rng = random.Random(71)
    xs = sorted(F(rng.randint(0, 4096), 4096) for _ in range(40))
    for a, b in zip(xs, xs[1:]):
        if a != b:
            assert eval_question_mark(a) < eval_question_mark(b)
    for x in xs:
        assert eval_question_mark(1 - x) == 1 - eval_question_mark(x)


def test_cf_form_invariance():
    rng = random.Random(73)
    for _ in range(60):
        den = rng.randint(2, 10**4)
        x = F(rng.randint(1, den - 1), den)
        digits = continued_fraction(x)
        if digits[-1] < 2:
            continue
        variant = digits[:-1] + (digits[-1] - 1, 1)
        assert alt_series_exact(list(variant)) == alt_series_exact(list(digits))


def test_functional_equation_spec_example():
    g = Geometric(F(1, 3))
    residuals = functional_equation_residuals(g, DigitSeq((3,), (2,)), 3)
    assert residuals == [0, 0, 0]
    for dist in DISTS:
        assert functional_equation_residuals(dist, DigitSeq((), (1, 2)), 5) == [0] * 5


def test_ifs_map_fixtures():
    d = Dyadic()
    maps = ifs_maps(d, 2)
    m1 = maps[0]
    assert (m1.x_scale, m1.x_offset) == (F(1, 2), F(0))
    assert (m1.y_scale, m1.y_offset) == (F(-1, 2), F(1, 2))
    assert m1.fixed_point() == (F(0), F(1, 3))
    g = Geometric(F(1, 3))
    m2 = ifs_maps(g, 2)[1]
    assert (m2.x_scale, m2.x_offset) == (F(2, 9), F(1, 3))
    assert (m2.y_scale, m2.y_offset) == (F(-1, 4), F(1, 4))


def test_ifs_maps_preserve_halved_graph():
    # (x, h(x)) with h half the induced function maps to (x', h(x'))
    rng = random.Random(79)
    for dist in DISTS:
        maps = ifs_maps(dist, 5)
        for _ in range(20):
            pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
            per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 2)))
            seq = DigitSeq(pre, per)
            x = encode(dist, seq)
            h = eval_minkowski(dist, seq) / 2
            t = rng.randint(1, 5)
            x2, h2 = maps[t - 1].apply(x, h)
            assert x2 == encode(dist, seq.prepend(t))
            assert h2 == eval_minkowski(dist, seq.prepend(t)) / 2


def test_graph_points():
    d = Dyadic()
    result = graph_points(d, 2, 2)
    assert len(result.points) == 4
    assert result.uncovered_mass == 1 - F(9, 16)
    assert result.points == tuple(brute_graph_points(d, 2, 2))
    for x, y in result.points:
        assert eval_minkowski(d, x) == y
    xs = [p[0] for p in result.points]
    assert xs == sorted(xs)


def test_graph_points_other_families():
    for dist in DISTS[1:]:
        result = graph_points(dist, 2, 3)
        assert len(result.points) == 9
        for x, y in result.points:
            assert eval_minkowski(dist, x) == y
        assert result.uncovered_mass == 1 - dist.prefix(4) ** 2


def test_graph_size_budget():
    # exactly MAX_GRAPH_POINTS is allowed; one more factor of cap is not
    assert _graph_size(10, 4) == _graph_size(20, 2) == MAX_GRAPH_POINTS
    assert _graph_size(1, 5792) == 5792  # branch digit sum 16 776 528, just under 2^24
    for depth, cap in ((21, 2), (11, 4), (9, 40), (10**9, 3), (1, 10**12)):
        with pytest.raises(ResourceLimitError, match="points"):
            graph_points(Dyadic(), depth, cap)
    for depth, cap in ((1, 5793), (1, 100000), ((1 << 24) + 1, 1)):
        with pytest.raises(ResourceLimitError, match="digit sum"):
            graph_points(Dyadic(), depth, cap)


def test_increment_fixtures():
    d = Dyadic()
    rep = cylinder_increment(d, (2,))
    assert rep.delta == F(-1, 6)
    assert rep.measure == F(1, 4)
    assert rep.quotient == F(2, 3)
    rep = cylinder_increment(d, (1, 1))
    assert rep.delta == F(1, 6)
    assert rep.digit_sum == 2


def test_increment_distribution_free():
    rng = random.Random(83)
    for _ in range(30):
        word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 5)))
        deltas = {cylinder_increment(dist, word).delta for dist in DISTS}
        assert len(deltas) == 1
        n, s = len(word), sum(word)
        expected = (-1) ** n * F(2, 3 << (s - 1)) / 2
        assert deltas == {(-1) ** n * F(2, 3 * (1 << s))} == {expected}


def test_singularity_ratio_step():
    g = Geometric(F(1, 3))
    assert singularity_ratio_step(g, 1) == F(3, 2)
    assert singularity_ratio_step(g, 3) == F(27, 32)
    d = Dyadic()
    for c in range(1, 13):
        assert singularity_ratio_step(d, c) == 1


def test_ratio_step_extends_quotients():
    rng = random.Random(89)
    for dist in DISTS:
        for _ in range(20):
            word = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
            c = rng.randint(1, 5)
            inner = cylinder_increment(dist, word)
            outer = cylinder_increment(dist, word + (c,))
            assert outer.quotient / inner.quotient == singularity_ratio_step(dist, c)


def test_continuity_modulus_fixtures():
    l, bound, actual = continuity_modulus_check(DigitSeq((), (1, 2)), DigitSeq((), (1, 4)))
    assert (l, bound, actual) == (1, F(1), F(24, 217))
    l, bound, actual = continuity_modulus_check(DigitSeq((), (1, 2)), DigitSeq((), (2, 1)))
    assert (l, bound, actual) == (0, F(2), F(4, 7))
    with pytest.raises(DomainError):
        continuity_modulus_check(DigitSeq((2, 1), (2, 1)), DigitSeq((), (2, 1)))


def test_monotonicity_witnesses():
    for dist in DISTS:
        dec, inc = monotonicity_witnesses(dist)
        assert dec.delta == F(-4, 7)
        assert inc.delta == F(24, 217)
        assert dec.low_x < dec.high_x
        assert inc.low_x < inc.high_x
