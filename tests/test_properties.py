"""Property-based checks of the integer kernels against their references.

Hypothesis runs derandomized, with no deadline and no example database,
so every run draws the same examples and the suite stays deterministic.
"""

import contextlib
import io
import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from probmink import Aperiodic, CustomPrefixTail, DigitSeq, Dyadic, Geometric, NotDetected
from probmink import (
    DomainError,
    IncrementReport,
    ProbminkError,
    ResourceLimitError,
    cli,
    cylinder,
    cylinder_increment,
    decode,
    decode_periodic,
    encode,
    eval_question_mark,
    expansion,
    functional_equation_residuals,
    graph_points,
    parse_distribution,
    parse_rational,
    series,
    shift,
    singularity_ratio_step,
)
from probmink.expansion import _compose, _word_table
from probmink.fmt import rational_text
from probmink.integral import _mc_sample_dyadic, _mc_sample_table

from oracles import (
    FAMILIES,
    ref_cmd_diagnose,
    ref_check_digits,
    ref_compose,
    ref_cylinder_increment,
    ref_decode,
    ref_decode_periodic,
    ref_digit_of,
    ref_digit_seq,
    ref_digits,
    ref_exact_walk,
    ref_graph_points,
    ref_int_finite_sum,
    ref_alt_series_exact,
    ref_finite_sum,
    ref_mc_sample_int,
    ref_pmf,
    ref_prefix_enclosure,
    ref_write_graph_csv,
    question_mark_by_mediants,
)

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)
DRAWS = st.integers(min_value=0, max_value=(1 << 64) - 1)


@DETERMINISTIC
@given(DRAWS)
def test_dyadic_sample_kernel_matches_reference(a):
    assert _mc_sample_dyadic(a) == ref_mc_sample_int(1, 2, a)


def _table_sample(s, t, a):
    """The Monte Carlo table walk's sample at a under q = s/t, on the law's own word table."""
    dist = Geometric(Fraction(s, t))
    return _mc_sample_table(dist, _word_table(dist), t.bit_length() - 1, a)


@st.composite
def geometric_parameters(draw):
    t = draw(st.integers(min_value=2, max_value=12))
    return draw(st.integers(min_value=1, max_value=t - 1)), t


@DETERMINISTIC
@given(geometric_parameters(), DRAWS)
def test_geometric_sample_kernel_matches_reference(params, a):
    s, t = params
    assert _table_sample(s, t, a) == ref_mc_sample_int(s, t, a)


# the laws of the word-table walk: q = 1/100 has no table, as its digits of
# mass 2^-9 or more reach 100^78, past the table's scale; q = 99/100 has a
# row for each of the words 1, 11, 111 and for those with one digit 2
TABLE_QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(1, 4), Fraction(3, 4),
            Fraction(99, 100), Fraction(1, 100))


@settings(DETERMINISTIC, max_examples=60)
@given(st.sampled_from(TABLE_QS), DRAWS)
def test_geometric_table_walk_matches_reference(q, a):
    s, t = q.numerator, q.denominator
    assert _table_sample(s, t, a) == ref_mc_sample_int(s, t, a)


@st.composite
def sample_cylinder_ends(draw):
    """(s, t, a): q = s/t with t a power of two, and a/2^64 a cylinder's left end or a neighbour.

    The left end of a word's cylinder is encode(word + (1,)), whose
    denominator divides t^S for the word's digit sum S; with S*log2(t) <= 64
    it is a draw a / 2^64 whose remainder hits 0 right after the word, often
    inside one of the words that the table walk reads.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    t = 1 << k
    s = draw(st.integers(min_value=1, max_value=t - 1))
    word = []
    for c in draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40)):
        if (sum(word) + c) * k > 64:
            break
        word.append(c)
    x = encode(Geometric(Fraction(s, t)), DigitSeq(tuple(word), (1,)))
    a = x.numerator << (64 - x.denominator.bit_length() + 1)
    a += draw(st.sampled_from((0, 0, -1, 1)))
    return s, t, min(max(a, 0), (1 << 64) - 1)


@DETERMINISTIC
@given(sample_cylinder_ends())
def test_geometric_table_walk_at_cylinder_ends(params):
    s, t, a = params
    assert _table_sample(s, t, a) == ref_mc_sample_int(s, t, a)


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), st.integers(min_value=1, max_value=3),
       st.fractions(min_value=0, max_value=1, max_denominator=64),
       st.integers(min_value=0, max_value=80))
def test_mass_transform_against_partial_sums(dist, a, z, n):
    # the terms after the first n are positive, and each is at most pmf(c) z^(n+1)
    partial = sum((ref_pmf(dist, c) ** a * z**c for c in range(1, n + 1)), Fraction(0))
    rest = dist.mass_transform(a, z) - partial
    bound = (1 - sum((ref_pmf(dist, c) for c in range(1, n + 1)), Fraction(0))) * z ** (n + 1)
    assert (0 < rest <= bound) if z else rest == 0


WALK_FAMILIES = st.one_of(
    st.just(Dyadic()),
    geometric_parameters().map(lambda p: Geometric(Fraction(*p))),
    st.sampled_from([d for d in FAMILIES if isinstance(d, CustomPrefixTail)]),
)


@st.composite
def points(draw):
    d = draw(st.integers(min_value=1, max_value=2000))
    return Fraction(draw(st.integers(min_value=0, max_value=d - 1)), d)


@DETERMINISTIC
@given(WALK_FAMILIES, points())
def test_decode_periodic_matches_reference(dist, x):
    result = decode_periodic(dist, x, max_steps=400)
    if isinstance(result, Aperiodic):
        # no period: the plain walk finds none either, along the same digits
        ref = ref_decode_periodic(dist, x, max_steps=3000)
        assert isinstance(ref, NotDetected)
        assert ref.prefix[: result.step] == result.prefix
    else:
        assert isinstance(result, (DigitSeq, NotDetected))
        assert result == ref_decode_periodic(dist, x, max_steps=400)


@DETERMINISTIC
@given(WALK_FAMILIES, st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_graph_points_match_reference(dist, depth, cap):
    points = graph_points(dist, depth, cap).points
    assert list(points) == ref_graph_points(dist, depth, cap)
    # the coordinates skip the Fraction constructor, so check they are reduced
    for value in (v for point in points for v in point):
        n, d = value.numerator, value.denominator
        assert d > 0 and math.gcd(n, d) == 1


# the reference search multiplies two growing ints per digit, so the points
# it checks are held to digits near or below this, each at most a few
# hundredths of a second
REF_DIGITS = 2000


@st.composite
def big_points(draw):
    """Reduced n/d in [0,1) with denominators of up to about 4 000 bits."""
    bits = draw(st.integers(min_value=1, max_value=4000))
    d = draw(st.integers(min_value=1, max_value=1 << bits))
    return Fraction(draw(st.integers(min_value=0, max_value=d - 1)), d)


@st.composite
def prefix_points(draw, dist):
    """prefix(c) and its neighbours prefix(c) +- 1/d, inside [0,1)."""
    c = draw(st.integers(min_value=1, max_value=REF_DIGITS))
    d = draw(st.integers(min_value=1, max_value=1 << draw(st.integers(1, 4000))))
    x = dist.prefix(c) + Fraction(draw(st.sampled_from((-1, 0, 1))), d)
    return x if 0 <= x < 1 else dist.prefix(c)


def _check_branch(dist, x):
    c = dist._digit(x.numerator, x.denominator)
    assert c == ref_digit_of(dist, x)
    assert dist.digit_of(x) == c


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), big_points())
def test_branch_matches_reference_search(dist, x):
    assume(x < dist.prefix(REF_DIGITS))
    _check_branch(dist, x)


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), st.data())
def test_branch_matches_reference_search_at_prefixes(dist, data):
    _check_branch(dist, data.draw(prefix_points(dist)))


DIGITS = st.integers(min_value=1, max_value=6)


@DETERMINISTIC
@given(
    st.sampled_from(FAMILIES),
    st.lists(DIGITS, max_size=8),
    st.lists(DIGITS, min_size=1, max_size=40),
)
def test_codec_round_trip(dist, preperiod, period):
    seq = DigitSeq(tuple(preperiod), tuple(period))
    assert decode_periodic(dist, encode(dist, seq)) == seq


@DETERMINISTIC
@given(
    WALK_FAMILIES,
    st.lists(DIGITS, max_size=4),
    st.lists(DIGITS, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=8),
)
def test_functional_equation_holds(dist, preperiod, period, depth):
    seq = DigitSeq(tuple(preperiod), tuple(period))
    assert functional_equation_residuals(dist, seq, depth) == [0] * depth


@st.composite
def unit_rationals(draw):
    """Rationals in [0,1] with denominators up to 10^4."""
    d = draw(st.integers(min_value=1, max_value=10**4))
    return Fraction(draw(st.integers(min_value=0, max_value=d)), d)


@DETERMINISTIC
@given(unit_rationals())
def test_question_mark_matches_mediant_walk(x):
    assert eval_question_mark(x) == question_mark_by_mediants(x)


def _seeded_digits(seed, length, top):
    rng = random.Random(seed)
    return tuple(rng.randint(1, top) for _ in range(length))


def _in_lowest_terms(value):
    return value.denominator > 0 and math.gcd(value.numerator, value.denominator) == 1


@settings(DETERMINISTIC, max_examples=40)
@given(st.integers(min_value=0, max_value=1 << 32), st.integers(min_value=0, max_value=1500),
       st.sampled_from((1, 2, 3, 5, 12, 70)),
       st.lists(st.integers(min_value=1, max_value=70), min_size=1, max_size=40))
# both sides of _finite_sum's loop bound, and a period that shares the factor 3
# with its block's denominator 2^4 - 1
@example(seed=1, length=512, top=70, period=[1])
@example(seed=2, length=513, top=70, period=[2, 2])
@example(seed=3, length=1500, top=3, period=[70, 1, 5])
def test_series_values_in_lowest_terms(seed, length, top, period):
    """Series values and enclosures equal the references and are fully reduced.

    `series._dyadic` builds them through `_coprime_fraction`, which skips the
    constructor's reduction, and Fraction's == compares the stored integers, so
    an unreduced value would break equality with no error of its own.
    """
    digits = _seeded_digits(seed, length, top)
    total, s_n, sign = ref_finite_sum(digits)
    seq = DigitSeq(digits, tuple(period))
    enclosure = series.prefix_enclosure(digits)
    values = (series.alt_series_exact(digits), series.alt_series_exact(seq), *enclosure)
    assert values == (total, ref_alt_series_exact(seq), total, *ref_prefix_enclosure(digits))
    assert all(map(_in_lowest_terms, values))
    assert enclosure.width == Fraction(1, 1 << s_n) and (sign > 0) == (enclosure.lower == total)


@st.composite
def long_period_points(draw, dist):
    """The point of a random stream whose period has 500 to 4 000 digits."""
    seed = draw(st.integers(min_value=0, max_value=1 << 32))
    top = draw(st.sampled_from((2, 3, 6)))
    period = _seeded_digits(seed, draw(st.integers(min_value=500, max_value=4000)), top)
    preperiod = _seeded_digits(seed + 1, draw(st.integers(min_value=0, max_value=8)), top)
    return encode(dist, DigitSeq(preperiod, period))


@st.composite
def large_rationals(draw, low=800, high=6000):
    """Reduced n/d in [0,1) with denominators of about low to high bits."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 32)))
    d = rng.getrandbits(draw(st.integers(min_value=low, max_value=high))) | 1
    return Fraction(rng.randrange(d), d)


@st.composite
def cylinder_ends(draw, dist, longest=1500):
    """The left end of a word's cylinder, encode(word + (1,)), or a point just below it."""
    seed = draw(st.integers(min_value=0, max_value=1 << 32))
    word = _seeded_digits(seed, draw(st.integers(min_value=1, max_value=longest)),
                          draw(st.sampled_from((2, 3, 12))))
    x = encode(dist, DigitSeq(word, (1,)))
    below = x - Fraction(1, 1 << draw(st.integers(min_value=1, max_value=8000)))
    return below if draw(st.booleans()) and below >= 0 else x


def _check_decode(dist, x, n):
    digits, rest = decode(dist, x, n)
    ref_digits, ref_rest = ref_decode(dist, x, n)
    assert digits == ref_digits
    assert rest == ref_rest
    assert rest.denominator > 0 and math.gcd(rest.numerator, rest.denominator) == 1


def _points(dist):
    return st.one_of(long_period_points(dist), large_rationals(), cylinder_ends(dist))


@settings(DETERMINISTIC, max_examples=60)
@given(st.sampled_from(FAMILIES), st.data())
def test_decode_matches_reference(dist, data):
    x = data.draw(_points(dist))
    # n from a few digits, below the first batch, to past the point's batch path
    bits = x.denominator.bit_length()
    _check_decode(dist, x, data.draw(st.integers(min_value=1, max_value=bits + 50)))


@st.composite
def short_points(draw, dist):
    """A 64-bit point, or the left end of a short word's cylinder, where a remainder hits 0."""
    if draw(st.booleans()):
        return Fraction(draw(DRAWS), 1 << 64)
    word = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=12))
    return encode(dist, DigitSeq(tuple(word), (1,)))


@settings(DETERMINISTIC, max_examples=300)
@given(st.sampled_from(FAMILIES), st.data())
def test_short_decode_matches_reference(dist, data):
    # the short-remainder loop steps table words on the unreduced pair and reduces
    # before each shift and at the end of a run; n below _TABLE_DIGITS takes shifts only
    x = data.draw(short_points(dist))
    n = data.draw(st.one_of(st.integers(min_value=1, max_value=5),
                            st.integers(min_value=6, max_value=150)))
    _check_decode(dist, x, n)


@settings(DETERMINISTIC, max_examples=200)
@given(st.sampled_from(FAMILIES), st.data())
def test_decode_matches_reference_on_small_batches(dist, data):
    # the batch path is exact for any sizes, so small ones reach its every branch
    # on short points: failed words, bisection, budget stops, and a word whose
    # cylinder ends exactly at the point, which needs a batch that starts close
    # enough to a cylinder end, so the word measure is drawn near the batch size
    lead = data.draw(st.integers(min_value=1, max_value=64))
    batch = data.draw(st.integers(min_value=lead, max_value=lead + 16))
    word = data.draw(st.integers(min_value=max(1, lead - 16), max_value=lead + 8))
    x = data.draw(st.one_of(cylinder_ends(dist, 60), large_rationals(8, 400)))
    n = data.draw(st.integers(min_value=1, max_value=80))
    with mock.patch.multiple(expansion, _BATCH_BITS=batch, _LEAD_BITS=lead, _WORD_BITS=word):
        _check_decode(dist, x, n)


# families with tables of every shape: two of the benchmark's custom heads, a
# head whose first digit is too light for any word, a law whose first digit
# holds almost all the mass, so its words are ones and at most one 2, and a
# law with no table at all
TABLE_FAMILIES = FAMILIES + (
    CustomPrefixTail((Fraction(1, 4), Fraction(1, 6)), Fraction(1, 2)),
    CustomPrefixTail((Fraction(2, 5), Fraction(1, 10)), Fraction(3, 5)),
    CustomPrefixTail((Fraction(1, 10**9), Fraction(1, 2)), Fraction(1, 2)),
    Geometric(Fraction(99, 100)),
    Geometric(Fraction(1, 100)),
)


def _short_points(dist):
    """Points whose remainders stay short, cylinder ends, and points past the batch size."""
    return st.one_of(large_rationals(1, 900), cylinder_ends(dist, 60), large_rationals(900, 3000))


@settings(DETERMINISTIC, max_examples=150)
@given(st.sampled_from(TABLE_FAMILIES), st.data())
def test_decode_table_words_match_reference(dist, data):
    # n of any residue modulo the word length, so the last digits step plainly;
    # at q = 1/100 digits near 100 grow the remainder by about 660 bits each
    x = data.draw(_short_points(dist))
    most = 24 if dist.max_p() < Fraction(1, 50) else 200
    _check_decode(dist, x, data.draw(st.integers(min_value=1, max_value=most)))


def _decode_outcome(fn, dist, x, n):
    """fn's result, or the message of the ResourceLimitError it raises."""
    try:
        return fn(dist, x, n)
    except ResourceLimitError as exc:
        return str(exc)


def _ref_decode_held(dist, x, n):
    """One `shift` per digit, refused as `decode` is: n, then the running digit sum."""
    series.check_digit_sum(n)
    digits, cur, total = [], x, 0
    for _ in range(n):
        c, cur = shift(dist, cur)
        digits.append(c)
        total += c
        series.check_digit_sum(total)
    return digits, cur


@settings(DETERMINISTIC, max_examples=150)
@given(st.sampled_from(TABLE_FAMILIES), st.data(), st.integers(min_value=2, max_value=120))
def test_decode_table_words_budget_message(dist, data, budget):
    # a word past a small budget steps digit by digit, to the digit sum the plain loop
    # refuses; a table built on a small budget holds no digit above it
    x = data.draw(_short_points(dist))
    n = data.draw(st.integers(min_value=1, max_value=150))
    with mock.patch.object(series, "MAX_DIGIT_SUM", budget):
        for fresh in (False, True):
            if fresh:
                expansion._word_table.cache_clear()
            assert (_decode_outcome(decode, dist, x, n)
                    == _decode_outcome(_ref_decode_held, dist, x, n))
    expansion._word_table.cache_clear()


# batch sizes small enough that batches run down to remainders of a few bits
SMALL_BATCHES = {"_BATCH_BITS": 24, "_LEAD_BITS": 16, "_WORD_BITS": 8}
# the benchmark's three families, and a law with no word table
BATCH_FAMILIES = (Dyadic(), Geometric(Fraction(1, 3)), FAMILIES[7], Geometric(Fraction(1, 100)))


@settings(DETERMINISTIC, max_examples=120)
@given(st.sampled_from(BATCH_FAMILIES), st.data(), st.booleans(),
       st.sampled_from((None, 4, 12, 40)))
def test_leading_digits_are_the_points_own(dist, data, small, budget):
    # the short point's words, read from the table or stepped, certified on x:
    # x's own leading digits and remainder, held to room and the digit budget,
    # also under a budget smaller than the one the cached table was built on
    low = 40 if small else 1100
    points = st.one_of(large_rationals(low, 3000), long_period_points(dist),
                       cylinder_ends(dist, 1200))
    x = data.draw(points.filter(lambda y: y.denominator.bit_length() > low))
    count = data.draw(st.integers(min_value=1, max_value=400))
    room = data.draw(st.integers(min_value=1, max_value=2000))
    # the table is cached on the full budget, so under a small one it holds digits past it
    expansion._word_table(dist)
    with mock.patch.multiple(expansion, **SMALL_BATCHES) if small else contextlib.nullcontext(), \
            mock.patch.object(series, "MAX_DIGIT_SUM", budget or series.MAX_DIGIT_SUM):
        word, rest = expansion._leading_digits(dist, x, count, room)
    if not word:
        assert rest is None
        return
    assert len(word) <= count and sum(word) <= room
    assert budget is None or max(word) <= budget
    ref_digits, ref_rest = ref_decode(dist, x, len(word))
    assert word == ref_digits
    assert (rest.numerator, rest.denominator) == (ref_rest.numerator, ref_rest.denominator)


def _walk(dist, x, max_steps, **sizes):
    """decode_periodic's result, or its ResourceLimitError message, under patched sizes."""
    with mock.patch.multiple(expansion, **sizes) if sizes else contextlib.nullcontext():
        try:
            return decode_periodic(dist, x, max_steps)
        except ResourceLimitError as exc:
            return str(exc)


def _exact(dist, x, max_steps):
    """The exact walk's result, or its ResourceLimitError message."""
    try:
        return ref_exact_walk(dist, x, max_steps)
    except ResourceLimitError as exc:
        return str(exc)


def _check_walk(dist, x, max_steps, **sizes):
    """decode_periodic, under patched sizes, gives the exact walk's result; returns it."""
    exact = _exact(dist, x, max_steps)
    assert _walk(dist, x, max_steps, **sizes) == exact
    return exact


@settings(DETERMINISTIC, max_examples=25)
@given(st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=1 << 32),
       st.integers(min_value=300, max_value=4000), st.integers(min_value=0, max_value=8),
       st.sampled_from((2, 3, 6)))
def test_batched_walk_matches_exact_walk_on_long_periods(dist, seed, length, pre, top):
    seq = DigitSeq(_seeded_digits(seed + 1, pre, top), _seeded_digits(seed, length, top))
    x = encode(dist, seq)
    assert _check_walk(dist, x, 4100) == seq
    if length <= 500:
        assert ref_decode_periodic(dist, x, 4100) == seq


@settings(DETERMINISTIC, max_examples=8)
@given(st.integers(min_value=0, max_value=1 << 32),
       st.integers(min_value=300, max_value=3000), st.integers(min_value=0, max_value=8))
@example(0, 3000, 8)
def test_batched_walk_certifies_true_repeats(seed, length, pre):
    # called on its own under every family, the batched walk returns the exact
    # walk's stream and never hands a true repeat over: the exact-remainder test passes it
    seq = DigitSeq(_seeded_digits(seed + 1, pre, 3), _seeded_digits(seed, length, 3))
    for dist in FAMILIES:
        x = encode(dist, seq)
        _, w = dist.branch_primes()
        found = expansion._batched_walk(dist, x, 4100, w)
        assert found == ref_exact_walk(dist, x, 4100) == seq, dist


@st.composite
def aperiodic_tails(draw, dist):
    """The map of a long random word applied to a point with no period.

    5/7 has no period under these families; a random rational with an odd
    denominator of over 1 000 bits keeps the remainders long, so that the
    witness arrives inside a full-size batch.
    """
    seed = draw(st.integers(min_value=0, max_value=1 << 32))
    word = _seeded_digits(seed, draw(st.integers(min_value=1, max_value=1500)), 3)
    if draw(st.booleans()):
        y = Fraction(5, 7)
    else:
        rng = random.Random(seed + 1)
        d = rng.getrandbits(draw(st.integers(min_value=1100, max_value=3000))) | 1
        y = Fraction(rng.randrange(d), d)
    a, b, den = _compose(dist, word)
    return (a + b * y) / den


@settings(DETERMINISTIC, max_examples=40)
@given(st.sampled_from((Geometric(Fraction(1, 3)), Geometric(Fraction(2, 5)),
                        Geometric(Fraction(1, 10)), FAMILIES[8])),
       st.data(), st.booleans())
def test_batched_walk_finds_the_exact_witness(dist, data, small):
    x = data.draw(aperiodic_tails(dist))
    result = _check_walk(dist, x, 4096, **(SMALL_BATCHES if small else {}))
    assert isinstance(result, Aperiodic)
    # the plain walk finds no period along the same digits
    ref = ref_decode_periodic(dist, x, result.step + 5)
    assert isinstance(ref, NotDetected) and ref.prefix[: result.step] == result.prefix


@settings(DETERMINISTIC, max_examples=30)
@given(st.sampled_from([d for d in FAMILIES if d.branch_primes()[1] == 1 and
                        isinstance(d, CustomPrefixTail)]),
       large_rationals(1100, 4000), st.integers(min_value=1, max_value=400), st.booleans())
def test_batched_walk_not_detected_prefix(dist, x, max_steps, small):
    # with W = 1 nothing certifies these points, so both walks take the whole budget
    result = _check_walk(dist, x, max_steps, **(SMALL_BATCHES if small else {}))
    assert isinstance(result, NotDetected) and len(result.prefix) == max_steps
    assert result == ref_decode_periodic(dist, x, max_steps)


@settings(DETERMINISTIC, max_examples=30)
@given(st.sampled_from((Geometric(Fraction(1, 10)), Geometric(Fraction(1, 100)), FAMILIES[-1])),
       large_rationals(1100, 4000), st.integers(min_value=12, max_value=60), st.booleans())
def test_batched_walk_budget_message(dist, x, budget, small):
    # a digit over the budget raises in both walks, with the same message
    with mock.patch.object(series, "MAX_DIGIT_SUM", budget):
        result = _check_walk(dist, x, 4096, **(SMALL_BATCHES if small else {}))
        try:
            ref = ref_decode_periodic(dist, x, 4096)
        except ResourceLimitError as exc:
            ref = str(exc)
    if isinstance(result, Aperiodic):
        # the certificate can end the walk before a digit over budget
        assert isinstance(ref, (NotDetected, str))
    else:
        assert isinstance(result, str) and result == ref


@settings(DETERMINISTIC, max_examples=60)
@given(st.sampled_from(FAMILIES), st.data(), st.sampled_from((2, 3, 5, 7)),
       st.sampled_from((None, 30)))
def test_batched_walk_with_a_tiny_modulus(dist, data, modulus, budget):
    # modulo a tiny prime false repeats are common, and each is refused; so
    # are moduli that divide some Q or the point's denominator, which hand
    # the point to the plain walk: the result is still the exact walk's, also
    # on a small digit budget that a period's digit sum can pass
    seed = data.draw(st.integers(min_value=0, max_value=1 << 32))
    kind = data.draw(st.sampled_from(("period", "tail", "random")))
    if kind == "period":
        x = encode(dist, DigitSeq(_seeded_digits(seed + 1, seed % 5, 3),
                                  _seeded_digits(seed, data.draw(st.integers(1, 300)), 3)))
    elif kind == "tail":
        x = data.draw(aperiodic_tails(dist))
    else:
        x = data.draw(large_rationals(8, 1200))
    with mock.patch.object(series, "MAX_DIGIT_SUM", budget or series.MAX_DIGIT_SUM):
        _check_walk(dist, x, 600, _PRINT_MOD=modulus, **SMALL_BATCHES)


def _batched(dist, x, max_steps, **patches):
    """_batched_walk's own result on x, or its ResourceLimitError message, under patches."""
    w = dist.branch_primes()[1]
    with mock.patch.multiple(expansion, **patches):
        try:
            return expansion._batched_walk(dist, x, max_steps, w)
        except ResourceLimitError as exc:
            return str(exc)


@settings(DETERMINISTIC, max_examples=80)
@given(st.sampled_from(FAMILIES), st.data(), st.sampled_from((5, 7, 11, 13)),
       st.sampled_from((None, 30)), st.booleans())
def test_batched_walk_refuses_every_collision_under_a_tiny_modulus(dist, data, modulus,
                                                                    budget, small):
    # modulo a prime below 16 most fingerprint hits are false: each is
    # refused and the walk goes on, so unless the modulus divides x's
    # denominator or some Q, the batched walk itself returns the exact walk's
    # result or error, never None, and that is ref_decode_periodic's; max_steps
    # stops a period's walk just before, at or just after mu + lambda
    seed = data.draw(st.integers(min_value=0, max_value=1 << 32))
    kind = data.draw(st.sampled_from(("period", "runs", "tail", "random")))
    if kind in ("period", "runs"):
        if kind == "period":
            per = _seeded_digits(seed, data.draw(st.integers(1, 300)), 3)
        else:
            # a long run of one digit
            per = (1,) * data.draw(st.integers(0, 150)) + (data.draw(st.integers(1, 3)),)
        seq = DigitSeq(_seeded_digits(seed + 1, data.draw(st.integers(0, 40)), 3), per)
        x = encode(dist, seq)
        steps = len(seq.preperiod + seq.period)
        max_steps = data.draw(st.sampled_from((max(1, steps - 1), steps, steps + 1, 600)))
    else:
        x = data.draw(aperiodic_tails(dist) if kind == "tail" else large_rationals(8, 1200))
        max_steps = data.draw(st.sampled_from((301, 600)))
    # decode_periodic starts the batched walk only when neither the modulus nor
    # a prime of W divides x's denominator
    started = x.denominator % modulus and math.gcd(x.denominator, dist.branch_primes()[1]) == 1
    clean = started and all(dist.affine(c)[1] % modulus for c in range(1, 65))
    patches = dict(_PRINT_MOD=modulus, **(SMALL_BATCHES if small else {}))
    with mock.patch.object(series, "MAX_DIGIT_SUM", budget or series.MAX_DIGIT_SUM):
        exact = _exact(dist, x, max_steps)
        found = _batched(dist, x, max_steps, **patches) if started else None
        assert _walk(dist, x, max_steps, **patches) == exact
        try:
            ref = ref_decode_periodic(dist, x, max_steps)
        except ResourceLimitError as exc:
            ref = str(exc)
    assert found == exact if clean else found in (None, exact)
    if isinstance(found, DigitSeq):
        assert (found.preperiod, found.period) == ref_digit_seq(found.preperiod, found.period)
    if isinstance(exact, Aperiodic):
        # the certificate can end the walk before a digit over budget
        assert isinstance(ref, str) or ref.prefix[: exact.step] == exact.prefix
    else:
        assert exact == ref


@settings(DETERMINISTIC, max_examples=150)
@given(st.integers(min_value=0, max_value=1 << 32), st.integers(min_value=0, max_value=6000),
       st.integers(min_value=1, max_value=50), st.sampled_from((3, 300)),
       st.integers(min_value=0, max_value=5000))
def test_digits_match_the_per_digit_loop(seed, pre, per, top, n):
    seq = DigitSeq(_seeded_digits(seed + 1, pre, top), _seeded_digits(seed, per, top))
    assert seq.digits(n) == ref_digits(seq, n)
    try:
        seq.digits(-1 - n)
    except DomainError as exc:
        assert str(exc) == f"digit count must be >= 0, got {-1 - n}"
    else:
        raise AssertionError("a negative digit count was accepted")


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), st.integers(min_value=0, max_value=1 << 32),
       st.integers(min_value=0, max_value=3000), st.sampled_from((2, 3, 40)))
def test_compose_matches_left_fold(dist, seed, length, top):
    word = _seeded_digits(seed, length, top)
    assert _compose(dist, word) == ref_compose(dist, word)


WORDS = st.lists(DIGITS, min_size=1, max_size=40).map(tuple)


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), WORDS)
def test_cylinder_law(dist, word):
    cyl = cylinder(dist, word)
    sibling = word[:-1] + (word[-1] + 1,)
    assert cyl.inf == encode(dist, DigitSeq(word, (1,)))
    assert cyl.sup == encode(dist, DigitSeq(sibling, (1,)))
    assert cyl.measure == math.prod(dist.pmf(d) for d in word)


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), WORDS)
def test_increment_law(dist, word):
    quotients = [cylinder_increment(dist, word[:i]).quotient for i in range(1, len(word) + 1)]
    for i in range(1, len(word)):
        assert quotients[i] / quotients[i - 1] == singularity_ratio_step(dist, word[i])


def _outcome(fn, *args):
    """fn's result, or the type and message of the ProbminkError it raises."""
    try:
        return fn(*args)
    except ProbminkError as exc:
        return type(exc), str(exc)


@DETERMINISTIC
@given(st.sampled_from(FAMILIES), st.lists(st.integers(min_value=-2, max_value=9), max_size=24))
@example(Dyadic(), [])
@example(Dyadic(), [2, 0, 1])
@example(Geometric(Fraction(1, 3)), [3, -1, 0])
def test_cylinder_increment_matches_reference(dist, word):
    # integer measure and quotient, and the digit check by min(), against the old body
    got = _outcome(cylinder_increment, dist, word)
    assert got == _outcome(ref_cylinder_increment, dist, word)
    if isinstance(got, IncrementReport):
        assert all(type(v) is Fraction for v in got[2:])


@DETERMINISTIC
@given(st.lists(st.integers(min_value=-3, max_value=12), max_size=30),
       st.lists(st.integers(min_value=-3, max_value=12), min_size=1, max_size=8))
@example([], [1])
@example([2, 0, -1], [1])
@example([3], [2, -2, 0])
def test_digit_checks_match_per_digit_loops(pre, per):
    # one min() over the digits, and a rescan for the first offending one on failure
    assert _outcome(series._finite_sum, tuple(pre)) == _outcome(ref_int_finite_sum, tuple(pre))
    assert _outcome(series._finite_sum, tuple(per)) == _outcome(ref_int_finite_sum, tuple(per))
    expected = _outcome(ref_check_digits, pre, per)
    got = _outcome(DigitSeq, pre, per)
    if expected is None:
        assert isinstance(got, DigitSeq)
    else:
        assert got == expected


@settings(DETERMINISTIC, max_examples=60)
@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=1, max_value=70),
       DRAWS, st.sampled_from((None, 0, -3)))
@example(series._LOOP_SUM_DIGITS, 3, 0, None)
@example(series._LOOP_SUM_DIGITS + 1, 3, 0, None)
@example(series._LOOP_SUM_DIGITS + 2, 1, 0, None)
@example(5000, 70, 1, 0)
def test_finite_sum_matches_per_digit_loop(length, top, seed, bad):
    # the per-digit loop and the two linear bit strings, on either side of
    # their crossover, with the loop's sum, sign and errors
    rng = random.Random(seed)
    digits = [rng.randint(1, top) for _ in range(length)]
    if bad is not None and digits:
        digits[rng.randrange(length)] = bad
    digits = tuple(digits)
    assert _outcome(series._finite_sum, digits) == _outcome(ref_int_finite_sum, digits)


# bit lengths about 4 000 decimal digits (13 288 bits), where parse_ints
# starts to split a literal, and the widest drawn
WIDE_BITS = st.one_of(st.sampled_from((13_287, 13_288, 13_289, 1 << 16)),
                      st.integers(min_value=1, max_value=1 << 16))


@DETERMINISTIC
@given(WIDE_BITS, st.data())
def test_parse_rational_reads_rational_text(bits, data):
    # past 4 000 decimal digits parse_ints reads a literal by divide and conquer
    den = data.draw(st.integers(min_value=1, max_value=1 << bits))
    num = data.draw(st.integers(min_value=-(1 << bits), max_value=1 << bits))
    for value in (Fraction(num, den), Fraction(1 - (1 << bits), (1 << bits) + 1)):
        assert parse_rational(rational_text(value)) == value


# the precisions at the edges of the writer's fast path (below
# fmt._CHUNK_DIGITS = 4 000) and a few ordinary ones
CSV_PRECISIONS = st.one_of(st.sampled_from((1, 30, 3999, 4000)),
                           st.integers(min_value=1, max_value=60))


@st.composite
def csv_values(draw, precision):
    kind = draw(st.sampled_from(("unit", "integer", "exact", "tie", "near_one", "wide")))
    if kind == "integer":
        return Fraction(draw(st.integers(min_value=-3, max_value=3)))
    if kind == "exact":
        # a denominator 2^a 5^b: the decimal is exact once precision >= max(a, b)
        den = 2 ** draw(st.integers(0, 40)) * 5 ** draw(st.integers(0, 40))
        return Fraction(draw(st.integers(min_value=0, max_value=den)), den)
    if kind == "tie":
        # half a unit of the last kept digit past a multiple of it
        k = draw(st.integers(min_value=0, max_value=10**precision - 1))
        return Fraction(2 * k + 1, 2 * 10**precision)
    if kind == "near_one":
        # 1 - 1/den with den > 2*10^precision rounds up to 1.000…
        den = 10 ** (precision + draw(st.integers(min_value=1, max_value=3))) + draw(DRAWS)
        return Fraction(den - 1, den)
    if kind == "wide":
        den = draw(st.integers(min_value=1, max_value=1 << 14000))
        return Fraction(draw(st.integers(min_value=-den, max_value=2 * den)), den)
    den = draw(st.integers(min_value=1, max_value=1 << 200))
    return Fraction(draw(st.integers(min_value=0, max_value=den)), den)


@DETERMINISTIC
@given(st.data())
def test_graph_csv_writer_matches_reference(data):
    precision = data.draw(CSV_PRECISIONS)
    value = csv_values(precision)
    rows = data.draw(st.lists(st.tuples(value, value), min_size=1, max_size=6))
    # the writer takes each point's reduced integers, the reference its Fractions
    quads = [(x.numerator, x.denominator, y.numerator, y.denominator) for x, y in rows]
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    cli._write_graph_csv(got, quads, precision)
    ref_write_graph_csv(want, rows, precision)
    assert got.getvalue().encode() == want.getvalue().encode()


SWEEP_SPECS = ("dyadic", "geometric:2/5", "custom:1/3,1/5;2/3")


def _diagnose_output(command, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert command(cli.build_parser().parse_args(argv)) == 0
    return out.getvalue()


@DETERMINISTIC
@given(st.sampled_from(SWEEP_SPECS), st.lists(st.integers(min_value=1, max_value=6),
                                              min_size=1, max_size=24).map(tuple),
       st.integers(min_value=0, max_value=3), st.sampled_from(("plain", "json")),
       st.sampled_from((1, 30)))
@example("geometric:2/5", (5,), 0, "plain", 30)
@example("custom:1/3,1/5;2/3", (6,), 0, "json", 30)
@example("dyadic", (3, 2), 4, "json", 1)
def test_diagnose_matches_reference(spec, word, ones, fmt, precision):
    word += (1,) * ones
    argv = ["diagnose", "--dist", spec, "--digits", ",".join(map(str, word)),
            "--format", fmt, "--precision", str(precision)]
    assert _diagnose_output(cli.cmd_diagnose, argv) == _diagnose_output(ref_cmd_diagnose, argv)
    dist = parse_distribution(spec)
    for n in range(1, len(word) + 1):
        measure = math.prod((ref_pmf(dist, d) for d in word[:n]), start=Fraction(1))
        assert cylinder_increment(dist, word[:n]).measure == measure
