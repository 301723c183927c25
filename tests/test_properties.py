"""Property-based checks of the integer kernels against their references.

Hypothesis runs derandomized, with no deadline and no example database,
so every run draws the same examples and the suite stays deterministic.
"""

import math
import random
from fractions import Fraction
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probmink import Aperiodic, CustomPrefixTail, DigitSeq, Dyadic, Geometric, NotDetected
from probmink import (
    cylinder,
    cylinder_increment,
    decode,
    decode_periodic,
    encode,
    eval_question_mark,
    expansion,
    functional_equation_residuals,
    graph_points,
    singularity_ratio_step,
)
from probmink.expansion import _compose
from probmink.integral import _mc_sample_dyadic, _mc_sample_geometric

from oracles import (
    FAMILIES,
    ref_compose,
    ref_decode,
    ref_decode_periodic,
    ref_digit_of,
    ref_graph_points,
    ref_mc_sample_int,
    question_mark_by_mediants,
)

DETERMINISTIC = settings(derandomize=True, deadline=None, database=None)
DRAWS = st.integers(min_value=0, max_value=(1 << 64) - 1)


@DETERMINISTIC
@given(DRAWS)
def test_dyadic_sample_kernel_matches_reference(a):
    assert _mc_sample_dyadic(a) == ref_mc_sample_int(1, 2, a)


@st.composite
def geometric_parameters(draw):
    t = draw(st.integers(min_value=2, max_value=12))
    return draw(st.integers(min_value=1, max_value=t - 1)), t


@DETERMINISTIC
@given(geometric_parameters(), DRAWS)
def test_geometric_sample_kernel_matches_reference(params, a):
    s, t = params
    assert _mc_sample_geometric(s, t, a) == ref_mc_sample_int(s, t, a)


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
    c, p, q, l = dist._branch(x.numerator, x.denominator)
    assert c == ref_digit_of(dist, x)
    assert (p, q, l) == dist.affine(c)
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
