"""Property-based checks of the integer kernels against their references.

Hypothesis runs derandomized, with no deadline and no example database,
so every run draws the same examples and the suite stays deterministic.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probmink import Aperiodic, CustomPrefixTail, DigitSeq, Dyadic, Geometric, NotDetected
from probmink import (
    decode_periodic,
    encode,
    eval_question_mark,
    functional_equation_residuals,
    graph_points,
)
from probmink.integral import _mc_sample_dyadic, _mc_sample_geometric

from oracles import (
    FAMILIES,
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
