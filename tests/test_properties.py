"""Property-based checks of the integer kernels against their references.

Hypothesis runs derandomized, with no deadline and no example database,
so every run draws the same examples and the suite stays deterministic.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from probmink import Aperiodic, CustomPrefixTail, DigitSeq, Dyadic, Geometric, NotDetected
from probmink import decode_periodic, graph_points
from probmink.integral import _mc_sample_dyadic, _mc_sample_geometric

from oracles import FAMILIES, ref_decode_periodic, ref_graph_points, ref_mc_sample_int

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
