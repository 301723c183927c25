"""Minkowski-type functions built on digit expansions, plus diagnostics.

The induced function applies the alternating power-of-two series to the
digit stream of its argument. The classical question-mark function is the
same series over continued-fraction digits. Diagnostics cover the pointwise
functional equation, the self-affine map system whose attractor carries the
halved graph, cylinder increments and their difference quotients, the
continuity modulus, and the non-monotonicity witness pairs.
"""

import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .distribution import Distribution, _Frozen
from .errors import DomainError, PeriodDetectionError, ProbminkError, ResourceLimitError
from .expansion import (
    Aperiodic,
    DigitSeq,
    NotDetected,
    _coprime_fraction,
    decode,
    decode_periodic,
    encode,
    shift,
)
from .series import AltSeriesValue, alt_series_exact, check_digit_sum, prefix_enclosure

# the most points one graph samples: at the budget, `graph` writes about
# 120 MB of CSV in about 15 s at a 0.34 GB peak (Python 3.11, Xeon core)
MAX_GRAPH_POINTS = 1 << 20


def eval_minkowski(dist: Distribution, arg, max_steps: int = 4096) -> Fraction:
    """Exact value of the induced function at a DigitSeq or rational point.

    A rational argument is first decoded to its eventually periodic digit
    stream. A stream proven aperiodic raises AperiodicError: the value is
    irrational, and the error carries an enclosure. If neither a period nor
    a proof turns up within max_steps the value cannot be closed exactly,
    and PeriodDetectionError asks for the enclosure variant.
    """
    if isinstance(arg, DigitSeq):
        return alt_series_exact(arg)
    seq = decode_periodic(dist, arg, max_steps)
    if isinstance(seq, Aperiodic):
        raise seq.error(arg)
    if isinstance(seq, NotDetected):
        raise PeriodDetectionError(
            f"no digit period detected for {arg} within {max_steps} steps; "
            "use eval_minkowski_enclosure for a rigorous bracket"
        )
    return alt_series_exact(seq)


def eval_minkowski_enclosure(dist: Distribution, x: Fraction, depth: int) -> AltSeriesValue:
    """Rigorous enclosure of the induced function from `depth` digits of x.

    Width is at most 2^(-depth). When the remainder after `depth` digits is
    exactly 0 the stream continues with ones only, so the tail closes in
    one step and the enclosure has zero width.
    """
    digits, remainder = decode(dist, x, depth)
    if remainder == 0:
        exact = alt_series_exact(DigitSeq(tuple(digits), (1,)))
        return AltSeriesValue(exact, exact, exact)
    return prefix_enclosure(digits)


def continued_fraction(x: Fraction) -> tuple:
    """Canonical continued-fraction digits of a rational x in [0,1].

    Euclid's algorithm on the reciprocal; the canonical form never ends in
    a final digit 1 except for x = 1 itself, whose expansion is (1,).
    """
    if not 0 <= x <= 1:
        raise DomainError(f"continued fraction input must lie in [0,1], got {x}")
    if x == 0:
        return ()
    digits = []
    num, den = x.denominator, x.numerator
    while den:
        a, r = divmod(num, den)
        digits.append(a)
        num, den = den, r
    return tuple(digits)


def eval_question_mark(x: Fraction) -> Fraction:
    """The classical question-mark function at a rational x in [0,1].

    The alternating power-of-two series applied to the continued-fraction
    digits of x; the finite expansion makes the sum finite and exact.
    """
    return alt_series_exact(continued_fraction(x))


def functional_equation_residuals(dist: Distribution, seq: DigitSeq, depth: int) -> list:
    """Residuals of the halved function along the shift orbit of a point.

    With h half the induced function, the defining identity says
    h(y) = 2^(-c) * (1 - h(y')) whenever y has first digit c and shifts to
    y'. The point is built from `seq` under `dist`, shifted `depth` times,
    and every residual h(y) - 2^(-c)(1 - h(y')) is returned; each is 0.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    points = [encode(dist, seq)]
    digits = []
    for _ in range(depth):
        c, nxt = shift(dist, points[-1])
        digits.append(c)
        points.append(nxt)
    halves = [eval_minkowski(dist, p) / 2 for p in points]
    return [
        halves[k] - Fraction(1, 1 << digits[k]) * (1 - halves[k + 1]) for k in range(depth)
    ]


class AffineMap2D(NamedTuple):
    """One contraction of the self-affine system, (x,y) -> images below.

    x' = x_offset + x_scale * x  (the digit-t branch of the expansion)
    y' = y_offset + y_scale * y  (the series recursion for the halved graph)
    """

    t: int
    x_scale: Fraction
    x_offset: Fraction
    y_scale: Fraction
    y_offset: Fraction

    def apply(self, x: Fraction, y: Fraction) -> tuple:
        return self.x_offset + self.x_scale * x, self.y_offset + self.y_scale * y

    def fixed_point(self) -> tuple:
        return (
            self.x_offset / (1 - self.x_scale),
            self.y_offset / (1 - self.y_scale),
        )


def ifs_maps(dist: Distribution, t_max: int) -> list:
    """The first t_max maps of the self-affine system under `dist`.

    Map t sends (x, y) to (prefix(t) + pmf(t) x, 2^(-t) (1 - y)); both axes
    contract strictly.
    """
    if t_max < 1:
        raise DomainError(f"map count must be >= 1, got {t_max}")
    return [
        AffineMap2D(
            t=t,
            x_scale=dist.pmf(t),
            x_offset=dist.prefix(t),
            y_scale=-Fraction(1, 1 << t),
            y_offset=Fraction(1, 1 << t),
        )
        for t in range(1, t_max + 1)
    ]


class GraphResult(_Frozen):
    """Exact graph sample plus the x-mass missed by capping the digits.

    The mass may be given as a function of no arguments, called when it is
    first read: a graph written to stdout never prints it.
    """

    __slots__ = ("points", "_mass")
    _fields = ("points", "uncovered_mass")
    points: tuple
    uncovered_mass: Fraction

    def __init__(self, points: tuple, uncovered_mass) -> None:
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "_mass", uncovered_mass)

    @property
    def uncovered_mass(self) -> Fraction:
        if callable(self._mass):
            object.__setattr__(self, "_mass", self._mass())
        return self._mass


def _graph_size(depth: int, cap: int) -> int:
    """cap**depth, or ResourceLimitError once it passes MAX_GRAPH_POINTS.

    The digit sums of the branch table (cap*(cap+1)/2) and of the longest
    word (depth*cap) are held to series.MAX_DIGIT_SUM. The running product
    stops at the budget, so no huge power is built.
    """
    count = 1
    if cap > 1:
        for _ in range(depth):
            count *= cap
            if count > MAX_GRAPH_POINTS:
                raise ResourceLimitError(
                    f"a graph of {cap}**{depth} points exceeds the budget of "
                    f"{MAX_GRAPH_POINTS} points"
                )
    check_digit_sum(cap * (cap + 1) // 2)
    check_digit_sum(depth * cap)
    return count


def graph_points(dist: Distribution, depth: int, cap: int) -> GraphResult:
    """Exact points (x, y) of the graph over all depth-`depth` digit words.

    One point per word with digits <= cap (cap**depth points, lexicographic
    by word): x encodes the word extended by the all-ones tail and y is the
    series value of the same stream, so y is exactly the function at x.
    Lexicographic order is increasing x, because digit c's branch maps
    [0,1) increasingly onto [prefix(c), prefix(c+1)). Points whose words
    need a digit above the cap are not sampled; their total x-measure is
    reported as uncovered_mass, computed when first read. More than
    MAX_GRAPH_POINTS points, or a digit sum over series.MAX_DIGIT_SUM,
    raises ResourceLimitError before any branch is built. Under cap 1 the
    only word is all ones, so the sample is the single point (0, 2/3) at
    every depth, with no enumeration.

    The words are enumerated level by level. A state (A, B, D, m, s, sign)
    holds a word's composed branch map y -> (A + B*y) / D, as `encode`
    composes it, and its series sum 2m / 2^s with the next term's sign, as
    `series` sums it. The states of all words one digit short, in
    lexicographic order, are built by extending each state of the level
    before by every digit; the last list has cap**(depth-1) entries. Each
    point then costs one more compose step.

    The all-ones tail encodes to 0 and adds 2*sign / (3 * 2^s) to the sum,
    so x = A/D, reduced by one gcd, and y = (3m + sign) / (3 * 2^(s-1)).
    y's numerator is even and never divisible by 3, so y is reduced by
    removing the numerator's trailing zero bits, at most s - 1 of them.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if cap < 1:
        raise DomainError(f"digit cap must be >= 1, got {cap}")
    _graph_size(depth, cap)
    if cap == 1:
        return GraphResult(((Fraction(0), Fraction(2, 3)),), lambda: 1 - dist.prefix(2) ** depth)
    branches = [(c, *dist.affine(c)) for c in range(1, cap + 1)]
    states = [(0, 1, 1, 0, 0, 1)]
    for _ in range(depth - 1):
        states = [
            (a * l + b * p, b * q, den * l, (m << c) + sign, s + c, -sign)
            for a, b, den, m, s, sign in states
            for c, p, q, l in branches
        ]
    points = []
    append = points.append
    gcd = math.gcd
    # each state is dropped once extended and the points reuse its memory: a
    # 2^20-point graph peaks at 335 MB, against 402 MB with the list kept whole
    states.reverse()
    pop = states.pop
    while states:
        a, b, den, m, s, sign = pop()
        for c, p, q, l in branches:
            x_num, x_den = a * l + b * p, den * l
            g = gcd(x_num, x_den)
            # 3m' + sign' for the word's m' = (m << c) + sign and sign' = -sign
            y_num, halvings = 3 * (m << c) + 2 * sign, s + c - 1
            k = min((y_num & -y_num).bit_length() - 1, halvings)
            append((_coprime_fraction(x_num // g, x_den // g),
                    _coprime_fraction(y_num >> k, 3 << (halvings - k))))
    return GraphResult(tuple(points), lambda: 1 - dist.prefix(cap + 1) ** depth)


class IncrementReport(NamedTuple):
    """Increment of the induced function across one cylinder.

    delta is the function at the cylinder's right corner stream minus the
    function at its left corner stream, both evaluated directly from the
    series; quotient is |delta| divided by the cylinder measure.
    """

    digits: tuple
    digit_sum: int
    delta: Fraction
    measure: Fraction
    quotient: Fraction


def cylinder_increment(dist: Distribution, word) -> IncrementReport:
    """Increment report for the cylinder of a nonempty digit word."""
    digits = tuple(int(d) for d in word)
    if not digits:
        raise DomainError("cylinder word must be nonempty")
    if any(d < 1 for d in digits):
        raise DomainError(f"digits must be >= 1, got {digits}")
    low = DigitSeq(digits, (1,))
    high = DigitSeq(digits[:-1] + (digits[-1] + 1,), (1,))
    delta = alt_series_exact(high) - alt_series_exact(low)
    # pmf(d) = Q/L for the triple (P, Q, L) = affine(d): one triple per distinct digit
    num = den = 1
    for d, k in Counter(digits).items():
        _, q, l = dist.affine(d)
        num *= q**k
        den *= l**k
    measure = Fraction(num, den)
    return IncrementReport(
        digits=digits,
        digit_sum=sum(digits),
        delta=delta,
        measure=measure,
        quotient=abs(delta) / measure,
    )


def singularity_ratio_step(dist: Distribution, c: int) -> Fraction:
    """Exact factor 1/(pmf(c) 2^c) relating consecutive difference quotients.

    Extending a cylinder word by digit c multiplies its |increment|/measure
    quotient by exactly this factor; under the dyadic family it is 1.
    """
    if c < 1:
        raise DomainError(f"digit must be >= 1, got {c}")
    return 1 / (dist.pmf(c) * (1 << c))


def continuity_modulus_check(s1: DigitSeq, s2: DigitSeq) -> tuple:
    """Shared-prefix modulus bound for two distinct digit streams.

    Returns (l, bound, actual): l is the length of the longest common
    prefix, bound = 2^(1-s_l) with s_l the shared digit sum, and actual is
    the absolute difference of the two series values. The strict inequality
    actual < bound holds for all distinct streams.
    """
    if s1 == s2:
        raise DomainError("streams are equal after normalization; no modulus to check")
    limit = (
        len(s1.preperiod)
        + len(s2.preperiod)
        + math.lcm(len(s1.period), len(s2.period))
        + 1
    )
    d1 = s1.digits(limit)
    d2 = s2.digits(limit)
    l = 0
    while l < limit and d1[l] == d2[l]:
        l += 1
    if l == limit:
        raise ProbminkError("distinct canonical streams agree beyond the periodicity bound")
    s_l = sum(d1[:l])
    bound = Fraction(2, 1 << s_l)
    actual = abs(alt_series_exact(s2) - alt_series_exact(s1))
    return l, bound, actual


class WitnessPair(NamedTuple):
    """Ordered pair of points whose function values move by `delta`."""

    low_seq: DigitSeq
    high_seq: DigitSeq
    low_x: Fraction
    high_x: Fraction
    delta: Fraction


def monotonicity_witnesses(dist: Distribution) -> tuple:
    """The two witness pairs showing the induced function is not monotone.

    Pair one: periods (1,2) and (2,1); the second point lies to the right
    under every distribution yet the function drops by 4/7. Pair two:
    periods (1,2) and (1,4); the function rises by 24/217. The x-order is
    re-verified under `dist` before returning (decreasing, increasing).
    """
    pairs = []
    for low, high in (
        (DigitSeq((), (1, 2)), DigitSeq((), (2, 1))),
        (DigitSeq((), (1, 2)), DigitSeq((), (1, 4))),
    ):
        low_x = encode(dist, low)
        high_x = encode(dist, high)
        if not low_x < high_x:
            raise ProbminkError(f"witness x-order failed under {dist.spec_string()}")
        delta = alt_series_exact(high) - alt_series_exact(low)
        pairs.append(WitnessPair(low, high, low_x, high_x, delta))
    return pairs[0], pairs[1]
