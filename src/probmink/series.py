"""The alternating power-of-two series over digit streams.

Term k of the series is (-1)^(k-1) * 2^(1 - s_k) where s_k is the sum of
the first k digits. Finite digit lists get the plain finite sum; eventually
periodic streams get the exact limit, because one pass through the period
contributes a fixed rational block and successive blocks form a geometric
series with ratio (-1)^r * 2^(-Q) (r the period length, Q its digit sum).

The same engine serves digit streams from distribution-driven expansions
and continued-fraction digits of rationals.

The sums run on integers. Over digits d_1..d_n with digit sum s_n, the
accumulator m = (m << d) + sign gives the partial sum as exactly
2m / 2^(s_n), and a period closes in one division (see alt_series_exact).
A long list builds the same m from two bit strings, in time linear in
s_n (see _finite_sum).
Only results are built as Fractions, and no result runs a gcd over its
power of two. A value num / (odd * 2^s) with an odd factor `odd` (1, 3
or 2^Q - b) is reduced by `_dyadic`: a shift by min(trailing zeros of
num, s) cancels the power of two, in time linear in s, and one gcd with
the odd factor, only where it is above 1, cancels the rest.

A digit sum is a bit count: the result's denominator has about that many
bits. A sum above MAX_DIGIT_SUM raises ResourceLimitError before any
shift is allocated. The codec holds words and digits to the same budget
(`check_digit_sum`), because a word's composed map has a power of each
digit's denominator.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .expansion import DigitSeq, _coprime_fraction, _int_tuple
from .fmt import int_text

# 2^24 bits (2 MB) per power of two: well above the digit sum of a
# 500 001-digit dyadic period (about 10^6), and a bounded allocation
MAX_DIGIT_SUM = 1 << 24
# _finite_sum's per-digit loop beats its two linear string passes up to
# about 512 digits of 1-3 and 256 digits of 1-70 (Python 3.11.7, 2-CPU
# x86-64 host): 89 against 92 us at 512 digits of 1-3, 237 against 173 us
# at 1 024, 765 against 341 us at 2 048
_LOOP_SUM_DIGITS = 512


class AltSeriesValue(NamedTuple):
    """A series value with a rigorous enclosure; exact when lower == upper."""

    value: Fraction
    lower: Fraction
    upper: Fraction

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2


def check_digit_sum(total: int) -> None:
    """Raise ResourceLimitError when a digit sum exceeds MAX_DIGIT_SUM."""
    if total > MAX_DIGIT_SUM:
        raise ResourceLimitError(
            f"digit sum {int_text(total)} exceeds the budget of {MAX_DIGIT_SUM} bits "
            "for an exact value"
        )


def _dyadic(num: int, odd: int, s: int) -> Fraction:
    """num / (odd * 2^s) in lowest terms, for an odd factor odd >= 1 and s >= 0.

    The Fraction constructor's gcd runs over the whole power of two, in
    time quadratic in s. Here min(trailing zeros of num, s) bits go by one
    shift, and the odd factor takes one gcd, only when odd > 1.
    """
    if not num:
        return _coprime_fraction(0, 1)
    zeros = min((num & -num).bit_length() - 1, s)
    num >>= zeros
    if odd > 1:
        g = math.gcd(num, odd)
        if g > 1:
            num //= g
            odd //= g
    return _coprime_fraction(num, odd << (s - zeros))


def _finite_sum(digits) -> tuple:
    """Sum the series over a finite digit list, as integers.

    Returns (m, s_n, sign): the partial sum is 2m / 2^(s_n), s_n is the
    digit sum and sign the sign (-1)^n carried by the next term after the
    list. Raises ResourceLimitError when the digit sum exceeds
    MAX_DIGIT_SUM, and DomainError for a digit below 1 or one that is no
    integer, before any sum.

    Term k adds (-1)^(k-1) * 2^(s_n - s_k) to m. Up to _LOOP_SUM_DIGITS
    digits the accumulator m = (m << d) + sign runs as it is; it copies m
    once per digit, so it is quadratic in the digit sum. A longer list is
    summed as m = P - N, where P has a one bit at the end of each
    odd-numbered term's block of d_k bits and N at the end of each
    even-numbered one. Each is written as a string of s_n binary digits
    by one join and read by int(., 2), and both are linear in s_n.
    """
    try:
        s = sum(digits)
    except TypeError:
        s = None
    if s.__class__ is not int:
        # _int_tuple names a digit that is no integer, and reads any other integer type
        digits = _int_tuple(digits)
        s = sum(digits)
    check_digit_sum(s)
    if digits and min(digits) < 1:
        raise DomainError(f"digits must be >= 1, got {next(d for d in digits if d < 1)}")
    n = len(digits)
    if n <= _LOOP_SUM_DIGITS:
        m = 0
        sign = 1
        for d in digits:
            m = (m << d) + sign
            sign = -sign
        return m, s, sign
    pad = {d: "0" * (d - 1) for d in set(digits)}
    one = {d: z + "1" for d, z in pad.items()}
    nil = {d: z + "0" for d, z in pad.items()}
    odd, even = digits[0::2], digits[1::2]
    pos, neg = [None] * n, [None] * n
    pos[0::2] = map(one.__getitem__, odd)
    pos[1::2] = map(nil.__getitem__, even)
    neg[0::2] = map(nil.__getitem__, odd)
    neg[1::2] = map(one.__getitem__, even)
    return int("".join(pos), 2) - int("".join(neg), 2), s, -1 if n & 1 else 1


def alt_series_exact(stream) -> Fraction:
    """Exact series value of a DigitSeq or a finite digit list.

    A finite list is a finite sum (empty list gives 0). A DigitSeq is the
    full infinite series: prefix sum plus the period block's geometric
    limit, scaled into place by the sign and remaining power of two. With
    block sign b and period digit sum Q, the blocks sum to 2 m_b / (2^Q - b),
    so the value is one fraction

        2 (m_h (2^Q - b) + sign m_b) / (2^(s_pre) (2^Q - b)).

    2^Q - b is odd, so its common factor with the numerator is
    g = gcd(m_b, 2^Q - b), a gcd over Q bits, not over Q + s_pre. After
    dividing by g only the power of two is left to cancel.
    """
    if isinstance(stream, DigitSeq):
        m_h, s_pre, sign = _finite_sum(stream.preperiod)
        m_b, q_sum, block_sign = _finite_sum(stream.period)
        den = (1 << q_sum) - block_sign
        g = math.gcd(m_b, den)
        if g > 1:
            m_b //= g
            den //= g
        value = _dyadic(2 * (m_h * den + sign * m_b), 1, s_pre)
        return _coprime_fraction(value.numerator, den << value.denominator.bit_length() - 1)
    m, s, _ = _finite_sum(tuple(stream))
    return _dyadic(2 * m, 1, s)


def alt_series_periodic_closed_form(v: int, w: int) -> Fraction:
    """Series value of the two-digit period (v, w) in closed form.

    Equals alt_series_exact on the purely periodic stream v,w,v,w,...
    """
    if v < 1 or w < 1:
        raise DomainError(f"period digits must be >= 1, got ({v}, {w})")
    return _dyadic(2 * ((1 << w) - 1), (1 << (v + w)) - 1, 0)


def prefix_enclosure(digits) -> AltSeriesValue:
    """Enclosure of the full series given only leading digits of a stream.

    The omitted tail is an alternating series whose first term carries
    sign (-1)^n and magnitude at most 2^(-s_n), so the band is one-sided.
    """
    m, s_n, sign = _finite_sum(tuple(digits))
    partial = _dyadic(2 * m, 1, s_n)
    # 2m + sign is odd, so the other end is already in lowest terms
    other = _coprime_fraction(2 * m + sign, 1 << s_n)
    if sign > 0:
        return AltSeriesValue(partial, partial, other)
    return AltSeriesValue(partial, other, partial)


def alt_series_truncated(stream, n: int) -> AltSeriesValue:
    """Partial sum of the first n terms with a rigorous enclosure.

    For a DigitSeq the stream never runs out, so the result carries the
    one-sided alternating-tail band of width 2^(-s_n). A finite list that
    is exhausted by n terms is summed exactly with a zero-width enclosure.
    """
    if n < 1:
        raise DomainError(f"term count must be >= 1, got {n}")
    if isinstance(stream, DigitSeq):
        return prefix_enclosure(stream.digits(n))
    digits = tuple(stream)
    if len(digits) <= n:
        total = alt_series_exact(digits)
        return AltSeriesValue(total, total, total)
    return prefix_enclosure(digits[:n])
