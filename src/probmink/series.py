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
Only results are built as Fractions, so each value costs one gcd.

A digit sum is a bit count: the result's denominator has about that many
bits. A sum above MAX_DIGIT_SUM raises ResourceLimitError before any
shift is allocated. The codec holds words and digits to the same budget
(`check_digit_sum`), because a word's composed map has a power of each
digit's denominator.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, ResourceLimitError
from .expansion import DigitSeq
from .fmt import int_text

# 2^24 bits (2 MB) per power of two: well above the digit sum of a
# 500 001-digit dyadic period (about 10^6), and a bounded allocation
MAX_DIGIT_SUM = 1 << 24


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


def _finite_sum(digits) -> tuple:
    """Sum the series over a finite digit list, as integers.

    Returns (m, s_n, sign): the partial sum is 2m / 2^(s_n), s_n is the
    digit sum and sign the sign (-1)^n carried by the next term after the
    list. Raises ResourceLimitError when the digit sum exceeds
    MAX_DIGIT_SUM.
    """
    s = sum(digits)
    check_digit_sum(s)
    if digits and min(digits) < 1:
        raise DomainError(f"digits must be >= 1, got {next(d for d in digits if d < 1)}")
    m = 0
    sign = 1
    for d in digits:
        m = (m << d) + sign
        sign = -sign
    return m, s, sign


def alt_series_exact(stream) -> Fraction:
    """Exact series value of a DigitSeq or a finite digit list.

    A finite list is a finite sum (empty list gives 0). A DigitSeq is the
    full infinite series: prefix sum plus the period block's geometric
    limit, scaled into place by the sign and remaining power of two. With
    block sign b and period digit sum Q, the blocks sum to 2 m_b / (2^Q - b),
    so the value is one fraction

        2 (m_h (2^Q - b) + sign m_b) / (2^(s_pre) (2^Q - b)).
    """
    if isinstance(stream, DigitSeq):
        m_h, s_pre, sign = _finite_sum(stream.preperiod)
        m_b, q_sum, block_sign = _finite_sum(stream.period)
        den = (1 << q_sum) - block_sign
        return Fraction(2 * (m_h * den + sign * m_b), den << s_pre)
    m, s, _ = _finite_sum(tuple(stream))
    return Fraction(2 * m, 1 << s)


def alt_series_periodic_closed_form(v: int, w: int) -> Fraction:
    """Series value of the two-digit period (v, w) in closed form.

    Equals alt_series_exact on the purely periodic stream v,w,v,w,...
    """
    if v < 1 or w < 1:
        raise DomainError(f"period digits must be >= 1, got ({v}, {w})")
    return Fraction(2 * ((1 << w) - 1), (1 << (v + w)) - 1)


def prefix_enclosure(digits) -> AltSeriesValue:
    """Enclosure of the full series given only leading digits of a stream.

    The omitted tail is an alternating series whose first term carries
    sign (-1)^n and magnitude at most 2^(-s_n), so the band is one-sided.
    """
    m, s_n, sign = _finite_sum(tuple(digits))
    partial = Fraction(2 * m, 1 << s_n)
    other = Fraction(2 * m + sign, 1 << s_n)
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
