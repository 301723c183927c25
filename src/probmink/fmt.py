"""Exact parsing and rendering of rationals at the I/O boundary.

Rational literals are `a/b` or a bare integer. Floating-point text is
rejected rather than rounded, so every value that enters the library is
exactly the value the user wrote.
"""

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_ints(texts) -> tuple:
    """The integer literals in `texts` as ints, with ParseError where int() refuses one.

    Besides malformed text, int() refuses a literal longer than the
    interpreter's int-string conversion limit (4 300 digits by default).
    """
    try:
        return tuple(map(int, texts))
    except ValueError as exc:
        raise ParseError(f"integer literal not accepted: {exc}") from None


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or an integer literal exactly.

    Raises ParseError on anything else, including decimal or scientific
    notation, empty strings, zero denominators, and literals too long for
    int().
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r} (expected a/b or an integer)")
    parts = parse_ints(s.split("/"))
    if len(parts) == 1:
        return Fraction(parts[0])
    num, den = parts
    if den == 0:
        raise ParseError(f"zero denominator in rational literal: {text!r}")
    return Fraction(num, den)


def render_decimal(value: Fraction, precision: int = 30) -> str:
    """Fixed-point decimal string, correctly rounded to `precision` digits.

    Rounding is round-half-to-even on the last kept digit. A trailing
    ellipsis character marks any output that is not exactly the value.
    """
    if precision < 1:
        raise ParseError(f"precision must be >= 1, got {precision}")
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    scale = 10**precision
    q, r = divmod(mag.numerator * scale, mag.denominator)
    if 2 * r > mag.denominator or (2 * r == mag.denominator and q % 2 == 1):
        q += 1
    ipart, fpart = divmod(q, scale)
    out = f"{sign}{ipart}.{str(fpart).zfill(precision)}"
    return out + "…" if r != 0 else out
