"""Exact parsing and rendering of rationals at the I/O boundary.

Rational literals are `a/b` or a bare integer. Floating-point text is
rejected rather than rounded, so every value that enters the library is
exactly the value the user wrote.
"""

import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# str() refuses ints past the interpreter's int-string limit (4 300 digits
# by default), so longer ints are converted this many digits at a time
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS


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


def int_text(n: int) -> str:
    """Decimal text of an int of any size, as str(n) would give without its limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def rational_text(value: Fraction) -> str:
    """`n/d`, or `n` for an integer: str(value) without the int-string limit."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def render_decimal(value: Fraction, precision: int = 30) -> str:
    """Fixed-point decimal string, correctly rounded to `precision` digits.

    Rounding is round-half-to-even on the last kept digit. A trailing
    ellipsis character marks any output that is not exactly the value.
    """
    if precision < 1:
        raise ParseError(f"precision must be >= 1, got {precision}")
    num, den = value.numerator, value.denominator
    q, r = divmod((-num if num < 0 else num) * 10**precision, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    # q's digits, padded so at least one lands before the point
    digits = int_text(q).rjust(precision + 1, "0")
    out = f"{'-' if num < 0 else ''}{digits[:-precision]}.{digits[-precision:]}"
    return out + "…" if r else out
