"""Exact parsing and rendering of rationals at the I/O boundary.

Rational literals are `a/b` or a bare integer. Floating-point text is
rejected rather than rounded, so every value that enters the library is
exactly the value the user wrote.
"""

import decimal
import re
from fractions import Fraction

from .errors import ParseError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

# str() refuses ints past the interpreter's int-string limit (4 300 digits
# by default), so longer ints are converted this many digits at a time
_CHUNK_DIGITS = 4000
_CHUNK = 10**_CHUNK_DIGITS
# the chunk loop is quadratic; above this many bits _decimal_text's divide
# and conquer is faster (the two cross between 5*10^4 and 7*10^4 bits on
# CPython 3.11.7; at 10^6 bits it is 0.12 s against 1.0 s)
_SPLIT_BITS = 1 << 16
# _decimal_text converts ints this small to Decimal directly, as _pylong does
_LEAF_BITS = 128


def _digits_value(text: str) -> int:
    """int(text) for a string of ASCII digits of any length, by divide and conquer.

    The mirror of `_decimal_text`: text = hi*10^k + lo with lo its last k
    digits, k half of its length, both halves converted recursively down to
    pieces of at most _CHUNK_DIGITS digits that int() reads, and each power
    10^k built once. Multiplication is subquadratic, so the conversion is too.
    """
    powers = {}

    def convert(lo, hi):
        if hi - lo <= _CHUNK_DIGITS:
            return int(text[lo:hi])
        k = (hi - lo) >> 1
        if k not in powers:
            powers[k] = 10**k
        return convert(lo, hi - k) * powers[k] + convert(hi - k, hi)

    return convert(0, len(text))


def _parse_int(text: str) -> int:
    """int(text), with a plain literal longer than _CHUNK_DIGITS read by `_digits_value`."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if len(text) <= _CHUNK_DIGITS or not (digits.isascii() and digits.isdigit()):
        return int(text)
    value = _digits_value(digits)
    return -value if text[0] == "-" else value


def parse_ints(texts) -> tuple:
    """The literals of the sequence `texts` as ints, with ParseError where int() refuses one.

    A literal of optional sign and ASCII digits is read at any length, past
    the interpreter's int-string conversion limit (4 300 digits by default);
    int() reads every other literal and refuses malformed text.
    """
    # a digit word has thousands of short literals, which int() reads directly
    parse = _parse_int if max(map(len, texts), default=0) > _CHUNK_DIGITS else int
    try:
        return tuple(map(parse, texts))
    except ValueError as exc:
        raise ParseError(f"integer literal not accepted: {exc}") from None


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or an integer literal exactly.

    Raises ParseError on anything else, including decimal or scientific
    notation, empty strings and zero denominators. Integers of any length
    are read (see parse_ints).
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


def _decimal_text(n: int) -> str:
    """Decimal text of an int n > 0 by splitting it in binary and joining in decimal.

    The method of CPython 3.12's `_pylong.int_to_decimal_string`: n = hi*2^k
    + lo with k half of n's bits, both halves converted recursively and
    joined as lo + hi*2^k in exact `decimal` arithmetic at MAX_PREC, with
    each power 2^k built once. Decimal multiplication is subquadratic, so
    the whole conversion is too.
    """
    powers = {}

    def power(w):
        # 2^w; the two halves of an odd split ask for w and w+1, the smaller first
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_BITS:
                result = decimal.Decimal(1 << w)
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                result = power(w >> 1) * power(w - (w >> 1))
            powers[w] = result
        return result

    def convert(n, w):
        if w <= _LEAF_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        return str(convert(n, n.bit_length()))


def int_text(n: int) -> str:
    """Decimal text of an int of any size, as str(n) would give without its limit."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    if n.bit_length() > _SPLIT_BITS:
        return _decimal_text(n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(f"{r:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def _ratio_text(num: int, den: int) -> str:
    """rational_text of the reduced ratio num/den, den > 0, without a Fraction."""
    if den == 1:
        return int_text(num)
    return f"{int_text(num)}/{int_text(den)}"


def _ratio_decimal(num: int, den: int, precision: int) -> str:
    """render_decimal of the reduced ratio num/den, den > 0, without a Fraction."""
    if precision < 1:
        raise ParseError(f"precision must be >= 1, got {precision}")
    q, r = divmod((-num if num < 0 else num) * 10**precision, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    # q's digits, padded so at least one lands before the point
    digits = int_text(q).rjust(precision + 1, "0")
    out = f"{'-' if num < 0 else ''}{digits[:-precision]}.{digits[-precision:]}"
    return out + "…" if r else out


def rational_text(value: Fraction) -> str:
    """`n/d`, or `n` for an integer: str(value) without the int-string limit."""
    return _ratio_text(value.numerator, value.denominator)


def render_decimal(value: Fraction, precision: int = 30) -> str:
    """Fixed-point decimal string, correctly rounded to `precision` digits.

    Rounding is round-half-to-even on the last kept digit. A trailing
    ellipsis character marks any output that is not exactly the value.
    """
    return _ratio_decimal(value.numerator, value.denominator, precision)
