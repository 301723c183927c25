"""Independent references for checking the CLI's outputs.

Nothing here imports probmink. Every family is modelled as a finite head
of probabilities plus a geometric tail (dyadic is the tail r = 1/2,
geometric:q the tail r = 1 - q), which is a different construction from
the package's three classes. Series sums add terms one at a time on an
integer accumulator, the question-mark value walks the Stern-Brocot tree,
graph and quadrature corner sums enumerate words, and the Monte Carlo
reference re-walks every sample.

Python limits int <-> str conversion to 4300 digits. The checks never
raise that limit; big integers are parsed chunk by chunk instead.
"""

import itertools
import math
import random
import re
from fractions import Fraction

_CHUNK = 4000
_RAT_RE = re.compile(r"^(-?)(\d+)(?:/(\d+))?$")


class Mismatch(Exception):
    """An output differs from its reference."""


def parse_big_int(text: str) -> int:
    """Parse a decimal digit string of any length without the str limit."""
    value = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def expect_rational(text: str, value: Fraction, what: str) -> None:
    """Require `text` to be the canonical `n/d` (or `n`) spelling of value."""
    m = _RAT_RE.match(text.strip())
    if not m:
        raise Mismatch(f"{what}: not a rational literal: {text[:80]!r}")
    num = parse_big_int(m.group(2))
    den = parse_big_int(m.group(3)) if m.group(3) is not None else 1
    if m.group(1):
        num = -num
    if m.group(3) is not None and (den <= 1 or math.gcd(num, den) != 1):
        raise Mismatch(f"{what}: rational not in lowest terms")
    if (num, den) != (value.numerator, value.denominator):
        raise Mismatch(f"{what}: value differs from the reference")


def expect_equal(got, want, what: str) -> None:
    """Raise Mismatch showing where `got` first differs from `want`."""
    if got == want:
        return
    if isinstance(got, list) and isinstance(want, list):
        i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w),
                 min(len(got), len(want)))
        what, got, want = f"{what} item {i}", got[i:i + 1], want[i:i + 1]
    got, want = str(got), str(want)
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    lo = max(0, i - 20)
    raise Mismatch(f"{what}: at {i} got {got[lo:i + 40]!r}, want {want[lo:i + 40]!r}")


def rat(value: Fraction) -> str:
    """Canonical rational text, for values below the str limit."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def decimal(value: Fraction, precision: int = 30) -> str:
    """Round-half-even fixed-point text; a trailing ellipsis marks inexact."""
    neg = value < 0
    num, den = abs(value.numerator), value.denominator
    scale = 10**precision
    q, r = divmod(num * scale, den)
    if 2 * r > den or (2 * r == den and q & 1):
        q += 1
    whole, frac = divmod(q, scale)
    text = ("-" if neg else "") + f"{whole}." + f"{frac}".rjust(precision, "0")
    return text + ("…" if r else "")


class Family:
    """A distribution on 1, 2, ...: head probabilities, then a geometric tail.

    Digit k + 1 + j (k the head length, j >= 0) has mass T (1 - r) r^j with
    T = 1 - sum(head), so the total mass is 1.
    """

    def __init__(self, spec: str):
        self.spec = spec
        if spec == "dyadic":
            head, ratio = (), Fraction(1, 2)
        elif spec.startswith("geometric:"):
            head, ratio = (), 1 - Fraction(spec.split(":", 1)[1])
        elif spec.startswith("custom:"):
            head_text, ratio_text = spec.split(":", 1)[1].split(";")
            head = tuple(Fraction(p) for p in head_text.split(","))
            ratio = Fraction(ratio_text)
        else:
            raise ValueError(f"unknown family {spec!r}")
        self.kind = spec.split(":", 1)[0]
        self.head = head
        self.ratio = ratio
        self.tail_mass = 1 - sum(head, Fraction(0))
        self.cum = list(itertools.accumulate(head, initial=Fraction(0)))
        self._pmf = {}
        self._prefix = {}

    def pmf(self, c: int) -> Fraction:
        p = self._pmf.get(c)
        if p is None:
            k = len(self.head)
            if c <= k:
                p = self.head[c - 1]
            else:
                p = self.tail_mass * (1 - self.ratio) * self.ratio ** (c - k - 1)
            self._pmf[c] = p
        return p

    def prefix(self, c: int) -> Fraction:
        p = self._prefix.get(c)
        if p is None:
            k = len(self.head)
            if c <= k + 1:
                p = self.cum[c - 1]
            else:
                p = 1 - self.tail_mass * self.ratio ** (c - k - 1)
            self._prefix[c] = p
        return p

    def digit(self, num: int, den: int) -> int:
        """The digit c with prefix(c) <= num/den < prefix(c+1)."""
        for i, cum in enumerate(self.cum[1:], start=1):
            if num * cum.denominator < cum.numerator * den:
                return i
        # tail: smallest j >= 1 with T r^j < 1 - x
        tn, td = self.tail_mass.numerator, self.tail_mass.denominator
        rn, rd = self.ratio.numerator, self.ratio.denominator
        gap = den - num
        j, a, b = 1, tn * rn, td * rd
        while a * den >= b * gap:
            a *= rn
            b *= rd
            j += 1
        return len(self.head) + j

    def alpha(self) -> Fraction:
        k, r = len(self.head), self.ratio
        head = sum((p / 2**i for i, p in enumerate(self.head, 1)), Fraction(0))
        return head + self.tail_mass * (1 - r) / (2**k * (2 - r))

    def gamma(self) -> Fraction:
        k, r = len(self.head), self.ratio
        head = sum((p * p / 2**i for i, p in enumerate(self.head, 1)), Fraction(0))
        return head + (self.tail_mass * (1 - r)) ** 2 / (2**k * (2 - r * r))


def _affine(fam: Family, digits) -> tuple:
    """(offset, scale, den) with x -> (offset + scale*x) / den over the digits.

    Integers share one unreduced denominator, so the composition needs
    no gcd until the caller builds a Fraction.
    """
    off, scale, den = 0, 1, 1
    for d in digits:
        p, q = fam.prefix(d), fam.pmf(d)
        off = (off * p.denominator + scale * p.numerator) * q.denominator
        scale = scale * q.numerator * p.denominator
        den = den * p.denominator * q.denominator
    return off, scale, den


def encode(fam: Family, pre, per) -> Fraction:
    """The point whose digit stream is pre followed by per repeated."""
    po, ps, pd = _affine(fam, per)
    fixed = Fraction(po, pd - ps)
    o, s, d = _affine(fam, pre)
    return (o + s * fixed) / d


def series_terms(digits) -> tuple:
    """(m, s, n): the finite series over `digits` equals 2m / 2^s, n terms."""
    m, s, sign, n = 0, 0, 1, 0
    for d in digits:
        m = (m << d) + sign
        s += d
        sign = -sign
        n += 1
    return m, s, n


def series_periodic(pre, per) -> Fraction:
    """Exact value of the alternating series over pre then per repeated."""
    mh, s_pre, n_pre = series_terms(pre)
    mb, q, n_per = series_terms(per)
    # one period adds 2mb / 2^q; each later period is scaled by (-1)^n_per / 2^q
    tail = Fraction(2 * mb, (1 << q) - (-1) ** n_per)
    return Fraction(2 * mh, 1 << s_pre) + (-1) ** n_pre * tail / (1 << s_pre)


def stream_digits(pre, per, n: int) -> list:
    out = list(pre[:n])
    while len(out) < n:
        out.extend(per[: n - len(out)])
    return out


def enclosure(pre, per, depth: int) -> tuple:
    """(lower, upper) of the series from the first `depth` digits."""
    m, s, n = series_terms(stream_digits(pre, per, depth))
    partial = Fraction(2 * m, 1 << s)
    sign = (-1) ** n
    if tuple(per) == (1,) and depth >= len(pre):
        exact = partial + sign * Fraction(2, 3 << s)
        return exact, exact
    band = Fraction(1, 1 << s)
    return (partial, partial + band) if sign > 0 else (partial - band, partial)


def canonical_text(pre, per) -> str:
    """Text of a stream the generator already made canonical."""
    return ",".join(map(str, pre)) + "(" + ",".join(map(str, per)) + ")"


def is_primitive(per) -> bool:
    n = len(per)
    return not any(n % d == 0 and per == per[:d] * (n // d) for d in range(1, n))


def cf_value(digits) -> Fraction:
    value = Fraction(0)
    for a in reversed(digits):
        value = 1 / (a + value)
    return value


def question_mark(x: Fraction) -> Fraction:
    """Minkowski's ? at a rational, by bisecting the Stern-Brocot tree."""
    if x in (0, 1):
        return x
    ln, ld, rn, rd = 0, 1, 1, 1
    lo, hi = Fraction(0), Fraction(1)
    while True:
        mn, md = ln + rn, ld + rd
        mid = (lo + hi) / 2
        cmp = x.numerator * md - mn * x.denominator
        if cmp == 0:
            return mid
        if cmp < 0:
            rn, rd, hi = mn, md, mid
        else:
            ln, ld, lo = mn, md, mid


def graph_rows(fam: Family, depth: int, cap: int) -> list:
    """Sorted (x, y) of every capped word, each word encoded on its own."""
    rows = []
    for word in itertools.product(range(1, cap + 1), repeat=depth):
        rows.append((encode(fam, word, (1,)), series_periodic(word, (1,))))
    rows.sort()
    return rows


def graph_csv(fam: Family, depth: int, cap: int, precision: int = 30) -> str:
    lines = ["x_rational,y_rational,x_decimal,y_decimal"]
    for x, y in graph_rows(fam, depth, cap):
        lines.append(f"{rat(x)},{rat(y)},{decimal(x, precision)},{decimal(y, precision)}")
    return "\r\n".join(lines) + "\r\n"


def increments(fam: Family, word) -> list:
    """(digits, digit_sum, delta, measure, quotient) for each prefix."""
    out = []
    for n in range(1, len(word) + 1):
        digits = tuple(word[:n])
        high = digits[:-1] + (digits[-1] + 1,)
        delta = series_periodic(high, (1,)) - series_periodic(digits, (1,))
        measure = Fraction(1)
        for d in digits:
            measure *= fam.pmf(d)
        out.append((digits, sum(digits), delta, measure, abs(delta) / measure))
    return out


def quadrature(fam: Family, depth: int, cap: int) -> tuple:
    """(lower, upper) of the capped cylinder quadrature, corners enumerated."""
    corner = Fraction(0)
    for word in itertools.product(range(1, cap + 1), repeat=depth):
        measure = Fraction(1)
        for d in word:
            measure *= fam.pmf(d)
        corner += measure * series_periodic(word, (1,))
    a = sum((fam.pmf(c) / 2**c for c in range(1, cap + 1)), Fraction(0))
    oscillation = 2 * a**depth
    uncovered = 1 - fam.prefix(cap + 1) ** depth
    return corner - oscillation, corner + oscillation + uncovered


_MC_BITS = 64


def mc_sample(fam: Family, a: int) -> Fraction:
    """Midpoint of the 64-digit enclosure at a / 2^64; exact if it ends."""
    num, den = a, 1 << _MC_BITS
    m, s, sign = 0, 0, 1
    for _ in range(_MC_BITS):
        if num == 0:
            break
        c = fam.digit(num, den)
        p, q = fam.prefix(c), fam.pmf(c)
        num = (num * p.denominator - p.numerator * den) * q.denominator
        den = den * p.denominator * q.numerator
        g = math.gcd(num, den)
        num, den = num // g, den // g
        m = (m << c) + sign
        s += c
        sign = -sign
    if num == 0:
        return Fraction(6 * m + 2 * sign, 3 << s)
    return Fraction(4 * m + sign, 2 << s)


def monte_carlo(fam: Family, samples: int, seed: int) -> tuple:
    """(mean, stderr text) of the seeded estimate, sample by sample."""
    rng = random.Random(seed)
    total = Fraction(0)
    squares = Fraction(0)
    for _ in range(samples):
        v = mc_sample(fam, rng.getrandbits(_MC_BITS))
        total += v
        squares += v * v
    mean = total / samples
    var = (squares - samples * mean * mean) / (samples - 1) if samples > 1 else Fraction(0)
    return mean, f"{math.sqrt(var / samples):.3e}"
