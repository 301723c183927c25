"""Probability distributions on the positive integers with exact rational mass.

Three families keep every quantity rational: the dyadic distribution
p_i = 2^-i, geometric distributions with rational success probability, and
an explicit head of probabilities completed by a geometric tail. Each family
supplies one integer method, `affine(i) -> (P, Q, L)`, with prefix(i) = P/L
(cumulative mass strictly below digit i) and pmf(i) = Q/L, computed from
closed forms; `prefix` and `pmf` are built from it. The codec composes the
unreduced triples directly. Each family also has an exact digit search used
by the decoder, and `branch_primes() -> (S, W)`, the primes that the
decoder's periodicity walk tracks (see `expansion`).

Instances are immutable and hashable; all operations are pure.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError, ResourceLimitError
from .fmt import int_text, parse_rational


class Distribution:
    """Common interface for the built-in families."""

    def affine(self, i: int) -> tuple:
        """Integers (P, Q, L) with prefix(i) == P/L and pmf(i) == Q/L, for i >= 1.

        L > 0 and the triple need not be reduced. Digit i's branch of the
        expansion is the affine map y -> (P + Q*y) / L.
        """
        raise NotImplementedError

    def pmf(self, i: int) -> Fraction:
        """Mass of digit i, for i >= 1; always strictly inside (0,1)."""
        _, q, l = self.affine(i)
        return Fraction(q, l)

    def prefix(self, i: int) -> Fraction:
        """Cumulative mass of digits strictly below i; prefix(1) == 0."""
        p, _, l = self.affine(i)
        return Fraction(p, l)

    def max_p(self) -> Fraction:
        """The largest single-digit mass."""
        raise NotImplementedError

    def digit_of(self, x: Fraction) -> int:
        """The unique digit c with prefix(c) <= x < prefix(c+1).

        Callers guarantee 0 <= x < 1. Implementations compare integer
        powers exactly; no logarithms or floats are involved.
        """
        raise NotImplementedError

    def branch_primes(self) -> tuple:
        """Integers (S, W) naming the primes of the branch denominators.

        The prime factors of S are the primes that can divide some L of
        affine(c) = (P, Q, L), so every L is S-smooth. W is the part of
        gcd(Q(c) for c >= 2) that is coprime to S. A prime of W never leaves
        a remainder's denominator once there, and a digit cycle cannot keep
        its exponent fixed, so it certifies an aperiodic stream.
        """
        raise NotImplementedError

    def spec_string(self) -> str:
        """The textual form accepted by parse_distribution."""
        raise NotImplementedError

    @staticmethod
    def _check_digit(i: int) -> None:
        if i < 1:
            raise DomainError(f"digit index must be >= 1, got {i}")
        if i > series.MAX_DIGIT_SUM:
            # the triple holds powers with exponent i: a one-digit word over budget
            series.check_digit_sum(i)


def _smooth_part(n: int, primes: int) -> int:
    """The largest divisor of n > 0 whose primes all divide `primes`."""
    part = 1
    g = math.gcd(n, primes)
    while g > 1:
        n //= g
        part *= g
        g = math.gcd(n, g)
    return part


def _check_digit_bound(bound: int) -> None:
    """Raise ResourceLimitError when a lower bound on a digit passes the budget."""
    if bound > series.MAX_DIGIT_SUM:
        raise ResourceLimitError(
            f"the digit at this point is at least {int_text(bound)}, above the budget of "
            f"{series.MAX_DIGIT_SUM} for an exact value"
        )


@dataclass(frozen=True)
class Dyadic(Distribution):
    """p_i = 2^-i, so prefix(i) = 1 - 2^(1-i)."""

    def affine(self, i: int) -> tuple:
        self._check_digit(i)
        return (1 << i) - 2, 1, 1 << i

    def max_p(self) -> Fraction:
        return Fraction(1, 2)

    def digit_of(self, x: Fraction) -> int:
        # smallest c with 2^c * (1 - x) > 1
        num, den = x.numerator, x.denominator
        c, t = 1, (den - num) << 1
        while t <= den:
            c += 1
            t <<= 1
        return c

    def branch_primes(self) -> tuple:
        return 2, 1

    def spec_string(self) -> str:
        return "dyadic"


@dataclass(frozen=True)
class Geometric(Distribution):
    """p_i = q (1-q)^(i-1) for a rational success probability q in (0,1)."""

    q: Fraction

    def __post_init__(self) -> None:
        q = Fraction(self.q)
        object.__setattr__(self, "q", q)
        if not 0 < q < 1:
            raise DomainError(f"geometric parameter must lie strictly in (0,1), got {q}")

    def affine(self, i: int) -> tuple:
        # with q = s/t and u = t - s: prefix = 1 - (u/t)^(i-1), pmf = s u^(i-1) / t^i
        self._check_digit(i)
        s, t = self.q.numerator, self.q.denominator
        u_pow = (t - s) ** (i - 1)
        l = t**i
        return l - t * u_pow, s * u_pow, l

    def max_p(self) -> Fraction:
        # the pmf is strictly decreasing in i
        return self.q

    def digit_of(self, x: Fraction) -> int:
        # smallest c with (1-q)^c < 1 - x, via integer cross-multiplication
        s, t = self.q.numerator, self.q.denominator
        u = t - s
        num, den = x.numerator, x.denominator
        if u > s * series.MAX_DIGIT_SUM:
            # -log(1-x) >= x and -log(1-q) <= q/(1-q) give c > x*u/s, which
            # can pass the budget only when u/s does
            _check_digit_bound(num * u // (den * s) + 1)
        diff = den - num
        c, up, tp = 1, u, t
        while up * den >= tp * diff:
            up *= u
            tp *= t
            c += 1
        return c

    def branch_primes(self) -> tuple:
        # L = t^c; Q(c) = s u^(c-1), and s u is coprime to t
        s, t = self.q.numerator, self.q.denominator
        return t, s * (t - s)

    def spec_string(self) -> str:
        return f"geometric:{self.q}"


@dataclass(frozen=True)
class CustomPrefixTail(Distribution):
    """Explicit head probabilities completed by a geometric tail.

    With head (p_1, ..., p_k), s = p_1 + ... + p_k, and tail ratio r, the
    digits beyond the head carry p_{k+1+j} = (1-s)(1-r) r^j for j >= 0.
    The tail sums to 1 - s, so total mass is exactly 1 by construction.
    """

    head: tuple
    tail_ratio: Fraction

    def __post_init__(self) -> None:
        head = tuple(Fraction(p) for p in self.head)
        ratio = Fraction(self.tail_ratio)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail_ratio", ratio)
        if not 0 < ratio < 1:
            raise DomainError(f"tail ratio must lie strictly in (0,1), got {ratio}")
        for p in head:
            if not 0 < p < 1:
                raise DomainError(f"head probabilities must lie strictly in (0,1), got {p}")
        total = sum(head, Fraction(0))
        if total >= 1:
            raise DomainError(f"head probabilities must sum below 1, got {total}")
        # integer cumulative sums over H, the lcm of the head denominators:
        # _cum_num[i-1] == prefix(i) * H for 1 <= i <= len(head)+1
        lcm = math.lcm(*(p.denominator for p in head))
        cum = [0]
        for p in head:
            cum.append(cum[-1] + p.numerator * (lcm // p.denominator))
        object.__setattr__(self, "_lcm", lcm)
        object.__setattr__(self, "_cum_num", tuple(cum))

    def affine(self, i: int) -> tuple:
        # head digits over H, the lcm of the head denominators; tail digit
        # k+1+j over H rd^(j+1), with prefix = 1 - (1-s) r^j and r = rn/rd
        self._check_digit(i)
        cum, h = self._cum_num, self._lcm
        if i <= len(self.head):
            return cum[i - 1], cum[i] - cum[i - 1], h
        j = i - len(self.head) - 1
        rn, rd = self.tail_ratio.numerator, self.tail_ratio.denominator
        rest = (h - cum[-1]) * rn**j
        l = h * rd ** (j + 1)
        return l - rest * rd, rest * (rd - rn), l

    def max_p(self) -> Fraction:
        # the tail decreases from its head term, so only the tail head competes
        return max(self.head + (self.pmf(len(self.head) + 1),))

    def digit_of(self, x: Fraction) -> int:
        num, den = x.numerator, x.denominator
        cum, h = self._cum_num, self._lcm
        for i in range(1, len(self.head) + 1):
            if num * h < cum[i] * den:
                return i
        # tail: smallest j >= 1 with (1-s) r^j < 1 - x, digit is len(head) + j;
        # 1 - s = an/ad and 1 - x = bn/bd, compared by cross-multiplication
        an, ad = h - cum[-1], h
        rn, rd = self.tail_ratio.numerator, self.tail_ratio.denominator
        if rn > (series.MAX_DIGIT_SUM - len(self.head)) * (rd - rn):
            # the geometric bound with (1-x)/(1-s) for 1-x, j > (x-s)/(1-s) * r/(1-r),
            # can pass the budget only when k + r/(1-r) does; x - s = (num*h - cum_k*den)/(den*h)
            _check_digit_bound(
                len(self.head) + (num * h - cum[-1] * den) * rn // (den * an * (rd - rn)) + 1)
        bn, bd = den - num, den
        j, rpn, rpd = 1, rn, rd
        while an * rpn * bd >= ad * rpd * bn:
            rpn *= rn
            rpd *= rd
            j += 1
        return len(self.head) + j

    def branch_primes(self) -> tuple:
        # L is H or H rd^(j+1); Q is a head numerator, or (H - cum_k) rn^j (rd - rn)
        # for tail digit k+1+j, whose gcd over j >= 0 is its j = 0 value
        h, cum = self._lcm, self._cum_num
        rn, rd = self.tail_ratio.numerator, self.tail_ratio.denominator
        primes = h * rd
        w = math.gcd(*(b - a for a, b in zip(cum[1:], cum[2:])), (h - cum[-1]) * (rd - rn))
        return primes, w // _smooth_part(w, primes)

    def spec_string(self) -> str:
        probs = ",".join(str(p) for p in self.head)
        return f"custom:{probs};{self.tail_ratio}"


def parse_distribution(text: str) -> Distribution:
    """Parse `dyadic`, `geometric:<q>`, or `custom:<p1,p2,...;r>`.

    Numbers are exact rational literals. Syntax problems raise ParseError;
    out-of-range parameters raise DomainError from the constructors.
    """
    s = text.strip()
    if s == "dyadic":
        return Dyadic()
    if s.startswith("geometric:"):
        return Geometric(parse_rational(s[len("geometric:") :]))
    if s.startswith("custom:"):
        body = s[len("custom:") :]
        if body.count(";") != 1:
            raise ParseError(f"custom spec needs one ';' before the tail ratio: {text!r}")
        head_text, ratio_text = body.split(";")
        if not head_text.strip():
            raise ParseError(f"custom spec needs at least one head probability: {text!r}")
        head = tuple(parse_rational(p) for p in head_text.split(","))
        return CustomPrefixTail(head, parse_rational(ratio_text))
    raise ParseError(f"unknown distribution spec: {text!r}")


# imported last because series imports this module through expansion
from . import series  # noqa: E402
