"""Probability distributions on the positive integers with exact rational mass.

Three families keep every quantity rational: the dyadic distribution
p_i = 2^-i, geometric distributions with rational success probability, and
an explicit head of probabilities completed by a geometric tail. All three
are one shape, and `head_tail() -> (head, rest, r)` names it: the masses
p_1..p_k of the head, the mass rest = 1 - (p_1 + ... + p_k) left for the
tail, and the tail ratio r, so that p_(k+1+j) = rest (1-r) r^j. `Dyadic` is
the tail with r = 1/2 and no head, and `Geometric(q)` the tail with
r = 1 - q and no head. The mass transform and the decoders' word tables
read the distribution through `head_tail()` alone.

`Distribution` is the one core: `_set_law` keeps the law as plain integers
(H, the lcm of the head denominators; the head's cumulative sums over H;
rest*H; r = rn/rd), and each integer method has one implementation on
them. `affine(i) -> (P, Q, L)` gives prefix(i) = P/L (cumulative mass
strictly below digit i) and pmf(i) = Q/L from closed forms; `prefix` and
`pmf` are built from it, and the codec composes the unreduced triples
directly. Without a head they are the families' own closed forms as
integers: (2^i - 2, 1, 2^i) for `Dyadic`, (t^i - t u^(i-1), s u^(i-1), t^i)
for `Geometric(s/t)` with u = t - s. `affine` is the one builder of a
branch triple. `_digit(n, d, bits=1) -> c` is the exact digit search on
plain integers, the digit c of n/d, held to the budget in c*bits;
`digit_of` returns it, and the decoders and the Monte Carlo kernel take
affine(c) for each digit it finds. `branch_primes() -> (S, W)` gives the
primes that the walk tracks (see `expansion`). The shared search lifts
its powers by squares, O(log c) products for digit c, and never past the
powers that affine(c) may build. `Dyadic._digit` is the one override, a
search by bit lengths, with no products at all.

Instances are immutable and hashable; all operations are pure. Equality,
hashing and repr come from one definition in the `_Frozen` base, keyed on
each family's public fields, so two instances are equal exactly when they
are of the same family with equal parameters: `Dyadic() == Dyadic()`, while
`Dyadic() != Geometric(Fraction(1, 2))` although the two laws agree.
"""

import math
from fractions import Fraction

from .errors import DomainError, ParseError, ResourceLimitError
from .fmt import int_text, parse_rational, rational_text

# 2^25 bits (4 MB) for one power in a branch triple: tail digit k + j's triple
# holds rd^j, held to j * bit_length(rd) <= MAX_POWER_BITS before any pow. The
# digit budget already admits 3^(2^24), 2.7 * 10^7 bits, whose pow takes 5.4 s;
# a pow at this bound takes 6.5-7.5 s, and at 2^26 bits 19-22 s (rd = 10^8 and
# 2^61 - 1; Python 3.11.7, 2-CPU x86-64 host). Laws with rd <= 3 reach the
# digit budget first; with rd of 4 to 7, digits above 2^25 / 3 are refused
MAX_POWER_BITS = 1 << 25


class _Frozen:
    """An immutable value with slots: ==, hash and repr over the public `_fields`.

    Instances compare equal only to instances of the same class, hash as the
    tuple of their fields and print as `Name(field=value, ...)`. Assigning or
    deleting an attribute raises AttributeError, so constructors set their
    slots through object.__setattr__.
    """

    __slots__ = ()
    _fields = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not through setattr
        return self.__class__, self._key()


class Distribution(_Frozen):
    """A finite head of digit masses followed by a geometric tail, as plain ints.

    `affine`, `_digit`, `branch_primes`, `max_p` and `head_tail` are
    implemented once, here; the families supply their constructors, public
    fields and spec strings (see the module docstring). `Dyadic` alone
    overrides `_digit`, because the shared search multiplies integers of
    about c bits for digit c and its own reads c from two bit lengths.
    """

    __slots__ = ("_law", "_cum", "_head_affine", "_tail", "_hash")

    def _set_law(self, head: tuple, ratio: Fraction) -> None:
        """Set the slots for head masses `head` and tail ratio `ratio` = rn/rd.

        H is the lcm of the head denominators, _cum[i-1] == prefix(i) * H for
        1 <= i <= k+1, and rest = H - cum_k. `_tail` is
        (H, rest, rn, rd, rest*rn, H*rd, rd - rn, J, wide), one slot that the
        integer methods unpack at once. rest*rn, H*rd and rd - rn are the tail
        search's first terms. J = MAX_POWER_BITS // bit_length(rd), read here,
        is the last tail index j whose power rd^j the budget admits, and
        `wide` is set when a digit search's lower bound, below rd/(rd - rn),
        can pass it.
        """
        h = math.lcm(*(p.denominator for p in head))
        cum = [0]
        for p in head:
            cum.append(cum[-1] + p.numerator * (h // p.denominator))
        rest, rn, rd = h - cum[-1], ratio.numerator, ratio.denominator
        object.__setattr__(self, "_law", (head, Fraction(rest, h), ratio))
        object.__setattr__(self, "_cum", tuple(cum))
        object.__setattr__(self, "_head_affine", tuple(
            (a, b - a, h) for a, b in zip(cum, cum[1:])))
        last_j = MAX_POWER_BITS // rd.bit_length()
        object.__setattr__(self, "_tail", (h, rest, rn, rd, rest * rn, h * rd, rd - rn,
                                           last_j, rd > last_j * (rd - rn)))
        object.__setattr__(self, "_hash", hash(self._key()))

    def __eq__(self, other):
        # the stored integers determine the parameters of a family, so they are
        # compared instead of the Fractions of _key(): a word-table cache hit runs this
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._cum == other._cum and self._tail == other._tail

    def __hash__(self) -> int:
        # the hash of the public fields, stored: the decoders' table caches hash on every call
        return self._hash

    def affine(self, i: int) -> tuple:
        """Integers (P, Q, L) with prefix(i) == P/L and pmf(i) == Q/L, for i >= 1.

        L > 0 and the triple need not be reduced. Digit i's branch of the
        expansion is the affine map y -> (P + Q*y) / L. Raises
        ResourceLimitError when i passes series.MAX_DIGIT_SUM, or when tail
        digit k + j needs a power rd^j with j * bit_length(rd) above
        MAX_POWER_BITS, before any power is built.
        """
        if not 0 < i <= series.MAX_DIGIT_SUM:
            if i < 1:
                raise DomainError(f"digit index must be >= 1, got {i}")
            # the triple holds powers with exponent i: a one-digit word over budget
            series.check_digit_sum(i)
        head = self._head_affine
        if i <= len(head):
            return head[i - 1]
        # tail digit k+j over H rd^j, with prefix = 1 - (1-s) r^(j-1) and r = rn/rd
        h, rest, rn, rd, _, _, drn, last_j, _ = self._tail
        j = i - len(head)
        if j > last_j:
            raise ResourceLimitError(f"digit {int_text(i)}'s {_power_text(j, rd)}")
        tail = rest * rn ** (j - 1)
        l = h * rd**j
        return l - tail * rd, tail * drn, l

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
        # the tail decreases from its first term, so only that term competes with the head
        head, rest, r = self._law
        return max(head + (rest * (1 - r),))

    def digit_of(self, x: Fraction) -> int:
        """The unique digit c with prefix(c) <= x < prefix(c+1).

        Callers guarantee 0 <= x < 1. This is `_digit`'s search, so it
        raises ResourceLimitError where affine(c) would.
        """
        return self._digit(x.numerator, x.denominator)

    def _digit(self, n: int, d: int, bits: int = 1) -> int:
        """The digit c of the point n/d with 0 <= n < d.

        The search compares integer powers exactly, with no logarithms or
        floats, by `_steps_to_flip`'s binary lifting. It raises
        ResourceLimitError when a lower bound on c times `bits` (the least
        number of bits a tail digit adds to its power) passes
        series.MAX_DIGIT_SUM, or when the same bound's power passes
        MAX_POWER_BITS, before any power is built. Whatever `bits` is, it
        also raises where affine(c) would, when c itself passes either
        budget, with no power past those of the last digit affine builds.
        """
        h, rest, rn, rd, rest_rn, h_rd, drn, last_j, wide = self._tail
        k = len(self._head_affine)
        if k:
            cum = self._cum
            nh = n * h
            for i in range(1, k + 1):
                if nh < cum[i] * d:
                    return i
        # tail: smallest j >= 1 with (1-s) r^j < 1 - x for x = n/d, digit k + j;
        # 1 - s = rest/H, compared by cross-multiplication
        if wide or (rn + (k + 1) * drn) * bits > series.MAX_DIGIT_SUM * drn:
            # the geometric bound with (1-x)/(1-s) for 1-x, j > (x-s)/(1-s) * r/(1-r),
            # is below 1 + r/(1-r) = rd/(rd - rn), so digit k + j can pass either budget
            # only when that bound does; x - s = (n*H - cum_k*d)/(d*H)
            j = (n * h - self._cum[-1] * d) * rn // (d * rest * drn) + 1
            _check_digit_bound(k + j, bits)
            if j > last_j:
                raise ResourceLimitError(f"the digit at this point is at least "
                                         f"{int_text(k + j)}, whose {_power_text(j, rd)}")
        # digit k + j for the least j with rest rn^j d < H rd^j (d - n); affine
        # builds it for j <= last_j and k + j <= MAX_DIGIT_SUM, so j - 1 <= most
        lo, hi = rest_rn * d, h_rd * (d - n)
        most = min(last_j, series.MAX_DIGIT_SUM - k) - 1
        e = _steps_to_flip(lo, hi, rn, rd, most) if lo >= hi else 0
        if e <= most:
            return k + 1 + e
        j = most + 2
        _check_digit_bound(k + j)
        raise ResourceLimitError(f"the digit at this point is at least "
                                 f"{int_text(k + j)}, whose {_power_text(j, rd)}")

    def branch_primes(self) -> tuple:
        """Integers (S, W) naming the primes of the branch denominators.

        The prime factors of S are the primes that can divide some L of
        affine(c) = (P, Q, L), so every L is S-smooth. W is the part of
        gcd(Q(c) for c >= 2) that is coprime to S. A prime of W never leaves
        a remainder's denominator once there, and a digit cycle cannot keep
        its exponent fixed, so it certifies an aperiodic stream.
        """
        # L is H or H rd^j; Q(k+j) = rest rn^(j-1) (rd - rn) is a multiple of
        # Q(k+2) for j >= 2, so the gcd runs over Q(2), ..., Q(k+2)
        _, rest, _, _, rest_rn, primes, drn, _, _ = self._tail
        qs = tuple(q for _, q, _ in self._head_affine) + (rest * drn, rest_rn * drn)
        w = math.gcd(*qs[1:])
        return primes, w // _smooth_part(w, primes)

    def head_tail(self) -> tuple:
        """(head, rest, r): head masses p_1..p_k, the tail's mass 1 - sum(head), its ratio.

        Digit k+1+j has mass rest * (1-r) * r^j for j >= 0, so the masses
        strictly decrease from digit k+1 on; the head's need not.
        """
        return self._law

    def mass_transform(self, a: int, z: Fraction) -> Fraction:
        """T(a, z), the exact sum of pmf(c)^a * z^c over all digits c.

        For integers a >= 1 and rationals 0 <= z <= 1. The head is summed
        term by term, and the tail, p_(k+1+j) = rest (1-r) r^j, is one
        geometric series: (rest (1-r))^a z^(k+1) / (1 - r^a z).
        """
        z = Fraction(z)
        if not (isinstance(a, int) and a >= 1 and 0 <= z <= 1):
            raise DomainError(f"mass transform needs an integer a >= 1 and 0 <= z <= 1, "
                              f"got a={a}, z={z}")
        head, rest, r = self.head_tail()
        total = sum((p**a * z**c for c, p in enumerate(head, start=1)), Fraction(0))
        return total + (rest * (1 - r)) ** a * z ** (len(head) + 1) / (1 - r**a * z)

    def spec_string(self) -> str:
        """The textual form accepted by parse_distribution."""
        raise NotImplementedError


def _smooth_part(n: int, primes: int) -> int:
    """The largest divisor of n > 0 whose primes all divide `primes`."""
    part = 1
    g = math.gcd(n, primes)
    while g > 1:
        n //= g
        part *= g
        g = math.gcd(n, g)
    return part


def _steps_to_flip(lo: int, hi: int, rn: int, rd: int, most: int) -> int:
    """The least e >= 1 with lo * rn^e < hi * rd^e, or most + 1 if it passes `most`.

    For lo >= hi > 0 and 0 < rn < rd; the test holds from some e on, since
    rn/rd < 1. Stepping by rn and rd would make e products of growing
    integers, so digit c would cost time quadratic in c; binary lifting
    makes O(log e). The test at e = 1 costs two products, as a step would.
    Past it, two bit lengths refuse first: lo/hi > 2^g for
    g = bit_length(lo) - bit_length(hi) - 1, and ln(rd/rn) <= (rd - rn)/rn
    with ln 2 > 693/1000, so e > 693 g rn / (1000 (rd - rn)). While the
    test fails at e + 2^i <= most, e grows by 2^i and rn, rd are squared;
    once it holds there, or e + 2^i passes most, the kept powers
    rn^(2^j), rd^(2^j) for j < i take e's bits from the top down. No test
    is made past most, so no power passes rn^most, rd^most. Every
    comparison is exact, on integers.
    """
    up_lo, up_hi = lo * rn, hi * rd
    if up_lo < up_hi or most < 1:
        return 1
    if (lo.bit_length() - hi.bit_length() - 1) * 693 * rn >= most * 1000 * (rd - rn):
        return most + 1
    # the test fails at e, and powers[-1] holds rn^(step/2), rd^(step/2)
    e, step, powers = 1, 2, [(rn, rd)]
    lo, hi = up_lo, up_hi
    while e + step <= most:
        rn, rd = rn * rn, rd * rd
        up_lo, up_hi = lo * rn, hi * rd
        if up_lo < up_hi:
            break
        e += step
        step <<= 1
        powers.append((rn, rd))
        lo, hi = up_lo, up_hi
    # the test fails at e, and holds at e + step or that passes most
    while powers:
        step >>= 1
        rn, rd = powers.pop()
        if e + step <= most:
            up_lo, up_hi = lo * rn, hi * rd
            if up_lo >= up_hi:
                e += step
                lo, hi = up_lo, up_hi
    return e + 1


def _power_text(j: int, rd: int) -> str:
    """The end of the message that refuses the power rd^j of a branch triple."""
    return (f"branch triple needs a power of about {int_text(j * rd.bit_length())} bits, "
            f"above the budget of {MAX_POWER_BITS} bits for one power")


def _check_digit_bound(bound: int, bits: int = 1) -> None:
    """Raise ResourceLimitError when a lower bound on a digit passes the budget.

    A search whose power gains at least `bits` bits per digit is held to the
    budget in those bits, bound * bits.
    """
    if bound * bits > series.MAX_DIGIT_SUM:
        power = "" if bits == 1 else f", so its power has at least {int_text(bound * bits)} bits"
        raise ResourceLimitError(
            f"the digit at this point is at least {int_text(bound)}{power}, above the budget of "
            f"{series.MAX_DIGIT_SUM} for an exact value"
        )


class Dyadic(Distribution):
    """p_i = 2^-i, so prefix(i) = 1 - 2^(1-i): the tail with r = 1/2 and no head."""

    __slots__ = ()

    def __init__(self) -> None:
        self._set_law((), Fraction(1, 2))

    def _digit(self, n: int, d: int, bits: int = 1) -> int:
        """The shared search's result, read from two bit lengths.

        The shared tail search builds powers of about c bits for digit c.
        At x = 1 - 2^-100000, whose digit is 100 001, stepping them one
        factor per digit took 1.2 s and this search 0.02 ms (Python 3.11.7
        on a 2-CPU x86-64 host). A power of 2 gains one bit a digit, so
        `bits` is 1.
        """
        # smallest c with 2^c (d - n) > d: with b = d - n, 2^c b has
        # c + bit_length(b) bits, so c is bit_length(d) - bit_length(b) or one more
        b = d - n
        c = d.bit_length() - b.bit_length()
        if b << c <= d:
            c += 1
        if c > series.MAX_DIGIT_SUM:
            series.check_digit_sum(c)
        return c

    def spec_string(self) -> str:
        return "dyadic"


class Geometric(Distribution):
    """p_i = q (1-q)^(i-1) for a rational q in (0,1): the tail with r = 1 - q and no head."""

    __slots__ = ("q",)
    _fields = ("q",)

    def __init__(self, q: Fraction) -> None:
        q = Fraction(q)
        object.__setattr__(self, "q", q)
        if not 0 < q < 1:
            raise DomainError("geometric parameter must lie strictly in (0,1), "
                              f"got {rational_text(q)}")
        self._set_law((), 1 - q)

    def spec_string(self) -> str:
        return f"geometric:{rational_text(self.q)}"


class CustomPrefixTail(Distribution):
    """Explicit head probabilities completed by a geometric tail.

    With head (p_1, ..., p_k), k >= 1, s = p_1 + ... + p_k, and tail ratio
    r, the digits beyond the head carry p_{k+1+j} = (1-s)(1-r) r^j for
    j >= 0. The tail sums to 1 - s, so total mass is exactly 1 by
    construction.
    """

    __slots__ = ("head", "tail_ratio")
    _fields = ("head", "tail_ratio")

    def __init__(self, head: tuple, tail_ratio: Fraction) -> None:
        head = tuple(Fraction(p) for p in head)
        ratio = Fraction(tail_ratio)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail_ratio", ratio)
        if not 0 < ratio < 1:
            raise DomainError("tail ratio must lie strictly in (0,1), "
                              f"got {rational_text(ratio)}")
        # a head-less tail is `Geometric`, and "custom:;r" is no spec string
        if not head:
            raise DomainError("a custom head needs at least one probability")
        for p in head:
            if not 0 < p < 1:
                raise DomainError("head probabilities must lie strictly in (0,1), "
                                  f"got {rational_text(p)}")
        total = sum(head, Fraction(0))
        if total >= 1:
            raise DomainError(f"head probabilities must sum below 1, got {rational_text(total)}")
        self._set_law(head, ratio)

    def spec_string(self) -> str:
        probs = ",".join(map(rational_text, self.head))
        return f"custom:{probs};{rational_text(self.tail_ratio)}"


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
