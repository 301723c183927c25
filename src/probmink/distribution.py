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
for `Geometric(s/t)` with u = t - s. `_branch(n, d) -> (c, P, Q, L)` is the
exact digit search on plain integers: the digit c of n/d and affine(c),
built from the powers rd^j and rn^(j-1) that the search already holds for
tail digit k + j. `digit_of` and the decoder's periodicity walk both run
it. `branch_primes() -> (S, W)` gives the primes that the walk tracks (see
`expansion`). `Dyadic._branch` is the one override, a search by bit
lengths: the shared search makes about c multiplications for digit c.

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

    `affine`, `_branch`, `branch_primes`, `max_p` and `head_tail` are
    implemented once, here; the families supply their constructors, public
    fields and spec strings (see the module docstring). `Dyadic` alone
    overrides `_branch`, because the shared search makes about c
    multiplications for digit c and its own reads c from two bit lengths.
    """

    __slots__ = ("_law", "_cum", "_head_affine", "_tail", "_hash")

    def _set_law(self, head: tuple, ratio: Fraction) -> None:
        """Set the slots for head masses `head` and tail ratio `ratio` = rn/rd.

        H is the lcm of the head denominators, _cum[i-1] == prefix(i) * H for
        1 <= i <= k+1, and rest = H - cum_k. `_tail` is
        (H, rest, rn, rd, rest*rn, H*rd, rd - rn), one slot that the integer
        methods unpack at once; the last three are the tail search's first
        terms.
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
        object.__setattr__(self, "_tail", (h, rest, rn, rd, rest * rn, h * rd, rd - rn))
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
        expansion is the affine map y -> (P + Q*y) / L.
        """
        if not 0 < i <= series.MAX_DIGIT_SUM:
            self._digit_error(i)
        head = self._head_affine
        if i <= len(head):
            return head[i - 1]
        # tail digit k+j over H rd^j, with prefix = 1 - (1-s) r^(j-1) and r = rn/rd
        h, rest, rn, rd, _, _, drn = self._tail
        j = i - len(head)
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

        Callers guarantee 0 <= x < 1. This is `_branch`'s search, so it
        raises ResourceLimitError where affine(c) would.
        """
        return self._branch(x.numerator, x.denominator)[0]

    def _branch(self, n: int, d: int) -> tuple:
        """(c, P, Q, L) for the point n/d with 0 <= n < d: its digit c and affine(c).

        The search compares integer powers exactly, with no logarithms or
        floats, and the triple reuses its last powers (see the module
        docstring). It raises ResourceLimitError when a lower bound on c
        passes series.MAX_DIGIT_SUM, before any power is built, and when c
        itself does, as affine(c) would.
        """
        h, rest, rn, rd, rest_rn, h_rd, drn = self._tail
        head = self._head_affine
        if head:
            cum = self._cum
            nh = n * h
            for i, triple in enumerate(head, start=1):
                if nh < cum[i] * d:
                    return (i, *triple)
        # tail: smallest j >= 1 with (1-s) r^j < 1 - x for x = n/d, digit k + j;
        # 1 - s = rest/H, compared by cross-multiplication
        k = len(head)
        if rn > (series.MAX_DIGIT_SUM - k) * drn:
            # the geometric bound with (1-x)/(1-s) for 1-x, j > (x-s)/(1-s) * r/(1-r),
            # can pass the budget only when k + r/(1-r) does; x - s = (n*H - cum_k*d)/(d*H)
            _check_digit_bound(k + (n * h - self._cum[-1] * d) * rn // (d * rest * drn) + 1)
        # lo = rest rn^j d and hi = H rd^j (d - n) grow by one small factor per digit,
        # and so do affine(k+j)'s factors tail = rest rn^(j-1) and l = H rd^j
        j, tail, l = 1, rest, h_rd
        lo, hi = rest_rn * d, h_rd * (d - n)
        while lo >= hi:
            tail *= rn
            l *= rd
            lo *= rn
            hi *= rd
            j += 1
        c = k + j
        if c > series.MAX_DIGIT_SUM:
            series.check_digit_sum(c)
        return c, l - tail * rd, tail * drn, l

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
        _, rest, _, _, rest_rn, primes, drn = self._tail
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

    @staticmethod
    def _digit_error(i: int) -> None:
        """Raise for a digit index outside 1..series.MAX_DIGIT_SUM."""
        if i < 1:
            raise DomainError(f"digit index must be >= 1, got {i}")
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

    def _branch(self, n: int, d: int) -> tuple:
        """The shared search's result, read from two bit lengths.

        The shared tail search multiplies its powers once per digit, so
        digit c costs about c multiplications of growing integers. At
        x = 1 - 2^-100000, whose digit is 100 001, that search took 1.2 s
        and this one 0.02 ms (Python 3.11.7 on a 2-CPU x86-64 host).
        """
        # smallest c with 2^c (d - n) > d: with b = d - n, 2^c b has
        # c + bit_length(b) bits, so c is bit_length(d) - bit_length(b) or one more
        b = d - n
        c = d.bit_length() - b.bit_length()
        if b << c <= d:
            c += 1
        if c > series.MAX_DIGIT_SUM:
            series.check_digit_sum(c)
        l = 1 << c
        return c, l - 2, 1, l

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
