"""Digit expansions of [0,1) driven by a distribution on positive integers.

A point corresponds to a digit stream (i_1, i_2, ...) through the affine
recursion x = prefix(i_1) + pmf(i_1) * x', where x' carries the remaining
digits. Eventually periodic streams encode to exact rationals by solving
the period's affine fixed point; decoding inverts one digit at a time with
exact arithmetic. Cylinders are the half-open intervals of points sharing
a fixed digit prefix.

The codec runs on the distribution's integer triples: digit d's branch is
y -> (P + Q*y) / L with (P, Q, L) = dist.affine(d). Encoding composes a
word's branches into one unreduced map y -> (A + B*y) / D, with no gcd;
only the result is reduced. The map is the integer matrix [[B, A], [0, D]],
so a word's map is the product of its digits' matrices: the left fold
(A, B, D) <- (A*L + B*P, B*Q, D*L) and the product taken by balanced halves
(Haible and Papanikolaou's binary splitting) give the same integers, and
the halves multiply operands of equal size, which is near-linear where the
fold is quadratic in the word's length.

Decoding is one integer step per digit: `shift` takes x = n/d to
y = (n*L - P*d) / (d*Q). It reduces twice, first by gcd(L, d) and then by
the gcd of the new numerator with Q, so every reduction is a gcd against
the small integer L or Q, never between two large ones. The result is
then in lowest terms by construction and becomes one Fraction with no
further gcd.

`decode` applies Lehmer's idea for Euclid on long integers: run the steps
on a short leading part, then apply their product to the long operand
once. While the remainder x = n/d has a denominator of more than
_BATCH_BITS bits, a point y0 <= x of _LEAD_BITS bits is cut from x's
leading bits and decoded until its word's measure B/D falls below
2^-_WORD_BITS. y0 is read up to _TABLE_DIGITS digits per lookup in the
word table described below, each table word certified on y0 by the
unreduced test 0 <= yn*D - A*yd < yd*B, and one integer search
`dist._branch` per digit where a lookup misses. Every update is left
unreduced, as (yn*D - A*yd) / (yd*B) or (yn*L - P*yd) / (yd*Q): only
y0's digits are used, and its gcds would cost more than the few bits
they save. The word's cylinder [A/D, (A+B)/D) holds exactly the points
whose digits start with the word, so the integer test
A*d <= n*D < (A+B)*d certifies that the word is x's own, and x's
remainder after it is (n*D - A*d) / (d*B), the same rational the plain
loop reaches. It is reduced as `shift` reduces, by gcd(D, d) and then by
the gcd of the new numerator with B, with D and B short, so it is the
plain loop's remainder bit for bit. x and y0 differ by less than
2^-_LEAD_BITS relative to x, so only a cylinder end between them fails
the test; then a bisection over the prefixes that end at a table word's
or a searched digit's boundary finds the longest certified one. A
shorter certified prefix is still x's own digits, and the next batch
picks up the rest. A batch touches the long remainder a fixed number of
times, where the plain loop runs one full-size step per digit.

A remainder of at most _BATCH_BITS bits is decoded up to _TABLE_DIGITS
digits per lookup, as table-driven decoders of prefix codes read several
symbols at once (Moffat and Turpin 1997): the expansion is an
arithmetic-code decoder for the distribution. The distribution's word
table (`_word_table`) holds the words of up to _TABLE_DIGITS digits whose
cylinders have measure at least 2^-_TABLE_MEASURE_BITS, as disjoint
intervals sorted by their left ends over a common denominator T: each
word of _TABLE_DIGITS digits is one interval, and a shorter word holds
the parts of its cylinder that no longer word of the table covers. A
lookup is one bisect_right(lefts, n*T // d), and it finds the longest
word in the table that x's digits start with. A lookup cannot return a
wrong digit: the row it finds is only a candidate, since x's first digit
may have no row, until the test 0 <= n*D - A*d < d*B, which holds exactly
when x lies in the word's cylinder, certifies it. x then steps to the
unreduced pair (n*D - A*d, d*B); one gcd reduces it before a `shift`
(after a failed test, which costs one plain step) and at the end of each
run of _PLAIN_RUN digits. The trailing-ones rule: digit 1 fixes 0 and
maps a nonzero remainder to a nonzero one, so when the remainder after a
word is 0 the stream's first zero remainder came after the word with its
trailing 1s removed, and every later digit is 1. `decode` needs no such
rule, since its remainder after the word is the same either way; the
geometric Monte Carlo walk, which closes a sample at the first zero, uses
it (see `integral`).

`decode_periodic` runs the same step on a remainder n/d held as d = e*f,
as plain integers. Each step is one call of the distribution's integer
digit search, `dist._branch(n, d) -> (c, P, Q, L)`, which returns the
digit and its triple together, then the update of n, e and f below; no
Fraction is built. The distribution's `branch_primes()` gives (S, W):
every branch denominator L is S-smooth, and W is the part of gcd(Q(c)
for c >= 2) that is coprime to S. f collects the primes of S in d and e the rest, so
gcd(L, d) = gcd(L, f) runs on small integers. The division by Q is one
divmod, and its usual zero remainder needs no gcd. A prime p outside S
divides no L and, once in d, not the new numerator, so v_p(d) grows by
v_p(Q(c)) at each digit c and never falls: e only ever gains primes.

The lemma: if a prime p of W divides some remainder's denominator, the
stream is not eventually periodic. A cycle would leave v_p fixed, so it
could use only digits with p not dividing Q(c), which is digit 1 alone;
but the cycle of digit 1 is the remainder 0, whose denominator p does not
divide. The converse, for a law with no head, where every prime of Q(c)
outside S lies in W: if no prime of W ever arrives, e stays fixed and f
only loses primes, so every remainder's denominator divides the first
one, and a period closes within that many steps. For such a law (`Dyadic`
and `Geometric`) the walk therefore decides periodicity, given the steps.
Under a custom head some Q(c) can hold primes outside S and W, and W may
be 1, so the walk certifies some of its points and may run out of steps
on others.

The exact walk keeps every remainder since the last clear, and each of its
steps costs as much as the remainder, so a long period costs time
quadratic in its length and memory to match. A point whose denominator has
more than _WALK_BATCH_BITS bits is walked in batches instead, which win
over the exact walk once the remainders stay longer than _BATCH_BITS
bits: its digits come from `decode`'s certified batches, each reading
the short point through the word table, and each remainder r_k is kept
only as its fingerprint, its residue modulo the 61-bit safe prime
p = _PRINT_MOD (Karp and Rabin's fingerprints). A digit with triple
(P, Q, L) updates it as r <- (r*L - P) * Q^-1 mod p. Since ord_p(2) is
far above the digit budget (see _PRINT_MOD), p divides no factor 2^s - 1
of a dyadic period's point.

No true repeat is missed. When p divides neither x's denominator nor any
Q, it divides no remainder's denominator, since each divides the previous
one times Q; then every remainder has a residue, and equal rationals have
equal residues. So the first fingerprint repeat (j, k) comes no later than
the exact walk's first repeat.

No false repeat is returned. The walk keeps each batch's first position
and x's exact remainder there, one rational per batch. A hit (j, k)
rebuilds r_j and r_k, each from the last batch start s at or before its
position, by `_remainder` under the composed map of the digits from s to
it, at most one batch's. `_remainder` tests that the remainder at s lies
in those digits' cylinder, so what it returns is T^j x, or T^k x,
exactly. The hit is returned only when r_j == r_k, the exact walk's own
repeat test. Let (mu, mu + lambda) be the exact walk's first repeat:
r_0, ..., r_(mu+lambda-1) are distinct. A hit with k < mu + lambda
fails the test. At k = mu + lambda, j is the first position with r_k's
fingerprint, and the test passes only if j = mu. So a passing hit is
(mu, mu + lambda): its period is primitive and its preperiod absorbs no
digit, the exact walk's stream. A failed test, p dividing x's
denominator, or p dividing some Q hands the point to the exact walk.

The witness is tested on each batch's end remainder: a prime of W never
leaves a denominator, so the end remainder holds one exactly when some
remainder of the batch does, and that one batch is walked again with
exact steps to find the first. A digit over the budget reaches x's own
`shift`, as in `decode`, and the walk stops at max_steps digits. So the
batched walk's DigitSeq, Aperiodic, NotDetected and every error are the
exact walk's, bit for bit.
"""

import functools
import math
import re
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .distribution import Distribution, _Frozen, _smooth_part
from .errors import AperiodicError, DomainError, ParseError, ProbminkError, ResourceLimitError
from .fmt import parse_ints, rational_text


def _int_tuple(values) -> tuple:
    """tuple(map(int, values)), built at its exact size.

    tuple() of an iterator with no length hint allocates ten slots and then
    resizes, so every call leaves one more tuple on CPython's free list of
    the final size, and only a full garbage collection empties those lists.
    Run 200 times in one process, the graph_sweep benchmark's ops peaked at
    22.5 MB with tuple(map(...)) here and 18.9 MB with this (Python 3.11.7).
    """
    return tuple([*map(int, values)])


class DigitSeq(_Frozen):
    """Eventually periodic stream of digits >= 1, held in canonical form.

    Canonical means the period is primitive (not a repetition of a shorter
    word) and no trailing preperiod digit can be absorbed by rotating the
    period. Two canonical forms are equal exactly when the streams they
    denote are equal, so comparing (preperiod, period) decides stream
    equality: that is what == and hash do.

    A terminating expansion is the stream with period (1,): the digit-1
    branch fixes 0, so trailing ones add nothing to the encoded value.
    """

    _fields = __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: tuple, period: tuple) -> None:
        # bench/spans.py times canonicalisation as calls of __post_init__
        self.__post_init__(preperiod, period)

    def __post_init__(self, preperiod: tuple, period: tuple) -> None:
        """Canonicalise the stream and set both fields."""
        pre = _int_tuple(preperiod)
        per = _int_tuple(period)
        if not per:
            raise DomainError("period must be nonempty; a terminating stream has period (1,)")
        digits = pre + per
        if min(digits) < 1:
            raise DomainError(f"digits must be >= 1, got {next(d for d in digits if d < 1)}")
        try:
            # digits below 256 fit in bytes, and the primitive root is as long
            # as the first offset at which the period occurs in itself doubled
            b = bytes(per)
            per = per[: (b + b).find(b, 1)]
        except ValueError:
            n = len(per)
            for d in range(1, n + 1):
                if n % d == 0 and per == per[:d] * (n // d):
                    per = per[:d]
                    break
        # absorbing one trailing preperiod digit rotates the period right by
        # one, so the k-th digit from the end meets period digit -1-(k mod p):
        # count the absorbable digits in one backward scan, then cut and rotate once
        p, m = len(per), len(pre)
        k = 0
        while k < m and pre[m - 1 - k] == per[-1 - k % p]:
            k += 1
        if k:
            r = k % p
            pre, per = pre[: m - k], per[p - r :] + per[: p - r]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def digits(self, n: int) -> tuple:
        """The first n digits of the stream."""
        if n < 0:
            raise DomainError(f"digit count must be >= 0, got {n}")
        out = list(self.preperiod[:n])
        k = 0
        while len(out) < n:
            out.append(self.period[k % len(self.period)])
            k += 1
        return tuple(out)

    def shifted(self, n: int = 1) -> "DigitSeq":
        """The stream with its first n digits dropped."""
        if n < 0:
            raise DomainError(f"shift count must be >= 0, got {n}")
        if n <= len(self.preperiod):
            return DigitSeq(self.preperiod[n:], self.period)
        r = (n - len(self.preperiod)) % len(self.period)
        return DigitSeq((), self.period[r:] + self.period[:r])

    def prepend(self, digit: int) -> "DigitSeq":
        """The stream with one digit stuck on the front."""
        return DigitSeq((digit,) + self.preperiod, self.period)

    def __str__(self) -> str:
        pre = ",".join(map(str, self.preperiod))
        per = ",".join(map(str, self.period))
        return f"{pre}({per})"


class NotDetected(NamedTuple):
    """No remainder repeated within the step budget; holds the digits found."""

    prefix: tuple


class Aperiodic(NamedTuple):
    """Proof that a point's digit stream is not eventually periodic.

    `prefix` holds the first `step` digits. `witness` > 1 divides W of the
    distribution's `branch_primes()`, so each of its primes p divides no
    branch denominator L and every Q(c) with c >= 2. It divides the
    denominator of the remainder after `prefix` and of every later one,
    because v_p of the denominator grows by v_p(Q(c)) at each digit c and
    never falls. A period would have to use only digit 1, whose cycle is
    the remainder 0, so none exists. The series then has no eventually
    periodic run lengths, and M at the point is irrational.
    """

    prefix: tuple
    witness: int
    step: int

    def error(self, x: Fraction) -> AperiodicError:
        """The AperiodicError for point x, with M's enclosure from `prefix`."""
        enclosure = series.prefix_enclosure(self.prefix)
        lower, upper = (rational_text(v) for v in (enclosure.lower, enclosure.upper))
        text = rational_text(x)
        return AperiodicError(
            f"no digit period exists for {text}: the witness {self.witness} divides every "
            f"remainder's denominator from step {self.step} on, so M({text}) is irrational; "
            f"it lies in [{lower}, {upper}]",
            self.witness, self.step, enclosure,
        )


class Cylinder(NamedTuple):
    """Half-open interval [inf, sup) of points with a fixed digit prefix."""

    digits: tuple
    inf: Fraction
    sup: Fraction
    measure: Fraction


_SEQ_RE = re.compile(
    r"^\s*(?P<pre>\d+(?:\s*,\s*\d+)*)?\s*(?:\(\s*(?P<per>\d+(?:\s*,\s*\d+)*)\s*\))?\s*$"
)


def parse_digit_seq(text: str) -> DigitSeq:
    """Parse `d1,d2,...(p1,...,pm)`; a bare list means a tail of ones."""
    m = _SEQ_RE.match(text)
    if not m or (m.group("pre") is None and m.group("per") is None):
        raise ParseError(f"not a digit sequence: {text!r} (expected d1,d2,...(p1,...,pm))")

    def _parse_group(group: str) -> tuple:
        digits = parse_ints(group.replace(" ", "").split(","))
        if min(digits) < 1:
            raise ParseError(f"digits must be positive integers: {text!r}")
        return digits

    pre = _parse_group(m.group("pre")) if m.group("pre") else ()
    per = _parse_group(m.group("per")) if m.group("per") else (1,)
    return DigitSeq(pre, per)


# decode runs in batches while the remainder's denominator has more than
# _BATCH_BITS bits: a point of _LEAD_BITS bits cut from the remainder's
# leading bits proposes a word of measure just below 2^-_WORD_BITS
_BATCH_BITS = 1024
_LEAD_BITS = 512
_WORD_BITS = 256
# plain steps between two checks of a short remainder's length
_PLAIN_RUN = 64
# words of up to this many digits compose by the plain left fold
_FOLD_DIGITS = 64
# decode_periodic walks in batches when x's denominator has more than
# _WALK_BATCH_BITS bits, keeping each remainder's fingerprint modulo the
# prime _PRINT_MOD. Timed in-process against the exact walk on
# random periods (Python 3.11.7, 2-CPU x86-64 host), the batched walk wins
# from about 1 100-1 250 bits under dyadic and 1 050-1 100 under
# geometric:1/3 and custom:1/3,1/4;1/2; below _BATCH_BITS it would step
# one `shift` per digit and lose by 1.6-2.9x. 1 280 serves all three.
_WALK_BATCH_BITS = 1280
# _PRINT_MOD is a safe prime p = 2q + 1 below 2^61, with q prime. The
# lemma: ord_p(2) = 2q. It divides p - 1 = 2q and is not 1 or 2; and
# p = 3 mod 8 makes 2 a non-residue, so 2^q = -1 mod p by Euler's
# criterion. So p divides 2^s - 1 only when 2q divides s, and 2q is far
# above series.MAX_DIGIT_SUM: the factor 2^s - 1 that a dyadic period of
# digit sum s puts in its point's denominator never holds p, where the
# Mersenne prime 2^61 - 1 divides it whenever 61 divides s
_PRINT_MOD = 2305843009213691579
# decode's plain loop, its batches' short points and the geometric Monte
# Carlo walk read up to _TABLE_DIGITS digits per lookup, from a table of the
# words of up to that length whose cylinders have measure at least
# 2^-_TABLE_MEASURE_BITS; a table whose common denominator has more than
# _TABLE_SCALE_BITS bits is not built, and the last _TABLE_CACHE tables are kept
_TABLE_DIGITS = 3
_TABLE_MEASURE_BITS = 9
_TABLE_SCALE_BITS = 512
_TABLE_CACHE = 16


def _check_unit_interval(x: Fraction) -> None:
    if not 0 <= x < 1:
        raise DomainError(f"point must lie in [0,1), got {rational_text(x)}")


def _compose(dist: Distribution, word) -> tuple:
    """Integers (A, B, D): the word's branches composed as y -> (A + B*y) / D.

    Raises ResourceLimitError, before any power is built, when the word's
    digit sum exceeds series.MAX_DIGIT_SUM. Each distinct digit's triple is
    built once. Long words compose by balanced halves (see `_product`), so
    the triple is the left fold's, built in near-linear time.
    """
    series.check_digit_sum(sum(word))
    branches = {d: dist.affine(d) for d in dict.fromkeys(word)}
    return _product(branches, word)


def _product(branches, word) -> tuple:
    """The map (A, B, D) of a word, with digit d's triple in branches[d].

    A map y -> (A + B*y) / D is the integer matrix [[B, A], [0, D]] acting
    on (y, 1), and composing two maps multiplies their matrices:
    (A1, B1, D1) after (A2, B2, D2) is (A1*D2 + B1*A2, B1*B2, D1*D2). The
    product is associative and nothing is reduced, so every bracketing
    gives the same integers as the left fold (A, B, D) <- (A*L + B*P, B*Q,
    D*L). Splitting at the middle multiplies operands of equal size, where
    the fold multiplies one growing integer by one small one per digit;
    up to _FOLD_DIGITS digits the fold is no slower and is used as it is.
    """
    if len(word) > _FOLD_DIGITS:
        mid = len(word) // 2
        a, b, den = _product(branches, word[:mid])
        a2, b2, den2 = _product(branches, word[mid:])
        return a * den2 + b * a2, b * b2, den * den2
    a, b, den = 0, 1, 1
    for d in word:
        p, q, l = branches[d]
        a, b, den = a * l + b * p, b * q, den * l
    return a, b, den


def encode(dist: Distribution, seq: DigitSeq) -> Fraction:
    """The exact point of [0,1) whose digit stream is `seq`.

    The preperiod composes affine maps x -> prefix(d) + pmf(d)*x; the
    period's composite (A_p + B_p*y) / D_p has contraction strictly below
    1, so its fixed point A_p / (D_p - B_p) is solved exactly.
    """
    a, b, den = _compose(dist, seq.preperiod)
    a_p, b_p, den_p = _compose(dist, seq.period)
    return Fraction(a * (den_p - b_p) + b * a_p, den * (den_p - b_p))


def _coprime_fraction(num: int, den: int) -> Fraction:
    """Fraction(num, den) for coprime num and den > 0, built without a gcd.

    Sets the two slots directly, as CPython's own Fraction._from_coprime_ints
    (3.12+) does; the public constructor would recompute gcd(num, den).
    """
    y = object.__new__(Fraction)
    y._numerator = num
    y._denominator = den
    return y


def shift(dist: Distribution, x: Fraction) -> tuple:
    """One decoding step: the first digit of x and the shifted point.

    Returns (digit, y) with x == prefix(digit) + pmf(digit)*y exactly. With
    x = n/d and (P, Q, L) = dist.affine(digit), the step cancels g1 =
    gcd(L, d), forms m = n*(L/g1) - P*(d/g1), and cancels g2 = gcd(m, Q).
    What is left is coprime: n is coprime to d and L/g1 to d/g1, so m is
    coprime to d/g1. A point x == prefix(digit) gives m == 0 and d/g1 == 1,
    so y comes out as 0/1.
    """
    n, d = x.numerator, x.denominator
    if not 0 <= n < d:
        raise DomainError(f"point must lie in [0,1), got {rational_text(x)}")
    c = dist.digit_of(x)
    p, q, l = dist.affine(c)
    # skip divisions by 1: even those copy the big operand
    g1 = math.gcd(l, d)
    if g1 > 1:
        l, d = l // g1, d // g1
    m = n * l - p * d
    g2 = math.gcd(m, q)
    if g2 > 1:
        m, q = m // g2, q // g2
    return c, _coprime_fraction(m, d * q)


def decode(dist: Distribution, x: Fraction, n: int) -> tuple:
    """The first n digits of x plus the remaining shifted point.

    Every digit is at least 1, so n digits sum to at least n: n above
    series.MAX_DIGIT_SUM raises ResourceLimitError before the first shift,
    and so does the running digit sum as soon as it passes the budget.

    A remainder with a denominator of more than _BATCH_BITS bits gives its
    digits in certified batches (`_leading_digits`, and the module
    docstring), whose short point is read from the same word table. A
    shorter one, and a long one after a batch that certifies
    nothing, reads up to _TABLE_DIGITS digits at a time from dist's word
    table (`_word_table`): a lookup names the longest word in the table
    that the remainder's digits can start with, and the cylinder test
    certifies it. Certified words step the unreduced pair (num, den), with
    one gcd before each `shift` and one at the end of each run, so the
    length check and `shift` see the reduced remainder. One `shift` takes
    the next digit after a lookup that fails the test, for the last fewer
    than _TABLE_DIGITS digits, and for each digit of a word that would take
    the digit sum past the budget, so the error names the sum the plain
    loop reaches. All give the digits and the remainder of one `shift` per
    digit, bit for bit.
    """
    _check_unit_interval(x)
    if n < 1:
        raise DomainError(f"digit count must be >= 1, got {n}")
    series.check_digit_sum(n)
    budget = series.MAX_DIGIT_SUM
    # table lookups run while at least _TABLE_DIGITS digits are left
    scale, lefts, rows = _word_table(dist) or (1, (), ())
    last = n - _TABLE_DIGITS if rows else -1
    digits = []
    total = 0
    cur = x
    while len(digits) < n:
        # a short remainder grows by a few bits per digit: check its length once a run
        run = _PLAIN_RUN
        if cur.denominator.bit_length() > _BATCH_BITS:
            word, rest = _leading_digits(dist, cur, n - len(digits), budget - total)
            if word:
                digits += word
                total += sum(word)
                cur = rest
                continue
            # the next digit is past the short point's reach: one lookup or plain step
            run = 1
        stop = min(n, len(digits) + run)
        # the remainder num/den, left unreduced across table words; cur is None until reduced
        num, den = cur.numerator, cur.denominator
        while len(digits) < stop:
            if len(digits) <= last:
                a, b, d, word, word_sum, _ = rows[bisect_right(lefts, num * scale // den) - 1]
                m, db = num * d - a * den, den * b
                # a word past the budget is stepped digit by digit, to the digit that passes
                if 0 <= m < db and total + word_sum <= budget:
                    digits += word
                    total += word_sum
                    num, den, cur = m, db, None
                    continue
            c, cur = shift(dist, Fraction(num, den) if cur is None else cur)
            num, den = cur.numerator, cur.denominator
            digits.append(c)
            total += c
            if total > budget:
                series.check_digit_sum(total)
        cur = Fraction(num, den) if cur is None else cur
    return digits, cur


def _leading_digits(dist: Distribution, x: Fraction, count: int, room: int):
    """(word, y): leading digits of x found from a short point, and the remainder.

    1. Cut y0 = (n >> k) / ((d >> k) + 1) <= x from the leading bits of
       x = n/d, with k chosen so that y0's denominator has _LEAD_BITS bits
       (so _BATCH_BITS must be at least _LEAD_BITS).
    2. Decode y0 = yn/yd on plain integers, with every update left
       unreduced. While at least _TABLE_DIGITS digits are left, a lookup
       in dist's word table (`_word_table`) proposes a word with map
       (A, B, D), and 0 <= yn*D - A*yd < yd*B certifies it as y0's; y0
       moves on to (yn*D - A*yd) / (yd*B). A miss, a word past the last
       _TABLE_DIGITS - 1 digits, and a word whose digit sum passes `room`
       or the digit budget take one `dist._branch` step instead, with
       `shift`'s update. Each word's or digit's map composes into the
       prefix's map (a, b, den), kept at these boundaries only. Stop
       after `count` digits, once the measure b/den falls below
       2^-_WORD_BITS, or before a digit that takes the digit sum past
       `room` or the digit budget, so that x's own `shift` raises with
       the plain loop's message. A word of one digit is dropped: testing
       it costs as much as one plain shift of x.
    3. y0 lies in every prefix's cylinder and x >= y0, so the prefixes
       whose cylinders hold x are the shortest ones. Test the whole word
       (`_remainder`); if x lies past its cylinder, bisect over the kept
       boundaries for the longest prefix that passes. That prefix is
       still x's own digits; the next batch reads the rest.

    The word is empty when no prefix passes; y is then None.
    """
    n, d = x.numerator, x.denominator
    k = d.bit_length() - _LEAD_BITS
    yn, yd = n >> k, (d >> k) + 1
    branch = dist._branch
    scale, lefts, rows = _word_table(dist) or (1, (), ())
    limit = series.MAX_DIGIT_SUM
    # maps[i] is the map of word[:ends[i]]
    word, maps, ends = [], [], []
    a, b, den = 0, 1, 1
    total = 0
    while len(word) < count:
        # a table word's map (A, B, D) takes the place of a digit's (P, Q, L)
        step = None
        if rows and count - len(word) >= _TABLE_DIGITS:
            p, q, l, step, step_sum, _ = rows[bisect_right(lefts, yn * scale // yd) - 1]
            m = yn * l - p * yd
            # a table built on a larger budget can hold a digit over this one
            if not (0 <= m < yd * q and total + step_sum <= room and step_sum <= limit):
                step = None
        if step is None:
            try:
                c, p, q, l = branch(yn, yd)
            except ResourceLimitError:
                # a digit of y0 over the budget ends the word
                break
            if total + c > room:
                break
            step, step_sum, m = (c,), c, yn * l - p * yd
        a, b, den = a * l + b * p, b * q, den * l
        word += step
        total += step_sum
        maps.append((a, b, den))
        ends.append(len(word))
        if b << _WORD_BITS < den:
            break
        # y0's remainder, unreduced
        yn, yd = m, yd * q
    if len(word) < 2:
        return [], None
    rest = _remainder(n, d, *maps[-1])
    if rest is not None:
        return word, rest
    # the prefixes up to ends[lo - 1] pass and the one up to ends[hi - 1] fails
    lo, hi = 0, len(maps)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = _remainder(n, d, *maps[mid - 1])
        if found is None:
            hi = mid
        else:
            lo, rest = mid, found
    return word[: ends[lo - 1] if lo else 0], rest


def _remainder(n: int, d: int, a: int, b: int, den: int):
    """x = n/d's remainder after a word with map y -> (a + b*y) / den, or None.

    The remainder is (n*den - a*d) / (d*b), and it lies in [0,1) exactly
    when a*d <= n*den < (a+b)*d, that is when x lies in the word's
    cylinder; otherwise the result is None. It is reduced as `shift`
    reduces: cancel g1 = gcd(den, d), then g2 = gcd(m, b) of the new
    numerator m, with den and b short. n is coprime to d and den/g1 to
    d/g1, so m is coprime to d/g1, and m/g2 over (d/g1)*(b/g2) is in
    lowest terms with no gcd of two long integers.
    """
    g = math.gcd(den, d)
    if g > 1:
        den, d = den // g, d // g
    m = n * den - a * d
    if m < 0 or m >= b * d:
        return None
    g = math.gcd(m, b)
    if g > 1:
        m, b = m // g, b // g
    return _coprime_fraction(m, d * b)


class _WordTable(NamedTuple):
    """A distribution's words of up to _TABLE_DIGITS digits, as sorted intervals.

    rows[i] = (A, B, D, word, digit sum, alt): the word's map
    y -> (A + B*y) / D as `_compose` builds it, its digit sum, and its
    series accumulator alt, which `series`'s m <- (m << c) + sign gives
    over the word from m = 0 and sign 1. Row i holds the points from
    lefts[i] / scale up to the next row's left end, all inside the word's
    cylinder [A/D, (A+B)/D), except that the last row of a first digit
    also reaches over the first digits that have no rows; `scale` is the
    lcm of the left ends' denominators.
    """

    scale: int
    lefts: tuple
    rows: tuple


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _word_table(dist: Distribution):
    """dist's _WordTable, or None when it has no rows or too long a scale.

    The table's words are those of 1 to _TABLE_DIGITS digits whose
    cylinders have measure at least 2^-_TABLE_MEASURE_BITS, built from
    `dist.affine`. Each word of _TABLE_DIGITS digits is one row, and every
    shorter word gets a row for each gap that its children in the table
    leave in its cylinder. So a point whose first digit is in the table
    lies in the row of the longest word in the table that its digits start
    with. Cylinders of one length are disjoint, so there are at most
    2^_TABLE_MEASURE_BITS words of each length, and at most twice as many
    rows as words. The rows come out in the lexicographic order of their
    words, which is the order of their left ends, by one depth-first walk.
    Each digit of the head is tried, since head masses need not decrease;
    in the tail the masses do, so the first tail digit whose mass is too
    small ends the digits tried after a word. No table is built when the
    common denominator of the left ends has more than _TABLE_SCALE_BITS
    bits, and the build stops as soon as a digit's L or a word's D does,
    since each divides that denominator; this bounds the build's integers
    and a lookup's multiplication.

    A lookup is one bisection: the row i with lefts[i] <= floor(x*scale)
    is the only row that can hold x, as the rows are disjoint and sorted.
    It is only a candidate, since x's first digit may have no rows: the
    caller certifies that x lies in its word's cylinder, with the integer
    test that `_remainder` makes, and steps one digit when it does not.
    So a lookup never yields a wrong digit.
    """
    bits, cap, size = _TABLE_MEASURE_BITS, _TABLE_SCALE_BITS, _TABLE_DIGITS
    head = len(dist.head_tail()[0])
    digits = []
    c = 1
    # a digit over the budget has no triple; its mass is below any table's
    while c <= series.MAX_DIGIT_SUM:
        p, q, l = dist.affine(c)
        if q << bits >= l:
            if l.bit_length() > cap:
                return None
            digits.append((c, p, q, l))
        elif c > head:
            break
        c += 1
    # each row, and its left end as a fraction num/low, in order; equal
    # measures and denominators, which recur across words, share one int
    rows, nums, lows = [], [], []
    shared = {}

    def tile(word, a, b, den, total, alt, sign):
        """Add the rows of the word's cylinder; False once a denominator passes the cap."""
        row = None
        # the left end of the part not yet tiled
        num, low = a, den
        if len(word) < size:
            for c, p, q, l in digits:
                bq, dl = b * q, den * l
                if bq << bits < dl:
                    if c > head:
                        break
                    continue
                if dl.bit_length() > cap:
                    return False
                child = a * l + b * p
                if num * dl < child * low:
                    row = row or (a, b, den, word, total, alt)
                    rows.append(row)
                    nums.append(num)
                    lows.append(low)
                bq, dl = shared.setdefault(bq, bq), shared.setdefault(dl, dl)
                if not tile(word + (c,), child, bq, dl, total + c, (alt << c) + sign, -sign):
                    return False
                num, low = child + bq, dl
        if num * den < (a + b) * low:
            rows.append(row or (a, b, den, word, total, alt))
            nums.append(num)
            lows.append(low)
        return True

    for c, p, q, l in digits:
        if not tile((c,), p, q, l, c, 1, -1):
            return None
    if not rows:
        return None
    scale = math.lcm(*lows)
    if scale.bit_length() > cap:
        return None
    # tuples, as the cache hands one table to every caller
    lefts = tuple(num * (scale // low) for num, low in zip(nums, lows))
    rows = tuple(rows)
    return _WordTable(scale, lefts, rows)


def decode_periodic(dist: Distribution, x: Fraction, max_steps: int = 4096):
    """Recover the full eventually periodic digit stream of x, or disprove one.

    Walks x one digit at a time, recording remainders; a repeat closes the
    period. Returns x's DigitSeq, which the exact walk checks against
    encode and the batched walk proves by an exact repeat; Aperiodic when
    a prime of W (dist.branch_primes()) enters a remainder's denominator,
    which proves that no period exists; or NotDetected with the digit prefix
    found when neither happens in max_steps.

    A point whose denominator has more than _WALK_BATCH_BITS bits is walked
    in batches (`_batched_walk`), which keep each remainder only as its
    residue modulo the prime _PRINT_MOD. The digits come from `decode`'s
    certified batches, which read the short point up to _TABLE_DIGITS
    digits per table lookup and never past the steps left, so the walk
    stops at max_steps digits exactly. A true repeat is never missed:
    while the prime divides neither x's denominator nor any Q, equal
    remainders have equal residues. A false one is never returned: a
    residue repeat (j, k) is returned only when the exact remainders after
    j and k digits, rebuilt from the batches' kept remainders, are equal,
    so the first repeat that passes is the first true one. The
    aperiodicity witness is tested on each batch's end remainder, since
    its primes never leave, and the one batch that brings it is walked
    again for its step. So the result is the exact walk's; a failed
    certification, or the prime dividing x's denominator or some Q, hands
    the point to the exact walk.

    The exact walk, which takes shorter points from the start, makes one
    `dist._branch(n, d)` per step, which gives the digit c and its triple
    (P, Q, L) from a single integer search, then `shift`'s update on the
    integers n, d = e*f of the remainder, with f the S-part of d (see the
    module docstring), so that gcd(L, d) is the small gcd(L, f) and the
    division by Q is one divmod, or a shift and a mask when Q is a power
    of two. No Fraction is built per step.
    """
    _check_unit_interval(x)
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")
    primes, w = dist.branch_primes()
    branch = dist._branch
    n, d = x.numerator, x.denominator
    f = _smooth_part(d, primes)
    witness = math.gcd(d // f, w)
    if witness > 1:
        return Aperiodic((), witness, 0)
    if d.bit_length() > _WALK_BATCH_BITS and d % _PRINT_MOD:
        found = _batched_walk(dist, x, max_steps, w)
        if found is not None:
            return found
    # the non-S part e = d/f is fixed between clears, so (n, f) keys the remainder
    seen = {}
    digits = []
    while True:
        j = seen.setdefault((n, f), len(digits))
        if j < len(digits):
            seq = DigitSeq(tuple(digits[:j]), tuple(digits[j:]))
            if encode(dist, seq) != x:
                raise ProbminkError("period detection produced an inconsistent stream for "
                                    f"{rational_text(x)}")
            return seq
        if j == max_steps:
            return NotDetected(tuple(digits))
        c, p, q, l = branch(n, d)
        digits.append(c)
        g = math.gcd(l, f)
        if g > 1:
            l, f, d = l // g, f // g, d // g
        m = n * l - p * d
        if q == 1:
            n = m
            continue
        if q & (q - 1):
            n, r = divmod(m, q)
        else:
            # a power of two: bit operations cost a fraction of a divmod
            n, r = m >> (q.bit_length() - 1), m & (q - 1)
        if not r:
            continue
        # q stays in the denominator after cancelling gcd(m, q) = gcd(q, r)
        g = math.gcd(q, r)
        if g > 1:
            m, q = m // g, q // g
        n = m
        smooth = _smooth_part(q, primes)
        f, d = f * smooth, d * q
        if q > smooth:
            # e gains the primes of q // smooth, which no later step removes,
            # so no earlier remainder comes back
            witness = math.gcd(q // smooth, w)
            if witness > 1:
                return Aperiodic(tuple(digits), witness, len(digits))
            seen.clear()


def _batched_walk(dist: Distribution, x: Fraction, max_steps: int, w: int):
    """decode_periodic's result for x, walked in batches; None hands x to the exact walk.

    The digits come from `decode`'s certified batches (`_leading_digits`)
    while the remainder is longer than _BATCH_BITS bits, and from `shift`
    otherwise. Each remainder r_k is kept only as its fingerprint r_k mod
    _PRINT_MOD, updated per digit as r <- (r*L - P) * Q^-1; each digit
    value's constants are built once, before the batch that first holds
    it is stepped. x's denominator and every Q are prime to the modulus,
    else the walk returns None, so equal remainders have equal
    fingerprints: the first fingerprint repeat (j, k) comes no later than
    the first true one.

    No false repeat is returned: each batch's first position and exact
    remainder are kept, and the repeat is returned only when the exact
    remainders r_j and r_k that `_walk_repeat` rebuilds from them are
    equal. That is the exact walk's own repeat test, so a passing hit is
    its first repeat (mu, mu + lambda), and the stream is already
    canonical; a failed test returns None.

    A prime of W never leaves a denominator, so the aperiodicity witness
    is tested on each batch's end remainder; when it is there, the batch
    is walked again with exact steps for the first remainder that holds it.
    """
    mod = _PRINT_MOD
    # digit c's triple (P, Q, L), and its step r -> (r*a - b) % mod with a = L/Q and b = P/Q
    branches, steps = {}, {}
    fp = x.numerator * pow(x.denominator, -1, mod) % mod
    prints = {fp: 0}
    # starts[i] is the position where batch i begins, and rests[i] x's remainder there
    starts, rests = [], []
    digits = []
    cur = x
    while len(digits) < max_steps:
        count = max_steps - len(digits)
        word = None
        if cur.denominator.bit_length() > _BATCH_BITS:
            # no digit sum is held to a budget here, as in the exact walk
            word, rest = _leading_digits(dist, cur, count, count * series.MAX_DIGIT_SUM)
        if not word:
            c, rest = shift(dist, cur)
            word = (c,)
        if math.gcd(rest.denominator, w) > 1:
            return _first_witness(dist, cur, word, digits, w)
        for c in dict.fromkeys(word):
            if c not in steps:
                p, q, l = branches[c] = dist.affine(c)
                if not q % mod:
                    return None
                inv = pow(q, -1, mod)
                steps[c] = (l * inv % mod, p * inv % mod)
        k = len(digits)
        starts.append(k)
        rests.append(cur)
        digits += word
        for a, b in map(steps.__getitem__, word):
            fp = (fp * a - b) % mod
            k += 1
            j = prints.setdefault(fp, k)
            if j < k:
                return _walk_repeat(branches, digits, starts, rests, j, k)
        cur = rest
    return NotDetected(tuple(digits))


def _walk_repeat(branches, digits: list, starts: list, rests: list, j: int, k: int):
    """The stream with preperiod digits[:j] and period digits[j:k] if r_j == r_k, else None.

    r_i, x's remainder after digits[:i], is rebuilt from the last batch
    start s <= i: `_remainder` of the remainder kept at s, under the map
    of digits[s:i], at most one batch's digits. It returns a remainder
    only when the one at s lies in those digits' cylinder, so it is r_i
    exactly, whatever the fingerprints did.
    """
    found = []
    for i in (j, k):
        b = bisect_right(starts, i) - 1
        y = rests[b]
        found.append(_remainder(y.numerator, y.denominator,
                                *_product(branches, digits[starts[b]:i])))
    r_j, r_k = found
    if r_j is None or r_j != r_k:
        return None
    return DigitSeq(tuple(digits[:j]), tuple(digits[j:k]))


def _first_witness(dist: Distribution, x: Fraction, word, digits: list, w: int):
    """Aperiodic at x's first remainder after a digit of `word` whose denominator meets W.

    `digits` leads to x, and x's remainder after the whole word holds a
    prime of W, so some digit of the word brings it; `digits` is extended
    up to that digit. Should none do, the result is None, which hands the
    point to the exact walk.
    """
    for c in word:
        x = _remainder(x.numerator, x.denominator, *dist.affine(c))
        digits.append(c)
        witness = math.gcd(x.denominator, w)
        if witness > 1:
            return Aperiodic(tuple(digits), witness, len(digits))
    return None


def cylinder(dist: Distribution, word) -> Cylinder:
    """The half-open interval of points whose stream starts with `word`.

    The endpoints are the encodings of the word and of its right sibling
    (last digit bumped by one), each extended by the all-ones tail; the
    width is the product of the digit probabilities. The right sibling's
    digit sum, one more than the word's, is held to series.MAX_DIGIT_SUM
    before any power is built.
    """
    digits = tuple(int(d) for d in word)
    if not digits:
        raise DomainError("cylinder word must be nonempty")
    series.check_digit_sum(sum(digits) + 1)
    # the all-ones tail encodes to 0, so each endpoint is its word's map at 0
    a, b, den = _compose(dist, digits[:-1])
    p, q, l = dist.affine(digits[-1])
    p_up, _, l_up = dist.affine(digits[-1] + 1)
    inf = Fraction(a * l + b * p, den * l)
    sup = Fraction(a * l_up + b * p_up, den * l_up)
    measure = Fraction(b * q, den * l)
    if sup - inf != measure:
        raise ProbminkError(f"cylinder endpoints disagree with the product measure for {digits}")
    return Cylinder(digits, inf, sup, measure)


def encode_enclosure(dist: Distribution, digits, n: int) -> Cylinder:
    """The level-n cylinder around any extension of the given digit prefix."""
    word = tuple(digits)
    if n < 1:
        raise DomainError(f"depth must be >= 1, got {n}")
    if len(word) < n:
        raise DomainError(f"need at least {n} digits, got {len(word)}")
    return cylinder(dist, word[:n])


def approximation_bound(dist: Distribution, u: int) -> Fraction:
    """Strict bound on the distance of two points sharing u leading digits."""
    if u < 1:
        raise DomainError(f"depth must be >= 1, got {u}")
    return dist.max_p() ** u


# imported last because series imports this module
from . import series  # noqa: E402
