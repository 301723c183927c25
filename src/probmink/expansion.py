"""Digit expansions of [0,1) driven by a distribution on positive integers.

A point corresponds to a digit stream (i_1, i_2, ...) through the affine
recursion x = prefix(i_1) + pmf(i_1) * x', where x' carries the remaining
digits; a cylinder is the half-open interval of points whose digits start
with a fixed word. Digit d's branch is y -> (P + Q*y) / L, with the
integers (P, Q, L) = dist.affine(d). A word's branches compose into one
unreduced map y -> (A + B*y) / D: it is the product of the digits' integer
matrices [[B, A], [0, D]], the same integers by the left fold
(A, B, D) <- (A*L + B*P, B*Q, D*L) or by balanced halves (Haible and
Papanikolaou's binary splitting), which multiply operands of equal size
and so take near-linear time where the fold is quadratic. An eventually
periodic stream encodes to the period map's fixed point, solved exactly.

One reduction serves every step. x = n/d lies in the word's cylinder
[A/D, (A+B)/D) exactly when 0 <= n*D - A*d < d*B, and its remainder after
the word is then (n*D - A*d) / (d*B). `_remainder` makes that test and
reduces by gcd(D, d) and then by the gcd of the new numerator with B, with
D and B short: n is coprime to d, so what is left is in lowest terms, with
no gcd of two long integers and no Fraction constructor. `shift` is this
for the one digit that `dist.digit_of` finds, and batches, walk repeats
and witnesses use it too, so every remainder is the plain loop's bit for
bit. The decoders rest on four certificates, each stated here once.

Table lookup. `_word_table` holds the words of up to _TABLE_DIGITS digits
whose cylinders have measure at least 2^-_TABLE_MEASURE_BITS, as disjoint
intervals sorted by their left ends over one denominator, so one bisect
names the longest word in the table that x's digits can start with, as
table-driven decoders of prefix codes read several symbols at once (Moffat
and Turpin 1997). The row is only a candidate, since x's first digit may
have no row, until the cylinder test certifies it; a failed test costs one
`shift`. So a lookup never yields a wrong digit. A certified word steps
the unreduced pair (n*D - A*d, d*B), reduced once before a `shift` and at
the end of a run. The trailing-ones rule: digit 1 fixes 0 and maps a
nonzero remainder to a nonzero one, so when the remainder after a word is
0, every later digit is 1, and the stream's first zero remainder came
after the word without its trailing 1s; the geometric Monte Carlo walk
closes its samples by it (see `integral`).

Batch cylinder test, Lehmer's idea for Euclid on long integers. While x's
denominator has more than _BATCH_BITS bits, a point y0 <= x of _LEAD_BITS
bits, cut from x's leading bits, is decoded on unreduced integers, by
table words and digits (`dist._digit` and `dist.affine`), until its
word's measure falls below 2^-_WORD_BITS. x and y0 differ by less than
2^-_LEAD_BITS relative to x, so only a cylinder end between them fails
the test on x; a bisection over the word's boundaries then keeps the
longest prefix that passes, which is still x's own, and the next batch
reads the rest. A batch touches the long remainder a fixed number of
times, where the plain loop makes one full-size step per digit.

`_next_digits` is the step that `decode` and the periodicity walk share: a
batch above _BATCH_BITS, and otherwise a run of up to _PLAIN_RUN digits,
or one digit after a batch that certifies nothing. A run ends just before
a digit over series.MAX_DIGIT_SUM, which `shift` refuses, unless that
digit starts it; the call that starts at the digit raises the plain loop's
error, so a caller acts on the digits before it first.

W witness. `dist.branch_primes()` gives (S, W): every branch denominator L
is S-smooth, and W is the part of gcd(Q(c) for c >= 2) prime to S. A
prime p outside S divides no L and, once in a remainder's denominator,
not the next numerator, so its exponent there grows by v_p(Q(c)) at each
digit c and never falls. The lemma: if a prime p of W divides some
remainder's denominator, the stream is not eventually periodic, since a
cycle would keep v_p fixed, so it could use only digit 1, whose cycle is
the remainder 0. So the walk ends at the first such remainder, x itself
included. The converse, for a law with no head (`Dyadic`, `Geometric`),
where every prime of Q(c) outside S lies in W and no Q has a prime of S:
while no prime of W arrives, the part of the denominator prime to S stays
fixed and the rest only loses primes, so every denominator divides the
first, and the walk meets a repeat within that many steps. Under a custom
head W may be 1, and the walk may run out of steps.

First fingerprint repeat. Keeping every exact remainder costs memory
quadratic in a long period, so the walk steps on `_next_digits`, keeping
x's exact remainder at each step's start and every remainder r_k only as
its residue modulo the prime p = _PRINT_MOD (Karp and Rabin's
fingerprints), r <- (r*L - P) * Q^-1 mod p; when p divides neither x's
denominator nor any Q, equal remainders have equal residues. A hit at k
rebuilds r_k exactly from the last kept remainder and compares it with
each earlier remainder of that residue, oldest first; a refused hit walks
on. If (mu, mu + lambda) is the first repeat, r_0, ..., r_(mu+lambda-1)
are distinct, so no hit passes before k = mu + lambda, and there only r_mu
does; the stream is canonical as it stands, since a shorter period or an
absorbable preperiod digit would repeat a remainder sooner. A point that p
cannot fingerprint takes one `shift` per digit, keeping every remainder.
"""

import functools
import math
import re
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .distribution import Distribution, _Frozen
from .errors import AperiodicError, DomainError, ParseError, ProbminkError, ResourceLimitError
from .fmt import parse_ints, rational_text


def _int_tuple(values) -> tuple:
    """tuple(map(int, values)), built at its exact size.

    tuple() of an iterator with no length hint leaves a tuple on CPython's
    free lists per call: 200 graph_sweep passes peaked at 22.5 MB with it
    and 18.9 MB with this (Python 3.11.7).
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

    @classmethod
    def _canonical(cls, preperiod: tuple, period: tuple) -> "DigitSeq":
        """The DigitSeq of tuples of ints already in canonical form, with no scan."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "preperiod", preperiod)
        object.__setattr__(seq, "period", period)
        return seq

    def digits(self, n: int) -> tuple:
        """The first n digits of the stream."""
        if n < 0:
            raise DomainError(f"digit count must be >= 0, got {n}")
        pre, per = self.preperiod, self.period
        # enough whole periods to pass n, none when the preperiod covers it
        return (pre + per * -((len(pre) - n) // len(per)))[:n]

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

    `prefix` holds the first `step` digits, and `witness` > 1, a divisor of
    the distribution's W, divides the denominator of the remainder after it
    and of every later one (the W witness in the module docstring). The
    series then has no eventually periodic run lengths, and M at the point
    is irrational.
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
# decode_periodic checks a stream it finds for a point of up to
# _ENCODE_CHECK_BITS bits against encode, which on exact_eval's ladder of
# short periods is the one `encode` call that bench/spans.py can require
_ENCODE_CHECK_BITS = 320
# _PRINT_MOD is a safe prime p = 2q + 1 below 2^30, with q prime, so a
# fingerprint step stays on CPython's one-digit ints. ord_p(2) = 2q: it
# divides p - 1 = 2q and is not 1 or 2, and p = 3 mod 8 makes 2^q = -1
# mod p by Euler's criterion. 2q is above series.MAX_DIGIT_SUM, so p
# divides no factor 2^s - 1 of a dyadic period's point
_PRINT_MOD = 1073739179
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
    if not 0 <= x.numerator < x.denominator:
        raise DomainError(f"point must lie in [0,1), got {rational_text(x)}")


def _compose(dist: Distribution, word) -> tuple:
    """Integers (A, B, D): the word's branches composed as y -> (A + B*y) / D.

    Raises ResourceLimitError, before any power is built, when the word's
    digit sum exceeds series.MAX_DIGIT_SUM. Each distinct digit's triple is
    built once.
    """
    series.check_digit_sum(sum(word))
    branches = {d: dist.affine(d) for d in dict.fromkeys(word)}
    return _product(branches, word)


def _product(branches, word) -> tuple:
    """The map (A, B, D) of a word, with digit d's triple in branches[d].

    (A1, B1, D1) after (A2, B2, D2) is (A1*D2 + B1*A2, B1*B2, D1*D2), so
    a long word composes by halves; up to _FOLD_DIGITS digits the left fold
    is no slower and is used as it is.
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

    Returns (digit, y) with x == prefix(digit) + pmf(digit)*y exactly, y in
    lowest terms by `_remainder`'s reduction; a point x == prefix(digit)
    gives y == 0/1.
    """
    n, d = x.numerator, x.denominator
    if not 0 <= n < d:
        raise DomainError(f"point must lie in [0,1), got {rational_text(x)}")
    c = dist.digit_of(x)
    # unpacked: a call with *args costs about 0.2 us more here
    p, q, l = dist.affine(c)
    return c, _remainder(n, d, p, q, l)


def decode(dist: Distribution, x: Fraction, n: int) -> tuple:
    """The first n digits of x plus the remaining shifted point.

    Every digit is at least 1, so n above series.MAX_DIGIT_SUM raises
    ResourceLimitError before the first digit, and so does the running
    digit sum as soon as it passes the budget, naming the sum the plain
    loop reaches. The digits and the remainder are those of one `shift`
    per digit, bit for bit, read by `_next_digits`.
    """
    _check_unit_interval(x)
    if n < 1:
        raise DomainError(f"digit count must be >= 1, got {n}")
    series.check_digit_sum(n)
    digits = []
    cur, room = x, series.MAX_DIGIT_SUM
    while len(digits) < n:
        cur, room = _next_digits(dist, cur, digits, n - len(digits), room)
        if room < 0:
            series.check_digit_sum(series.MAX_DIGIT_SUM - room)
    return digits, cur


def _next_digits(dist: Distribution, x: Fraction, word: list, count: int, room: int,
                 run: int = _PLAIN_RUN):
    """(y, room): appends x's next certified digits, at most `count`, to `word`.

    y is x's remainder after them and room what is left of `room` after
    their digit sum: a batch (`_leading_digits`) above _BATCH_BITS bits,
    otherwise a run (`_short_digits`) of up to `run` digits, or of one
    after a batch that certifies nothing (see the module docstring).
    """
    if x.denominator.bit_length() > _BATCH_BITS:
        batch, rest = _leading_digits(dist, x, count, room)
        if batch:
            word += batch
            return rest, room - sum(batch)
        # the next digit is past the short point's reach: one lookup or plain step
        run = 1
    return _short_digits(dist, x, word, min(run, count), count, room)


def _short_digits(dist: Distribution, x: Fraction, word: list, run: int, count: int, room: int):
    """(y, room): appends x's next `run` digits to `word`, or a few more up to `count`.

    y is x's remainder after them and room what is left of `room` after
    their digit sum. Certified table words step the unreduced remainder
    while `count` leaves room for _TABLE_DIGITS more digits and their digit
    sum fits `room`; `shift` takes every other digit. The digits end after
    one that takes their sum past `room`, and just before one that `shift`
    refuses, unless it is the first, which raises.
    """
    scale, lefts, rows = _word_table(dist) or (1, (), ())
    first = len(word)
    end, last = first + run, first + count - _TABLE_DIGITS if rows else -1
    # the remainder num/den, left unreduced across table words; cur is None until reduced
    num, den, cur = x.numerator, x.denominator, x
    while len(word) < end:
        if len(word) <= last:
            a, b, d, step, step_sum, _ = rows[bisect_right(lefts, num * scale // den) - 1]
            m, db = num * d - a * den, den * b
            if 0 <= m < db and step_sum <= room:
                word += step
                room -= step_sum
                num, den, cur = m, db, None
                continue
        if cur is None:
            cur = Fraction(num, den)
        try:
            c, cur = shift(dist, cur)
        except ResourceLimitError:
            if len(word) == first:
                raise
            break
        num, den = cur.numerator, cur.denominator
        word.append(c)
        room -= c
        if room < 0:
            break
    return Fraction(num, den) if cur is None else cur, room


def _leading_digits(dist: Distribution, x: Fraction, count: int, room: int):
    """(word, y): x's leading digits, certified in one batch, and the remainder.

    The short point y0 = (n >> k) / ((d >> k) + 1) <= x of x = n/d has
    _LEAD_BITS bits (so _BATCH_BITS must be at least _LEAD_BITS), and its
    word is certified on x (the batch cylinder test in the module
    docstring). The word stops after `count` digits, once its measure falls
    below 2^-_WORD_BITS, or before a digit that takes its digit sum past
    `room` or is itself over the digit budget, so that x's own `shift`
    meets that digit. It is empty, and y None, when no prefix of two or
    more digits passes: a one-digit word costs as much as a plain shift.
    """
    n, d = x.numerator, x.denominator
    k = d.bit_length() - _LEAD_BITS
    yn, yd = n >> k, (d >> k) + 1
    digit, affine = dist._digit, dist.affine
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
                c = digit(yn, yd)
            except ResourceLimitError:
                # a digit of y0 over the budget ends the word
                break
            if total + c > room:
                break
            p, q, l = affine(c)
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

    None when x lies outside the word's cylinder; otherwise the remainder in
    lowest terms, by the one reduction of the module docstring.
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

    Each word of _TABLE_DIGITS digits is one row, and every shorter word
    gets a row for each gap that its children in the table leave in its
    cylinder, so a point lies in the row of the longest word in the table
    that its digits start with: the row i with lefts[i] <= floor(x*scale),
    a candidate that the caller certifies (the table lookup in the module
    docstring). There are at most 2^_TABLE_MEASURE_BITS words of each
    length, and one depth-first walk emits the rows in the order of their
    left ends. Every head digit is tried, since head masses need not
    decrease; the first tail digit whose mass is too small ends a word's
    children. No table is built when the common denominator of the left
    ends has more than _TABLE_SCALE_BITS bits, and the build stops as soon
    as a digit's L or a word's D does, since each divides it.
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

    Returns x's canonical DigitSeq at the first repeated remainder; an
    Aperiodic certificate at the first remainder, x included, whose
    denominator a prime of W (dist.branch_primes()) divides; or NotDetected
    with the digits found when neither happens in max_steps (the W witness
    and first fingerprint repeat in the module docstring). A digit over the
    budget raises where `shift` does, and a stream over it where `encode`
    would, in `_batched_walk` and in `_plain_walk` alike.
    """
    _check_unit_interval(x)
    if max_steps < 1:
        raise DomainError(f"max_steps must be >= 1, got {max_steps}")
    _, w = dist.branch_primes()
    d = x.denominator
    witness = math.gcd(d, w)
    if witness > 1:
        return Aperiodic((), witness, 0)
    found = _batched_walk(dist, x, max_steps, w) if d % _PRINT_MOD else None
    if found is None:
        found = _plain_walk(dist, x, max_steps, w)
    if (isinstance(found, DigitSeq) and d.bit_length() <= _ENCODE_CHECK_BITS
            and encode(dist, found) != x):
        raise ProbminkError("period detection produced an inconsistent stream for "
                            f"{rational_text(x)}")
    return found


def _plain_walk(dist: Distribution, x: Fraction, max_steps: int, w: int):
    """decode_periodic's result for x by one `shift` per digit, keeping every remainder."""
    seen = {}
    digits = []
    while True:
        j = seen.setdefault((x.numerator, x.denominator), len(digits))
        if j < len(digits):
            return _stream(digits, j, len(digits))
        if j == max_steps:
            return NotDetected(tuple(digits))
        c, x = shift(dist, x)
        digits.append(c)
        witness = math.gcd(x.denominator, w)
        if witness > 1:
            return Aperiodic(tuple(digits), witness, len(digits))


def _stream(digits: list, i: int, k: int) -> DigitSeq:
    """The canonical stream of a first repeat r_i == r_k, held to the budget as by `encode`."""
    pre, per = tuple(digits[:i]), tuple(digits[i:k])
    series.check_digit_sum(sum(pre))
    series.check_digit_sum(sum(per))
    return DigitSeq._canonical(pre, per)


def _batched_walk(dist: Distribution, x: Fraction, max_steps: int, w: int):
    """decode_periodic's result for x, walked on `_next_digits`; None when p divides some Q.

    A fingerprint hit at k goes to `_walk_repeat`, and a step whose end
    remainder holds a prime of W to `_first_witness`. The first run has
    about a quarter of x's denominator bits in digits, from 4 up to
    _PLAIN_RUN, with a digit sum of at most four times that, and each
    later one twice the last: a short point stops near its period, and a
    law of large digits reads few of them.
    """
    mod = _PRINT_MOD
    # digit c's triple (P, Q, L), and its step r -> (r*a - b) % mod with a = L/Q and b = P/Q
    branches, steps = {}, {}
    fp = x.numerator * pow(x.denominator, -1, mod) % mod
    # each fingerprint's first position; after a hit, every position with it and its remainder
    prints, hits = {fp: 0}, {}
    # starts[i] is the position where step i begins, and rests[i] x's remainder there
    starts, rests = [], []
    digits = []
    cur = x
    # no digit sum is held to a budget here, only each digit, as in `shift`:
    # a step's room only ends it, kept within the budget that table words meet
    limit = series.MAX_DIGIT_SUM
    run = max(x.denominator.bit_length() >> 2, 4)
    while len(digits) < max_steps:
        word = []
        rest, _ = _next_digits(dist, cur, word, max_steps - len(digits), min(4 * run, limit),
                               min(run, _PLAIN_RUN))
        run = min(2 * run, limit)
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
                held = hits.setdefault(fp, [])
                if not held:
                    _walk_repeat(branches, digits, starts, rests, held, j)
                seq = _walk_repeat(branches, digits, starts, rests, held, k)
                if seq is not None:
                    return seq
        cur = rest
    return NotDetected(tuple(digits))


def _walk_repeat(branches, digits: list, starts: list, rests: list, held: list, k: int):
    """The stream with period digits[i:k] for the first (i, r_i) in held with r_i == r_k.

    r_k, x's remainder after digits[:k], is rebuilt from the last step
    start s <= k: `_remainder` of the remainder kept at s, under the map of
    digits[s:k], at most one step's digits, which are that remainder's own.
    When no r_i equals it, (k, r_k) joins held and the result is None.
    """
    b = bisect_right(starts, k) - 1
    y = rests[b]
    r_k = _remainder(y.numerator, y.denominator, *_product(branches, digits[starts[b]:k]))
    for i, r_i in held:
        if r_i == r_k:
            return _stream(digits, i, k)
    held.append((k, r_k))
    return None


def _first_witness(dist: Distribution, x: Fraction, word, digits: list, w: int):
    """Aperiodic at x's first remainder after a digit of `word` whose denominator meets W.

    `digits` leads to x, and x's remainder after the whole word holds a
    prime of W, so some digit of the word brings it; `digits` is extended
    up to that digit. Should none do, the result is None, which hands the
    point to `_plain_walk`.
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
