"""Independent reference implementations used only by the tests.

Each routine deliberately avoids the shipped code path it checks: the
corner sum enumerates words instead of running the recursion, the
question-mark oracle walks the Stern-Brocot tree instead of summing a
series, and the partial-sum helpers add terms one at a time.

The `ref_*` routines are the plain `Fraction` forms of the integer kernels
in `series`, `expansion`, `distribution` and `fmt`: each step builds and
reduces a Fraction. `ref_mc_sample_int` is the Monte Carlo sampler that
walks one digit at a time, and `ref_mc_generic` the Monte Carlo loop that
sums each enclosure midpoint as a Fraction. The kernels must equal them bit
for bit.
`ref_digit_of` is each family's digit search that reads the point back
through `Fraction` and returns the digit alone. `ref_family_affine`,
`ref_geometric_branch` and `ref_family_branch_primes` are the per-family
integer bodies that the shared head+tail core of `Distribution` replaced,
for the laws with no head. `ref_digit_seq` is
`DigitSeq`'s canonical form absorbing one preperiod digit per step.
`ref_graph_points` is the graph enumeration that recomposes every word from
its first digit. `ref_decode_periodic` is period detection with no
aperiodicity certificate, keyed on every reduced remainder, and
`ref_exact_walk` the integer walk with the certificate, on the split of
each denominator into its S-smooth part and the rest. `ref_decode` is
the decoder that runs one full-size `shift` per digit, and `ref_compose`
the left fold of a word's branch triples. `ref_write_graph_csv` writes
every graph row through the general `fmt` formatters, and
`ref_cmd_diagnose` builds both the JSON payload and the plain lines of
`diagnose` and prints one. `ref_cylinder_increment` builds the measure and
the quotient as Fractions, `ref_int_finite_sum` is the series accumulator
that checks each digit as it sums it, and `ref_check_digits` is
`DigitSeq`'s digit check by one loop. `ref_bucket_index` finds, bucket by
bucket, the longest heavy word whose cylinder holds the bucket, from
`ref_prefix` and `ref_pmf` alone, where the table paints each word's
cylinder once.
`FAMILIES` are the distributions the kernel and property tests share.
"""

import itertools
import json
import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction

from probmink import (
    Aperiodic,
    CustomPrefixTail,
    DigitSeq,
    DomainError,
    Dyadic,
    Geometric,
    IncrementReport,
    NotDetected,
    ProbminkError,
    alt_series_exact,
    cylinder_increment,
    encode,
    eval_minkowski_enclosure,
    parse_distribution,
    series,
    shift,
    singularity_ratio_step,
)
from probmink.cli import _check_precision, _parse_digit_word
from probmink.distribution import _smooth_part
from probmink.fmt import _ratio_decimal, _ratio_text, rational_payload, rational_text
from probmink.integral import alpha


F = Fraction
FAMILIES = (
    Dyadic(),
    Geometric(F(1, 2)),
    Geometric(F(1, 3)),
    Geometric(F(2, 5)),
    Geometric(F(3, 4)),
    Geometric(F(1, 10)),
    Geometric(F(5, 7)),
    CustomPrefixTail((F(1, 3), F(1, 4)), F(1, 2)),
    CustomPrefixTail((F(1, 10),), F(1, 2)),
    CustomPrefixTail((F(1, 7), F(2, 9), F(1, 12)), F(3, 5)),
    CustomPrefixTail((F(1, 6), F(1, 10), F(1, 15), F(1, 4)), F(9, 10)),
)


def partial_sums(digits):
    """All partial sums of the alternating series, term by term."""
    out = []
    total = Fraction(0)
    s = 0
    for k, d in enumerate(digits, start=1):
        s += d
        total += (-1) ** (k - 1) * Fraction(2, 1 << s)
        out.append(total)
    return out


def brute_corner_sum(dist, depth, cap):
    """Measure-weighted sum of left-corner values over capped words.

    Enumerates every word in {1..cap}^depth explicitly; feasible only for
    tiny depth and cap, which is the point.
    """
    total = Fraction(0)
    for word in itertools.product(range(1, cap + 1), repeat=depth):
        measure = Fraction(1)
        for d in word:
            measure *= dist.pmf(d)
        total += measure * alt_series_exact(DigitSeq(word, (1,)))
    return total


def brute_graph_points(dist, depth, cap):
    """Graph sample by direct per-word encoding, lexicographic order."""
    out = []
    for word in itertools.product(range(1, cap + 1), repeat=depth):
        seq = DigitSeq(word, (1,))
        out.append((encode(dist, seq), alt_series_exact(seq)))
    return out


def ref_graph_points(dist, depth, cap):
    """Graph sample by one integer loop per word over `itertools.product`.

    Each word recomposes its affine triples from the first digit and sums
    the series inline; each coordinate goes through the Fraction
    constructor's gcd.
    """
    branches = [(c, *dist.affine(c)) for c in range(1, cap + 1)]
    points = []
    for word in itertools.product(branches, repeat=depth):
        a, b, den = 0, 1, 1
        m, s, sign = 0, 0, 1
        for c, p, q, l in word:
            a, b, den = a * l + b * p, b * q, den * l
            m = (m << c) + sign
            s += c
            sign = -sign
        points.append((Fraction(a, den), Fraction(2 * (3 * m + sign), 3 << s)))
    return points


def ref_write_graph_csv(handle, rows, precision):
    """Graph CSV with every field from `_ratio_text` and `_ratio_decimal`, one write per row."""
    write = handle.write
    write("x_rational,y_rational,x_decimal,y_decimal\r\n")
    for x, y in rows:
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        write(f"{_ratio_text(xn, xd)},{_ratio_text(yn, yd)},"
              f"{_ratio_decimal(xn, xd, precision)},{_ratio_decimal(yn, yd, precision)}\r\n")


def ref_cylinder_increment(dist, word):
    """`cylinder_increment` with generator digit checks and Fraction measure and quotient."""
    digits = tuple(int(d) for d in word)
    if not digits:
        raise DomainError("cylinder word must be nonempty")
    if any(d < 1 for d in digits):
        raise DomainError(f"digits must be >= 1, got {digits}")
    low = DigitSeq(digits, (1,))
    high = DigitSeq(digits[:-1] + (digits[-1] + 1,), (1,))
    delta = alt_series_exact(high) - alt_series_exact(low)
    num = den = 1
    for d, k in Counter(digits).items():
        _, q, l = dist.affine(d)
        num *= q**k
        den *= l**k
    measure = Fraction(num, den)
    return IncrementReport(digits, sum(digits), delta, measure, abs(delta) / measure)


def ref_cmd_diagnose(args):
    """`diagnose` building both formats and one `singularity_ratio_step` per prefix."""
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    word = _parse_digit_word(args.digits)
    reports = [cylinder_increment(dist, word[:n]) for n in range(1, len(word) + 1)]
    payload = {"prefixes": []}
    plain = []
    for n, rep in enumerate(reports, start=1):
        entry = {
            "digits": list(rep.digits),
            "digit_sum": rep.digit_sum,
            "delta": rational_payload(rep.delta, precision),
            "measure": rational_payload(rep.measure, precision),
            "quotient": rational_payload(rep.quotient, precision),
        }
        plain.append(
            f"depth {n} digits {','.join(str(d) for d in rep.digits)} "
            f"delta {rational_text(rep.delta)} measure {rational_text(rep.measure)} "
            f"quotient {rational_text(rep.quotient)}"
        )
        if n > 1:
            step = singularity_ratio_step(dist, rep.digits[-1])
            ratio = rep.quotient / reports[n - 2].quotient
            entry["quotient_step"] = rational_payload(ratio, precision)
            entry["quotient_step_matches_formula"] = ratio == step
            plain.append(f"  quotient step {rational_text(ratio)} "
                         f"formula {rational_text(step)} match {ratio == step}")
        payload["prefixes"].append(entry)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in plain:
            print(line)
    return 0


def question_mark_by_mediants(x: Fraction) -> Fraction:
    """Question-mark value by binary search of the Stern-Brocot tree.

    Descends by mediants from 0/1 and 1/1, halving a dyadic interval at
    each step; terminates for every rational input. Shares no code with
    the continued-fraction series route.
    """
    if x == 0:
        return Fraction(0)
    if x == 1:
        return Fraction(1)
    la, lb, ra, rb = 0, 1, 1, 1
    lo, hi = Fraction(0), Fraction(1)
    while True:
        ma, mb = la + ra, lb + rb
        mid = (lo + hi) / 2
        m = Fraction(ma, mb)
        if x == m:
            return mid
        if x < m:
            ra, rb, hi = ma, mb, mid
        else:
            la, lb, lo = ma, mb, mid


def continued_fraction_value(digits) -> Fraction:
    """Rational value of continued-fraction digits, folded from the tail."""
    value = Fraction(0)
    for a in reversed(tuple(digits)):
        value = Fraction(1, a + value)
    return value


def corner_sum_uncapped(dist, depth):
    """Corner sum over all depth-`depth` cylinders with no digit cap."""
    a = alpha(dist)
    corner = Fraction(2, 3)
    for _ in range(depth):
        corner = 2 * a - a * corner
    return corner


def _custom_tail(dist, i):
    """(head mass s, tail ratio r, tail index j) for a custom tail digit i."""
    return sum(dist.head, Fraction(0)), dist.tail_ratio, i - len(dist.head) - 1


def ref_pmf(dist, i):
    """Mass of digit i from each family's textbook formula."""
    if isinstance(dist, Dyadic):
        return Fraction(1, 1 << i)
    if isinstance(dist, Geometric):
        return dist.q * (1 - dist.q) ** (i - 1)
    if isinstance(dist, CustomPrefixTail):
        if i <= len(dist.head):
            return dist.head[i - 1]
        s, r, j = _custom_tail(dist, i)
        return (1 - s) * (1 - r) * r**j
    raise TypeError(f"no reference formula for {dist!r}")


def ref_prefix(dist, i):
    """Cumulative mass below digit i from each family's textbook formula."""
    if isinstance(dist, Dyadic):
        return 1 - Fraction(2, 1 << i)
    if isinstance(dist, Geometric):
        return 1 - (1 - dist.q) ** (i - 1)
    if isinstance(dist, CustomPrefixTail):
        if i <= len(dist.head) + 1:
            return sum(dist.head[: i - 1], Fraction(0))
        s, r, j = _custom_tail(dist, i)
        return s + (1 - s) * (1 - r**j)
    raise TypeError(f"no reference formula for {dist!r}")


def ref_finite_sum(digits):
    """(total, s_n, sign): the finite series summed one Fraction term at a time."""
    total = Fraction(0)
    s = 0
    sign = 1
    for d in digits:
        s += d
        total += sign * Fraction(2, 1 << s)
        sign = -sign
    return total, s, sign


def ref_int_finite_sum(digits):
    """`series._finite_sum` checking each digit in the loop that sums it."""
    series.check_digit_sum(sum(digits))
    m = 0
    s = 0
    sign = 1
    for d in digits:
        if d < 1:
            raise DomainError(f"digits must be >= 1, got {d}")
        s += d
        m = (m << d) + sign
        sign = -sign
    return m, s, sign


def ref_check_digits(preperiod, period):
    """`DigitSeq`'s digit check, one comparison per digit in stream order."""
    for d in tuple(preperiod) + tuple(period):
        if d < 1:
            raise DomainError(f"digits must be >= 1, got {d}")


def ref_alt_series_exact(stream):
    """Series value: prefix sum plus the period block's geometric limit."""
    if isinstance(stream, DigitSeq):
        head, s_pre, sign = ref_finite_sum(stream.preperiod)
        block, q_sum, block_sign = ref_finite_sum(stream.period)
        ratio = block_sign * Fraction(1, 1 << q_sum)
        tail = block / (1 - ratio)
        return head + sign * Fraction(1, 1 << s_pre) * tail
    return ref_finite_sum(tuple(stream))[0]


def ref_prefix_enclosure(digits):
    """(lower, upper) of the one-sided alternating-tail band after `digits`."""
    partial, s_n, sign = ref_finite_sum(tuple(digits))
    band = Fraction(1, 1 << s_n)
    return (partial, partial + band) if sign > 0 else (partial - band, partial)


def ref_encode(dist, seq):
    """Point of a stream by composing Fraction affine maps digit by digit."""
    offset, scale = Fraction(0), Fraction(1)
    for d in seq.preperiod:
        offset += scale * ref_prefix(dist, d)
        scale *= ref_pmf(dist, d)
    per_offset, per_scale = Fraction(0), Fraction(1)
    for d in seq.period:
        per_offset += per_scale * ref_prefix(dist, d)
        per_scale *= ref_pmf(dist, d)
    return offset + scale * (per_offset / (1 - per_scale))


def ref_digit_of(dist, x):
    """The digit c with prefix(c) <= x < prefix(c+1), by one search per family.

    Each search compares integer powers of the point's numerator and
    denominator, from c = 1 up, and keeps no power once it returns. A
    custom head is searched by its Fraction partial sums.
    """
    num, den = x.numerator, x.denominator
    if isinstance(dist, Dyadic):
        # smallest c with 2^c * (1 - x) > 1
        c, t = 1, (den - num) << 1
        while t <= den:
            c += 1
            t <<= 1
        return c
    if isinstance(dist, Geometric):
        # smallest c with (1-q)^c < 1 - x, via integer cross-multiplication
        s, t = dist.q.numerator, dist.q.denominator
        u = t - s
        diff = den - num
        c, up, tp = 1, u, t
        while up * den >= tp * diff:
            up *= u
            tp *= t
            c += 1
        return c
    if isinstance(dist, CustomPrefixTail):
        head = dist.head
        total = Fraction(0)
        for i, p in enumerate(head, start=1):
            total += p
            if x < total:
                return i
        # tail: smallest j >= 1 with (1-s) r^j < 1 - x, digit is len(head) + j;
        # 1 - s = an/ad and 1 - x = bn/bd, compared by cross-multiplication
        an, ad = (1 - total).numerator, (1 - total).denominator
        rn, rd = dist.tail_ratio.numerator, dist.tail_ratio.denominator
        bn, bd = den - num, den
        j, rpn, rpd = 1, rn, rd
        while an * rpn * bd >= ad * rpd * bn:
            rpn *= rn
            rpd *= rd
            j += 1
        return len(head) + j
    raise TypeError(f"no reference search for {dist!r}")


def ref_family_affine(dist, i):
    """`Dyadic.affine` or `Geometric.affine` as each family computed it alone.

    (2^i - 2, 1, 2^i) for `Dyadic`, and (t^i - t u^(i-1), s u^(i-1), t^i)
    for `Geometric(s/t)` with u = t - s.
    """
    if isinstance(dist, Dyadic):
        return (1 << i) - 2, 1, 1 << i
    if isinstance(dist, Geometric):
        s, t = dist.q.numerator, dist.q.denominator
        u_pow = (t - s) ** (i - 1)
        l = t**i
        return l - t * u_pow, s * u_pow, l
    raise TypeError(f"no family body for {dist!r}")


def ref_geometric_branch(dist, n, d):
    """(c, *affine(c)) for `Geometric`'s digit c of n/d, as the family computed them alone.

    The smallest c with (u/t)^c < 1 - n/d, from running products of u and
    t, and affine(c) from t^c and u^(c-1), with no budget checks.
    """
    s, t = dist.q.numerator, dist.q.denominator
    u = t - s
    c, u_prev, up, tp = 1, 1, u, t
    lo, hi = u * d, t * (d - n)
    while lo >= hi:
        u_prev = up
        up *= u
        tp *= t
        lo *= u
        hi *= t
        c += 1
    return c, tp - t * u_prev, s * u_prev, tp


def ref_family_branch_primes(dist):
    """`Dyadic.branch_primes` or `Geometric.branch_primes` as each family gave it."""
    if isinstance(dist, Dyadic):
        return 2, 1
    if isinstance(dist, Geometric):
        s, t = dist.q.numerator, dist.q.denominator
        # L = t^c; Q(c) = s u^(c-1), and s u is coprime to t
        return t, s * (t - s)
    raise TypeError(f"no family body for {dist!r}")


def ref_shift(dist, x):
    """One decoding step, (digit, (x - prefix) / pmf), in Fraction arithmetic."""
    c = ref_digit_of(dist, x)
    return c, (x - ref_prefix(dist, c)) / ref_pmf(dist, c)


def ref_decode(dist, x, n):
    """The first n digits of x and the remainder, one `shift` of x per digit.

    Holds n to the digit budget up front, and the digit sum only through
    the digits' own searches.
    """
    if not 0 <= x < 1:
        raise DomainError(f"point must lie in [0,1), got {x}")
    if n < 1:
        raise DomainError(f"digit count must be >= 1, got {n}")
    series.check_digit_sum(n)
    digits = []
    cur = x
    for _ in range(n):
        c, cur = shift(dist, cur)
        digits.append(c)
    return digits, cur


def ref_compose(dist, word):
    """Integers (A, B, D) of a word's composed branches, folded from the left."""
    series.check_digit_sum(sum(word))
    a, b, den = 0, 1, 1
    for d in word:
        p, q, l = dist.affine(d)
        a, b, den = a * l + b * p, b * q, den * l
    return a, b, den


def ref_decode_periodic(dist, x, max_steps=4096):
    """Period detection by `shift` and a dict of every (numerator, denominator) seen.

    Returns the DigitSeq at the first repeated remainder, verified by
    encoding, or NotDetected with the first max_steps digits. It has no
    aperiodicity certificate, so an aperiodic point always walks the whole
    budget.
    """
    seen = {}
    digits = []
    cur = x
    while len(digits) <= max_steps:
        key = (cur.numerator, cur.denominator)
        if key in seen:
            j = seen[key]
            seq = DigitSeq(tuple(digits[:j]), tuple(digits[j:]))
            if encode(dist, seq) != x:
                raise ProbminkError(f"period detection produced an inconsistent stream for {x}")
            return seq
        seen[key] = len(digits)
        c, cur = shift(dist, cur)
        digits.append(c)
    return NotDetected(tuple(digits[:max_steps]))


def ref_exact_walk(dist, x, max_steps=4096):
    """`decode_periodic` as one integer loop per digit, with W tested on each new prime.

    The remainder n/d is held as plain integers with d = e*f, where f
    collects the primes of S (`dist.branch_primes()`), so gcd(L, d) is the
    small gcd(L, f). e only gains primes, and (n, f) keys a remainder until
    it does; then no earlier remainder can come back, and the dict is
    cleared. Each new prime of e is tested against W. A power-of-two Q
    divides by shifts. The stream found is checked against `encode`, whose
    digit sums are held to the budget.
    """
    primes, w = dist.branch_primes()
    n, d = x.numerator, x.denominator
    f = _smooth_part(d, primes)
    witness = math.gcd(d // f, w)
    if witness > 1:
        return Aperiodic((), witness, 0)
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
        c = dist._digit(n, d)
        p, q, l = dist.affine(c)
        digits.append(c)
        g = math.gcd(l, f)
        if g > 1:
            l, f, d = l // g, f // g, d // g
        m = n * l - p * d
        if q & (q - 1):
            n, r = divmod(m, q)
        else:
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
            witness = math.gcd(q // smooth, w)
            if witness > 1:
                return Aperiodic(tuple(digits), witness, len(digits))
            seen.clear()


def ref_digit_seq(preperiod, period):
    """(preperiod, period) in DigitSeq's canonical form, one absorbed digit at a time.

    The period shrinks to its shortest repeating word, then each trailing
    preperiod digit equal to the period's last digit is dropped and the
    period rotated right by one. Every step slices a tuple, so this is
    quadratic in the number of absorbed digits.
    """
    pre, per = tuple(preperiod), tuple(period)
    n = len(per)
    for d in range(1, n + 1):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    while pre and pre[-1] == per[-1]:
        pre = pre[:-1]
        per = (per[-1],) + per[:-1]
    return pre, per


def ref_digits(seq, n):
    """The first n digits of a DigitSeq, one digit appended per step."""
    out = list(seq.preperiod[:n])
    k = 0
    while len(out) < n:
        out.append(seq.period[k % len(seq.period)])
        k += 1
    return tuple(out)


def ref_render_decimal(value, precision=30):
    """Round-half-even fixed point by Fraction sign and magnitude; `…` marks inexact."""
    sign = "-" if value < 0 else ""
    mag = -value if value < 0 else value
    scale = 10**precision
    q, r = divmod(mag.numerator * scale, mag.denominator)
    if 2 * r > mag.denominator or (2 * r == mag.denominator and q % 2 == 1):
        q += 1
    ipart, fpart = divmod(q, scale)
    out = f"{sign}{ipart}.{str(fpart).zfill(precision)}"
    return out + "…" if r != 0 else out


def ref_mc_sample_int(s, t, a, depth=64):
    """Monte Carlo sample (A, e), value A / (3 * 2^e), at x = a / 2^64, q = s/t.

    Walks the digits of x one at a time under the geometric family with
    success probability s/t, keeping the remainder as an unreduced integer
    pair, and accumulates the series partial sum as m / 2^(s_k - 1): the
    exact value when the remainder hits zero, otherwise the midpoint of the
    depth-`depth` enclosure.
    """
    u = t - s
    num, den = a, 1 << 64
    m = 0
    s_k = 0
    sign = 1
    for _ in range(depth):
        if num == 0:
            return 6 * m + 2 * sign, s_k
        diff = den - num
        up, tp, c = u, t, 1
        while up * den >= tp * diff:
            up *= u
            tp *= t
            c += 1
        num, den = t * (den * (up // u) - diff * (tp // t)), den * s * (up // u)
        m = (m << c) + sign
        s_k += c
        sign = -sign
    if num == 0:
        return 6 * m + 2 * sign, s_k
    return 3 * (4 * m + sign), s_k + 1


def ref_mc_generic(dist, samples, rng, depth=64):
    """Exact (sum, sum of squares) of depth-`depth` enclosure midpoints at seeded draws.

    Each draw a gives x = a / 2^64; each midpoint is one Fraction, and the
    sums are two Fraction additions per sample over growing denominators.
    """
    total = Fraction(0)
    sq_total = Fraction(0)
    for _ in range(samples):
        x = Fraction(rng.getrandbits(64), 1 << 64)
        v = eval_minkowski_enclosure(dist, x, depth).midpoint
        total += v
        sq_total += v * v
    return total, sq_total


def ref_bucket_index(dist, bits, size, measure_bits):
    """Bucket by bucket, the longest heavy word whose cylinder holds the bucket.

    A word is heavy when it has at most `size` digits and its cylinder has
    measure at least 2^-measure_bits. Entry b, for the bucket
    [b, b+1) / 2^bits, is that word, or None when no heavy word's cylinder
    holds the whole bucket. The word grows by the heavy child whose
    cylinder holds the bucket's left end, while that cylinder holds the
    whole bucket; cylinders are Fractions from `ref_prefix` and `ref_pmf`.
    """
    least = Fraction(1, 1 << measure_bits)
    head = len(dist.head_tail()[0])
    # (digit, prefix, mass) of each digit whose own mass is heavy
    heavy = []
    c = 1
    while True:
        mass = ref_pmf(dist, c)
        if mass >= least:
            heavy.append((c, ref_prefix(dist, c), mass))
        elif c > head:
            break
        c += 1
    # word -> (its heavy children's lower ends, and each child's (low, high, word, mass))
    children = {}

    def heavy_children(word, low, mass):
        if word not in children:
            kids = [(low + mass * p, low + mass * (p + m), word + (c,), mass * m)
                    for c, p, m in heavy if mass * m >= least]
            children[word] = [kid[0] for kid in kids], kids
        return children[word]

    index = []
    for b in range(1 << bits):
        y, z = Fraction(b, 1 << bits), Fraction(b + 1, 1 << bits)
        word, low, mass, best = (), Fraction(0), Fraction(1), None
        while len(word) < size:
            lows, kids = heavy_children(word, low, mass)
            i = bisect_right(lows, y) - 1
            if i < 0 or y >= kids[i][1] or z > kids[i][1]:
                break
            low, _, word, mass = kids[i]
            best = word
        index.append(best)
    return index
