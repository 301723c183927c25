"""Three independent evaluations of the integral of the induced function.

The mass transforms alpha = sum p_j / 2^j and gamma = sum p_j^2 / 2^j are
the values T(1, 1/2) and T(2, 1/2) of the distribution's closed-form
`mass_transform` T(a, z) = sum p_j^a z^j. Two candidate closed forms for the
integral are reported side by side: 2*alpha/(1+alpha), produced by applying
the change of variables x = prefix(j) + pmf(j)*y once per first-digit
cylinder, and 2*alpha/(1+gamma), the variant in which the substitution
picks up a second factor of pmf(j). Neither is presumed correct; a rigorous
cylinder quadrature with an exact error enclosure adjudicates, and a seeded
Monte Carlo estimate cross-checks the winner.

The Monte Carlo kernels decode each sample x = a / 2^64 to depth 64 and
give the midpoint of its enclosure, exact where the expansion terminates,
as integers (A, e) with the value A / (3 * 2^e). The dyadic law reads the
digits from bit masks. The table walk serves any law: it reads up to three
digits per lookup in the law's word table (`expansion._word_table`), each
word certified by an integer cylinder test, and takes a miss through the
law's own digit search and `affine`, as `decode` does. Geometric laws run
it; custom heads decode through `decode`, which reads the same tables.
The values of every family are summed as integers over a running power
of two (`_mc_sums`), and each sum becomes one Fraction, reduced by
`series._dyadic` with a shift and a gcd with 3 or 9, so a run equals the
one-digit-per-step rational loop exactly.
"""

import functools
import math
import random
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple

from .distribution import Distribution
from .errors import DomainError
from .expansion import _word_table
from .fmt import rational_payload
from .minkowski import eval_minkowski_enclosure
from .series import _dyadic


def alpha(dist: Distribution) -> Fraction:
    """Exact sum of pmf(j) / 2^j over all digits j: the mass transform T(1, 1/2)."""
    return dist.mass_transform(1, Fraction(1, 2))


def gamma(dist: Distribution) -> Fraction:
    """Exact sum of pmf(j)^2 / 2^j over all digits j, T(2, 1/2); strictly below 1."""
    return dist.mass_transform(2, Fraction(1, 2))


class ClosedForms(NamedTuple):
    """The two candidate closed forms for the integral."""

    alpha_form: Fraction
    gamma_form: Fraction


def integral_closed(dist: Distribution) -> ClosedForms:
    """Both closed-form candidates, 2a/(1+a) and 2a/(1+g)."""
    a = alpha(dist)
    g = gamma(dist)
    return ClosedForms(alpha_form=2 * a / (1 + a), gamma_form=2 * a / (1 + g))


class QuadratureEnclosure(NamedTuple):
    """Exact Riemann-sum enclosure [lower, upper] of the integral.

    corner_sum is the measure-weighted sum of the function at the left
    corner of every depth-n cylinder with digits <= cap; oscillation bounds
    the within-cylinder variation and uncovered bounds the mass of cylinders
    beyond the digit cap (the function lies in (0,1), so they contribute
    between 0 and their measure).
    """

    lower: Fraction
    upper: Fraction
    corner_sum: Fraction
    oscillation: Fraction
    uncovered: Fraction
    depth: int
    cap: int

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Fraction:
        return (self.lower + self.upper) / 2

    def contains(self, value: Fraction) -> bool:
        return self.lower <= value <= self.upper


def integral_quadrature(dist: Distribution, depth: int, cap: int) -> QuadratureEnclosure:
    """Rigorous enclosure from depth-`depth` cylinders with digits <= cap.

    The corner sum never enumerates words: the series recursion
    value(c then rest) = 2^(1-c) - 2^(-c) value(rest) makes the sum over
    capped words of measure * corner value satisfy

        S_k = 2 a g^(k-1) - a S_(k-1),  S_0 = 2/3,

    with a = sum over c <= cap of pmf(c) 2^(-c) and g the capped mass. The
    oscillation term is 2 a^depth exactly by the same product structure.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if cap < 1:
        raise DomainError(f"digit cap must be >= 1, got {cap}")
    a = sum((dist.pmf(c) / (1 << c) for c in range(1, cap + 1)), Fraction(0))
    g = dist.prefix(cap + 1)
    corner = Fraction(2, 3)
    g_power = Fraction(1)
    for _ in range(depth):
        corner = 2 * a * g_power - a * corner
        g_power *= g
    oscillation = 2 * a**depth
    uncovered = 1 - g_power
    return QuadratureEnclosure(
        lower=corner - oscillation,
        upper=corner + oscillation + uncovered,
        corner_sum=corner,
        oscillation=oscillation,
        uncovered=uncovered,
        depth=depth,
        cap=cap,
    )


class MCEstimate(NamedTuple):
    """Seeded Monte Carlo estimate with exact mean and sample variance."""

    mean: Fraction
    variance: Fraction
    stderr: float
    samples: int
    seed: int


_MC_DEPTH = 64


def _mc_sample_dyadic(a: int) -> tuple:
    """The sample at x = a / 2^64 under the dyadic law, from bit masks.

    Digit k of x is a run of one bits closed by the k-th zero bit, at
    binary position s_k. After the zero that follows the last one bit, at
    position n_bits = 65 - (trailing zeros of a), the remainder is 0 and the
    stream continues with ones. So the accumulator
    m = sum over k of (-1)^(k-1) 2^(n_bits - s_k) is the odd-numbered zero
    bits (counted from the top) minus the even-numbered ones, and a prefix
    XOR from the top picks out the odd ones. Leading zero bits of a are digit
    1s like any other. Returns (A, e) as `_mc_sample_table` does.
    """
    if a == 0:
        # every digit of 0 is 1, and the series of all ones is 2/3
        return 2, 0
    trailing = (a & -a).bit_length() - 1
    n_bits = 65 - trailing
    # bit n_bits - p is set when binary digit p of x is 0, for p = 1..n_bits
    zeros = ((1 << n_bits) - 1) ^ ((a << 1) >> trailing)
    odd = zeros ^ (zeros >> 1)
    odd ^= odd >> 2
    odd ^= odd >> 4
    odd ^= odd >> 8
    odd ^= odd >> 16
    odd ^= odd >> 32
    odd ^= odd >> 64
    odd &= zeros
    # 6m + 2(-1)^n with m = odd - (zeros - odd) and n zero bits in all
    sign = -2 if zeros.bit_count() & 1 else 2
    return 12 * odd - 6 * zeros + sign, n_bits


def _mc_sample_table(dist: Distribution, table, bits: int, a: int) -> tuple:
    """The sample at x = a / 2^64 under any law, on its word table.

    Walks x = n/d as an unreduced integer pair, from n = a and d = 2^64.
    A lookup in `table`, the law's word table (`expansion._word_table`) or
    None, proposes the longest word of the table that x's digits can start
    with, and the integer test 0 <= n*D - A*d < d*B certifies it. Then
    n, d <- n*D - A*d, d*B, and the series accumulator takes the word in
    one step, m <- (m << S_w) + sign * M_w, with S_w the word's digit sum
    and M_w its accumulator from m = 0; the sign flips when the word's
    length is odd. A failed lookup costs a plain step: c from
    `dist._digit(n, d, bits)`, (P, Q, L) = affine(c) and
    n, d <- n*L - P*d, d*Q. Each digit's series term is accumulated as
    m / 2^(s_k - 1). Returns (A, e) with the sample value A / (3 * 2^e):
    the exact value when the remainder hits zero (the stream ends in ones
    and the alternating tail closes in one step), otherwise the midpoint
    of the depth-64 enclosure.

    The walk can end inside its last certified word: at digit 64, or at a
    zero remainder, whose first zero is after the word with its trailing
    1s removed (digit 1 fixes 0, and it maps a nonzero remainder to a
    nonzero one). `bits` is a lower bound on the bits that each tail digit
    adds to the power it builds, bit_length(r's denominator) - 1, so the
    search refuses a digit c once c*bits passes the digit budget. A digit
    inside the budget can still need a power of hundreds of megabits: at
    q = 1/10^8 a digit near 10^7 has t^c of about 3*10^8 bits.
    """
    digit, affine = dist._digit, dist.affine
    if table is not None:
        scale, lefts, rows = table
    d = 1 << _MC_DEPTH
    n = a
    m = s_k = 0
    sign = 1
    left = _MC_DEPTH
    while left and n:
        if table is not None:
            a_w, b_w, d_w, word, sum_w, alt = rows[bisect_right(lefts, n * scale // d) - 1]
            r = n * d_w - a_w * d
            db = d * b_w
            if 0 <= r < db:
                length = len(word)
                if r and length < left:
                    n, d = r, db
                    m = (m << sum_w) + sign * alt
                    s_k += sum_w
                    if length & 1:
                        sign = -sign
                    left -= length
                    continue
                # the walk ends in this word: at digit 64, or at its zero remainder
                if not r:
                    while word[-1] == 1:
                        word = word[:-1]
                if len(word) <= left:
                    n = r
                for c in word[:left]:
                    m = (m << c) + sign
                    s_k += c
                    sign = -sign
                break
        c = digit(n, d, bits)
        p, q, l = affine(c)
        n, d = n * l - p * d, d * q
        m = (m << c) + sign
        s_k += c
        sign = -sign
        left -= 1
    if n:
        return 3 * (4 * m + sign), s_k + 1
    return 6 * m + 2 * sign, s_k


def _mc_sums(sample, samples: int, rng: random.Random) -> tuple:
    """Exact (sum, sum of squares) of sample(a) = (A, e), the value A / (3 * 2^e), at seeded a.

    The values are summed over running common powers of two with integer
    shifts only, so the totals are exact and independent of their order.
    """
    total, total_exp = 0, 0
    sq_total, sq_exp = 0, 0
    for _ in range(samples):
        a_num, e = sample(rng.getrandbits(_MC_DEPTH))
        if e > total_exp:
            total <<= e - total_exp
            total_exp = e
        total += a_num << (total_exp - e)
        e2 = 2 * e
        if e2 > sq_exp:
            sq_total <<= e2 - sq_exp
            sq_exp = e2
        sq_total += a_num * a_num << (sq_exp - e2)
    return _dyadic(total, 3, total_exp), _dyadic(sq_total, 9, sq_exp)


def _mc_sample_decode(dist: Distribution, a: int) -> tuple:
    """The sample at x = a / 2^64 from `decode`: the path for custom heads.

    The depth-64 enclosure's ends have denominators 2^k, or both 3 * 2^k
    where the expansion terminates, so their midpoint is num / (2 * den)
    over the larger denominator den, returned as (A, e). The smaller
    denominator divides den by a power of two, so its numerator is
    shifted into place.
    """
    _, lower, upper = eval_minkowski_enclosure(dist, _dyadic(a, 1, _MC_DEPTH), _MC_DEPTH)
    num, den = lower.numerator, lower.denominator
    up_num, up_den = upper.numerator, upper.denominator
    gap = up_den.bit_length() - den.bit_length()
    if gap < 0:
        num += up_num << -gap
    else:
        num = (num << gap) + up_num
        den = up_den
    return (3 * num, den.bit_length()) if den % 3 else (num, (den // 3).bit_length())


def integral_mc(dist: Distribution, samples: int, seed: int) -> MCEstimate:
    """Seeded Monte Carlo estimate of the integral.

    Draws uniform 64-bit dyadic rationals and averages the midpoints of
    depth-64 enclosures (exact values where the expansion terminates).
    A law with no head, a geometric tail alone (the dyadic and geometric
    families), runs an integer kernel, `_mc_sample_dyadic` or
    `_mc_sample_table`, whose values are `_mc_sample_decode`'s (the path
    for custom heads) sample for sample; runs are reproducible.
    """
    if samples < 1:
        raise DomainError(f"sample count must be >= 1, got {samples}")
    head, _, ratio = dist.head_tail()
    if head:
        sample = functools.partial(_mc_sample_decode, dist)
    elif ratio == Fraction(1, 2):
        sample = _mc_sample_dyadic
    else:
        sample = functools.partial(_mc_sample_table, dist, _word_table(dist),
                                   ratio.denominator.bit_length() - 1)
    total, sq_total = _mc_sums(sample, samples, random.Random(seed))
    mean = total / samples
    if samples > 1:
        variance = (sq_total - samples * mean * mean) / (samples - 1)
    else:
        variance = Fraction(0)
    stderr = math.sqrt(variance / samples)
    return MCEstimate(mean=mean, variance=variance, stderr=stderr, samples=samples, seed=seed)


class IntegralReport(NamedTuple):
    """All integral evidence for one distribution, plus the verdict.

    The verdict names whichever closed form the quadrature enclosure
    contains: "alpha_form", "gamma_form", or "both"/"neither" when the
    enclosure is too wide or excludes both.
    """

    distribution: str
    alpha: Fraction
    gamma: Fraction
    closed_form_alpha: Fraction
    closed_form_gamma: Fraction
    quadrature: QuadratureEnclosure
    mc: "MCEstimate | None"
    verdict: str

    def to_json_dict(self, precision: int = 30) -> dict:
        rational = functools.partial(rational_payload, precision=precision)
        out = {
            "distribution": self.distribution,
            "alpha": rational(self.alpha),
            "gamma": rational(self.gamma),
            "closed_form_alpha": rational(self.closed_form_alpha),
            "closed_form_gamma": rational(self.closed_form_gamma),
            "quadrature": {
                "depth": self.quadrature.depth,
                "cap": self.quadrature.cap,
                "lower": rational(self.quadrature.lower),
                "upper": rational(self.quadrature.upper),
                "width": rational(self.quadrature.width),
                "corner_sum": rational(self.quadrature.corner_sum),
                "oscillation": rational(self.quadrature.oscillation),
                "uncovered": rational(self.quadrature.uncovered),
            },
            "verdict": self.verdict,
        }
        if self.mc is not None:
            out["monte_carlo"] = {
                "samples": self.mc.samples,
                "seed": self.mc.seed,
                "mean": rational(self.mc.mean),
                "stderr": f"{self.mc.stderr:.3e}",
            }
        return out


def integral_report(
    dist: Distribution,
    depth: int = 14,
    cap: int = 40,
    samples: int = 100_000,
    seed: int = 42,
    with_mc: bool = True,
) -> IntegralReport:
    """Full adjudication run: closed forms, quadrature enclosure, Monte Carlo."""
    a = alpha(dist)
    g = gamma(dist)
    forms = integral_closed(dist)
    quad = integral_quadrature(dist, depth, cap)
    in_alpha = quad.contains(forms.alpha_form)
    in_gamma = quad.contains(forms.gamma_form)
    verdict = {(True, False): "alpha_form", (False, True): "gamma_form",
               (True, True): "both", (False, False): "neither"}[in_alpha, in_gamma]
    mc = integral_mc(dist, samples, seed) if with_mc else None
    return IntegralReport(
        distribution=dist.spec_string(),
        alpha=a,
        gamma=g,
        closed_form_alpha=forms.alpha_form,
        closed_form_gamma=forms.gamma_form,
        quadrature=quad,
        mc=mc,
        verdict=verdict,
    )
