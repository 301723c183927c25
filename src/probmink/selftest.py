"""Deterministic acceptance checks shared by the test suite and the CLI.

Each criterion function runs a self-contained, seeded verification and
returns a CheckResult. The quick flag trims sample counts for smoke runs;
the full counts are the ones the acceptance suite requires.
"""

import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .distribution import CustomPrefixTail, Dyadic, Geometric
from .expansion import DigitSeq, cylinder, decode, encode, shift
from .integral import integral_report
from .minkowski import (
    continued_fraction,
    continuity_modulus_check,
    cylinder_increment,
    eval_minkowski,
    eval_question_mark,
    functional_equation_residuals,
    graph_points,
    ifs_maps,
    monotonicity_witnesses,
    singularity_ratio_step,
)
from .series import alt_series_exact, alt_series_periodic_closed_form


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def built_in_families() -> tuple:
    """One representative of each supported distribution family."""
    return (
        Dyadic(),
        Geometric(Fraction(1, 3)),
        CustomPrefixTail((Fraction(1, 3), Fraction(1, 6)), Fraction(1, 2)),
    )


def _random_seq(rng: random.Random, max_pre: int = 8, max_per: int = 4, max_digit: int = 9) -> DigitSeq:
    pre = tuple(rng.randint(1, max_digit) for _ in range(rng.randint(0, max_pre)))
    per = tuple(rng.randint(1, max_digit) for _ in range(rng.randint(1, max_per)))
    return DigitSeq(pre, per)


def _random_point(rng: random.Random, max_den: int = 10**6) -> Fraction:
    den = rng.randint(2, max_den)
    return Fraction(rng.randrange(den), den)


def check_fixture_exactness(quick: bool = False) -> CheckResult:
    """Criterion 1: fixture values of the induced function are exact."""
    name = "1 fixture exactness"
    fixtures = {
        (1, 2): Fraction(6, 7),
        (2, 1): Fraction(2, 7),
        (1, 4): Fraction(30, 31),
        (1,): Fraction(2, 3),
    }
    for dist in (Dyadic(), Geometric(Fraction(1, 3))):
        for period, want in fixtures.items():
            seq = DigitSeq((), period)
            got = eval_minkowski(dist, seq)
            if got != want:
                return CheckResult(name, False, f"period {period}: got {got}, want {want}")
            via_point = eval_minkowski(dist, encode(dist, seq))
            if via_point != want:
                return CheckResult(
                    name, False, f"period {period} via decode: got {via_point}, want {want}"
                )
    return CheckResult(name, True, "4 periodic fixtures, by stream and by decoded point")


def check_periodic_closed_form(quick: bool = False) -> CheckResult:
    """Criterion 2: the two-digit-period closed form on all 64 pairs."""
    name = "2 periodic closed form"
    for v in range(1, 9):
        for w in range(1, 9):
            direct = alt_series_exact(DigitSeq((), (v, w)))
            closed = alt_series_periodic_closed_form(v, w)
            if direct != closed:
                return CheckResult(name, False, f"(v,w)=({v},{w}): {direct} != {closed}")
    return CheckResult(name, True, "all 64 pairs (v,w) in [1,8]^2 match exactly")


def check_functional_equation(quick: bool = False) -> CheckResult:
    """Criterion 3: shift-orbit residuals vanish exactly."""
    name = "3 functional equation"
    rng = random.Random(1003)
    families = built_in_families()
    trials = 60 if quick else 500
    for k in range(trials):
        dist = families[k % len(families)]
        seq = _random_seq(rng, max_pre=4, max_per=3, max_digit=6)
        depth = rng.randint(1, 10)
        residuals = functional_equation_residuals(dist, seq, depth)
        if any(r != 0 for r in residuals):
            return CheckResult(
                name, False, f"nonzero residual for {dist.spec_string()}, seq {seq}, depth {depth}"
            )
    return CheckResult(name, True, f"{trials} random (family, stream, depth) triples, all residuals 0")


def check_codec_roundtrip(quick: bool = False) -> CheckResult:
    """Criterion 4: decode inverts encode; one shift step is exact."""
    name = "4 codec round-trip"
    rng = random.Random(1004)
    trials = 30 if quick else 200
    for dist in built_in_families():
        for _ in range(trials):
            seq = _random_seq(rng)
            x = encode(dist, seq)
            digits, _ = decode(dist, x, 30)
            if tuple(digits) != seq.digits(30):
                return CheckResult(name, False, f"{dist.spec_string()}: round-trip failed for {seq}")
        for _ in range(trials):
            x = _random_point(rng)
            c, y = shift(dist, x)
            if dist.prefix(c) + dist.pmf(c) * y != x or not 0 <= y < 1:
                return CheckResult(name, False, f"{dist.spec_string()}: shift identity failed at {x}")
    return CheckResult(name, True, f"{trials} round-trips and {trials} shift identities per family")


def check_cylinder_laws(quick: bool = False) -> CheckResult:
    """Criterion 5: cylinder measure, nesting, and child partition."""
    name = "5 cylinder laws"
    rng = random.Random(1005)
    families = built_in_families()
    trials = 20 if quick else 100
    for k in range(trials):
        dist = families[k % len(families)]
        word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        cyl = cylinder(dist, word)
        product = Fraction(1)
        for d in word:
            product *= dist.pmf(d)
        if cyl.sup - cyl.inf != cyl.measure or cyl.measure != product:
            return CheckResult(name, False, f"measure law failed for {word}")
        if len(word) > 1:
            parent = cylinder(dist, word[:-1])
            if not (parent.inf <= cyl.inf and cyl.sup <= parent.sup):
                return CheckResult(name, False, f"nesting failed for {word}")
        children = sum((cylinder(dist, word + (c,)).measure for c in range(1, 7)), Fraction(0))
        tail = (1 - dist.prefix(7)) * cyl.measure
        if children + tail != cyl.measure:
            return CheckResult(name, False, f"child partition failed for {word}")
    return CheckResult(name, True, f"{trials} random prefixes to depth 10, all laws exact")


def check_increment_oracle(quick: bool = False) -> CheckResult:
    """Criterion 6: increment sign and magnitude; the halved variant fails."""
    name = "6 increment oracle"
    rng = random.Random(1006)
    families = built_in_families()
    trials = 20 if quick else 100
    for k in range(trials):
        dist = families[k % len(families)]
        word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 8)))
        rep = cylinder_increment(dist, word)
        n = len(word)
        if (rep.delta < 0) != (n % 2 == 1):
            return CheckResult(name, False, f"sign law failed for {word}")
        if abs(rep.delta) * (3 << (rep.digit_sum - 1)) != 1:
            return CheckResult(name, False, f"magnitude law failed for {word}: delta {rep.delta}")
    # the tempting variant with half the magnitude, (-1)^n / (3 * 2^(s_n)),
    # misses the directly computed increment by an exact factor of 2
    rep = cylinder_increment(Dyadic(), (2,))
    variant = Fraction(-1, 3 << 2)
    if rep.delta != Fraction(-1, 6) or variant == rep.delta or 2 * variant != rep.delta:
        return CheckResult(name, False, f"discrepancy record failed: delta {rep.delta}")
    return CheckResult(
        name,
        True,
        f"{trials} cylinders obey sign and |delta|*3*2^(s-1)=1; "
        f"halved variant {variant} != true {rep.delta} (factor 2 recorded)",
    )


def check_ratio_formula(quick: bool = False) -> CheckResult:
    """Criterion 7: the quotient step factor 1/(pmf(c) 2^c)."""
    name = "7 ratio formula"
    rng = random.Random(1007)
    families = built_in_families()
    trials = 20 if quick else 100
    for k in range(trials):
        dist = families[k % len(families)]
        word = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        c = rng.randint(1, 9)
        outer = cylinder_increment(dist, word + (c,))
        inner = cylinder_increment(dist, word)
        if outer.quotient / inner.quotient != singularity_ratio_step(dist, c):
            return CheckResult(name, False, f"ratio step failed for {word} + ({c},)")
    dyadic = Dyadic()
    for c in range(1, 13):
        if singularity_ratio_step(dyadic, c) != 1:
            return CheckResult(name, False, f"dyadic step at digit {c} is not 1")
    return CheckResult(name, True, f"{trials} nested pairs match; dyadic steps identically 1")


def check_continuity_modulus(quick: bool = False) -> CheckResult:
    """Criterion 8: strict shared-prefix modulus bound."""
    name = "8 continuity modulus"
    rng = random.Random(1008)
    trials = 30 if quick else 200
    done = 0
    while done < trials:
        shared = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 6)))
        s1 = DigitSeq(shared + tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4))),
                      tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4))))
        s2 = DigitSeq(shared + tuple(rng.randint(1, 9) for _ in range(rng.randint(0, 4))),
                      tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4))))
        if s1 == s2:
            continue
        l, bound, actual = continuity_modulus_check(s1, s2)
        if not (l >= len(shared) and actual < bound):
            return CheckResult(name, False, f"bound failed for {s1} vs {s2}")
        done += 1
    return CheckResult(name, True, f"{trials} forced-prefix pairs, all strictly inside the bound")


def check_monotonicity_witnesses(quick: bool = False) -> CheckResult:
    """Criterion 9: the two witness pairs with exact increments."""
    name = "9 non-monotonicity witnesses"
    for dist in built_in_families():
        decreasing, increasing = monotonicity_witnesses(dist)
        if decreasing.delta != Fraction(-4, 7) or increasing.delta != Fraction(24, 217):
            return CheckResult(name, False, f"deltas wrong under {dist.spec_string()}")
        if not (decreasing.low_x < decreasing.high_x and increasing.low_x < increasing.high_x):
            return CheckResult(name, False, f"x-order wrong under {dist.spec_string()}")
    return CheckResult(name, True, "deltas -4/7 and +24/217 with verified x-order, all families")


def check_integral_adjudication(quick: bool = False) -> CheckResult:
    """Criterion 10: quadrature picks one closed form; Monte Carlo agrees."""
    name = "10 integral adjudication"
    depth = 12 if quick else 14
    samples = 4_000 if quick else 100_000
    verdicts = []
    for dist, candidates in (
        (Dyadic(), (Fraction(1, 2), Fraction(7, 12))),
        (Geometric(Fraction(1, 3)), (Fraction(2, 5), Fraction(7, 15))),
    ):
        report = integral_report(dist, depth=depth, cap=40, samples=samples, seed=42)
        quad = report.quadrature
        if (report.closed_form_alpha, report.closed_form_gamma) != candidates:
            return CheckResult(name, False, f"closed forms differ from {candidates}")
        if quad.width > Fraction(1, 1 << 12) + quad.uncovered:
            return CheckResult(name, False, f"enclosure too wide: {quad.width}")
        inside = [quad.contains(c) for c in candidates]
        if inside.count(True) != 1:
            return CheckResult(name, False, f"{dist.spec_string()}: {inside.count(True)} candidates inside")
        if report.verdict not in ("alpha_form", "gamma_form"):
            return CheckResult(name, False, f"no verdict: {report.verdict}")
        mc = report.mc
        gap = mc.mean - quad.midpoint
        if gap * gap * mc.samples > 9 * mc.variance:
            return CheckResult(name, False, f"{dist.spec_string()}: Monte Carlo outside 3 standard errors")
        winner = candidates[0] if inside[0] else candidates[1]
        verdicts.append(f"{dist.spec_string()} -> {report.verdict} ({winner})")
    return CheckResult(name, True, "; ".join(verdicts) + "; Monte Carlo within 3 standard errors")


def check_question_mark(quick: bool = False) -> CheckResult:
    """Criterion 11: question-mark fixtures, form invariance, monotonicity."""
    name = "11 question mark"
    fixtures = {
        Fraction(0): Fraction(0),
        Fraction(1): Fraction(1),
        Fraction(1, 2): Fraction(1, 2),
        Fraction(1, 3): Fraction(1, 4),
        Fraction(2, 5): Fraction(3, 8),
    }
    for x, want in fixtures.items():
        got = eval_question_mark(x)
        if got != want:
            return CheckResult(name, False, f"?({x}) = {got}, want {want}")
    rng = random.Random(1011)
    trials = 30 if quick else 200
    for _ in range(trials):
        x = _random_point(rng, max_den=10**4)
        digits = continued_fraction(x)
        if not digits or digits[-1] < 2:
            continue
        variant = digits[:-1] + (digits[-1] - 1, 1)
        if alt_series_exact(digits) != alt_series_exact(variant):
            return CheckResult(name, False, f"form invariance failed at {x}")
    for _ in range(trials):
        x, y = sorted((_random_point(rng, 10**4), _random_point(rng, 10**4)))
        if x == y:
            continue
        if not eval_question_mark(x) < eval_question_mark(y):
            return CheckResult(name, False, f"monotonicity failed at {x} < {y}")
    return CheckResult(name, True, f"5 fixtures, {trials} form-invariance and {trials} order checks")


def check_graph_and_ifs(quick: bool = False) -> CheckResult:
    """Criterion 12: graph samples sit on the function; map coefficients."""
    name = "12 graph and affine system"
    for dist in built_in_families():
        result = graph_points(dist, 3, 4)
        if len(result.points) != 64:
            return CheckResult(name, False, f"{dist.spec_string()}: {len(result.points)} points")
        for x, y in result.points:
            if eval_minkowski(dist, x) != y:
                return CheckResult(name, False, f"{dist.spec_string()}: graph point ({x},{y}) off")
        # the affine system reproduces the halved graph: composing the word's
        # maps over the base point (0, 1/3) lands on (x, value(x)/2)
        maps = ifs_maps(dist, 4)
        base = (encode(dist, DigitSeq((), (1,))), alt_series_exact(DigitSeq((), (1,))) / 2)
        for word, (x, y) in zip(itertools.product(range(1, 5), repeat=3), result.points):
            px, py = base
            for t in reversed(word):
                px, py = maps[t - 1].apply(px, py)
            if (px, py) != (x, y / 2):
                return CheckResult(name, False, f"{dist.spec_string()}: map composite off at {word}")
    dyadic_map = ifs_maps(Dyadic(), 1)[0]
    if (dyadic_map.x_scale, dyadic_map.x_offset) != (Fraction(1, 2), Fraction(0)):
        return CheckResult(name, False, "dyadic x coefficients wrong")
    if (dyadic_map.y_scale, dyadic_map.y_offset) != (Fraction(-1, 2), Fraction(1, 2)):
        return CheckResult(name, False, "dyadic y coefficients wrong")
    if dyadic_map.fixed_point() != (Fraction(0), Fraction(1, 3)):
        return CheckResult(name, False, "dyadic fixed point wrong")
    geo_map = ifs_maps(Geometric(Fraction(1, 3)), 2)[1]
    if (geo_map.x_offset, geo_map.x_scale) != (Fraction(1, 3), Fraction(2, 9)):
        return CheckResult(name, False, "geometric x coefficients wrong")
    if (geo_map.y_offset, geo_map.y_scale) != (Fraction(1, 4), Fraction(-1, 4)):
        return CheckResult(name, False, "geometric y coefficients wrong")
    return CheckResult(name, True, "64 exact graph points per family; coefficients and composites match")


CRITERIA = (
    check_fixture_exactness,
    check_periodic_closed_form,
    check_functional_equation,
    check_codec_roundtrip,
    check_cylinder_laws,
    check_increment_oracle,
    check_ratio_formula,
    check_continuity_modulus,
    check_monotonicity_witnesses,
    check_integral_adjudication,
    check_question_mark,
    check_graph_and_ifs,
)


def run_all(quick: bool = False) -> list:
    """Run every acceptance criterion, returning the results in order."""
    return [criterion(quick) for criterion in CRITERIA]
