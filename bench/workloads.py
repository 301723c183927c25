"""Seeded workloads: every input one pass sends to `probmink.cli.main`.

Each workload function takes a `random.Random` and returns (ops, warmup).
An op is one CLI call with the check its output must pass. Sizes and
families of every pass are fixed, so that passes made from different seeds
cost about the same: the seed picks digits, words, sample counts within
2 % and Monte Carlo seeds.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import reference as ref
from reference import Family, Mismatch


@dataclass
class Op:
    """One CLI call.

    `kind` names the subcommand form, `size` the input size it reports
    failures with. `ladder` is the period length for ops on the exact_eval
    ladder. When `no_exact` is set the input has no exact answer within
    the program's budget, so a typed error (exit >= 2 with a message)
    counts as success. `check` validates the stdout of an exit-0 run; None
    means no exit-0 answer can be right.
    """

    argv: tuple
    kind: str
    size: int
    check: Optional[Callable[[str], None]]
    ladder: Optional[int] = None
    no_exact: bool = False


def _lines(out: str, n: int) -> list:
    lines = out.split("\n")
    if len(lines) != n + 1 or lines[-1] != "":
        raise Mismatch(f"expected {n} output lines, got {len(lines) - 1}")
    return lines[:-1]


def _expect_payload(obj, value: Fraction, what: str) -> None:
    ref.expect_rational(obj["rational"], value, what)
    ref.expect_equal(obj["decimal"], ref.decimal(value), what + " decimal")


def value_check(compute: Callable[[], Fraction], fmt: str) -> Callable[[str], None]:
    """The `value` output of eval, encode and qmark."""

    def check(out: str) -> None:
        value = compute()
        if fmt == "json":
            _expect_payload(json.loads(out)["value"], value, "value")
        else:
            first, second = _lines(out, 2)
            ref.expect_rational(first, value, "value")
            ref.expect_equal(second, ref.decimal(value), "decimal")

    return check


def _fmt_args(fmt: str) -> tuple:
    return ("--format", "json") if fmt == "json" else ()


def _word(rng, n: int, hi: int) -> tuple:
    return tuple(rng.randint(1, hi) for _ in range(n))


def _stream(rng, length: int) -> tuple:
    """A canonical stream: primitive period, preperiod not absorbable."""
    while True:
        per = _word(rng, length, 3)
        if ref.is_primitive(per):
            break
    pre = list(_word(rng, rng.randint(0, 8), 3))
    if pre and pre[-1] == per[-1]:
        pre[-1] = per[-1] % 3 + 1
    return tuple(pre), per


# ---------------------------------------------------------------- exact_eval

EXACT_FAMILIES = ("dyadic", "geometric:1/3", "custom:1/3,1/4;1/2")
LADDER = (125, 250, 500, 1000, 2000)
QMARK_LENGTHS = (250, 500, 1000)
# x in [0,1) whose geometric:1/3 expansion repeats no remainder in 4096 steps
NO_PERIOD_X = ("2/7", "4/7", "6/7", "1/5", "2/5", "3/5", "4/5", "1/11", "5/11", "2/13")


def _ladder_ops(fam: Family, pre, per, fmt: str) -> list:
    spec, length = fam.spec, len(per)
    x = ref.encode(fam, pre, per)
    text = ref.canonical_text(pre, per)
    fmt_args = _fmt_args(fmt)

    def value():
        return ref.series_periodic(pre, per)

    def check_decode(out: str) -> None:
        got = json.loads(out)["digits"] if fmt == "json" else _lines(out, 1)[0]
        ref.expect_equal(got, text, "digits")

    def check_enclose(out: str) -> None:
        lower, upper = ref.enclosure(pre, per, length)
        if fmt == "json":
            obj = json.loads(out)
            _expect_payload(obj["lower"], lower, "lower")
            _expect_payload(obj["upper"], upper, "upper")
            ref.expect_equal(obj["exact"], lower == upper, "exact")
        else:
            lines = _lines(out, 4)
            ref.expect_equal(lines, [
                f"lower {ref.rat(lower)}",
                f"upper {ref.rat(upper)}",
                f"lower_decimal {ref.decimal(lower)}",
                f"upper_decimal {ref.decimal(upper)}",
            ], "enclosure")

    xs = ref.rat(x)
    return [
        Op(("eval", "--dist", spec, "--x", xs) + fmt_args, "eval --x", length,
           value_check(value, fmt), ladder=length),
        Op(("decode", "--dist", spec, "--x", xs, "--periodic") + fmt_args,
           "decode --periodic", length, check_decode, ladder=length),
        Op(("eval", "--dist", spec, "--digits", text) + fmt_args, "eval --digits", length,
           value_check(value, fmt), ladder=length),
        Op(("eval", "--dist", spec, "--x", xs, "--enclose", str(length)) + fmt_args,
           "eval --enclose", length, check_enclose, ladder=length),
    ]


def _qmark_op(rng, length: int) -> Op:
    digits = _word(rng, length - 1, 4) + (rng.randint(2, 4),)
    x = ref.cf_value(digits)
    return Op(("qmark", "--x", ref.rat(x)), "qmark", length,
              value_check(lambda: ref.question_mark(x), "plain"))


def _decode_check(fam: Family, x: Fraction) -> Callable[[str], None]:
    """Any exit-0 stream for x must encode back to x."""

    def check(out: str) -> None:
        text = _lines(out, 1)[0]
        pre_text, _, per_text = text.rstrip(")").partition("(")
        pre = tuple(int(d) for d in pre_text.split(",") if d)
        per = tuple(int(d) for d in per_text.split(","))
        ref.expect_equal(ref.encode(fam, pre, per), x, "decoded stream")

    return check


def _out_of_budget_ops(rng) -> list:
    """Inputs with no exact answer in budget; three of them crash at the seed."""
    geo = Family("geometric:1/3")
    x = rng.choice(NO_PERIOD_X)
    # the continued fraction of (10^k+7)/(3*10^k) holds a digit near 10^(k-1)
    k = rng.randint(80, 120)
    huge_cf = f"{10**k + 7}/{3 * 10**k}"
    # a two-digit period whose value has a denominator of v+w bits
    v = rng.randint(7000, 8000)
    w = rng.randint(15000, 16000) - v
    # a literal longer than the 4300-digit int-string limit
    n = rng.randint(4301, 4400)
    long_literal = "1/1" + "".join(str(rng.randint(0, 9)) for _ in range(n - 1))
    long_value = Fraction(2 * ((1 << w) - 1), (1 << (v + w)) - 1)
    return [
        Op(("eval", "--dist", geo.spec, "--x", "5/7"), "eval --x", 4096, None, no_exact=True),
        Op(("decode", "--dist", geo.spec, "--x", x, "--periodic"), "decode --periodic", 4096,
           _decode_check(geo, Fraction(x)), no_exact=True),
        Op(("qmark", "--x", huge_cf), "qmark", len(huge_cf), None, no_exact=True),
        Op(("eval", "--dist", "dyadic", "--digits", f"({v},{w})"), "eval --digits", v + w,
           value_check(lambda: long_value, "plain"), no_exact=True),
        Op(("qmark", "--x", long_literal), "qmark", n, None, no_exact=True),
    ]


def exact_eval(rng) -> tuple:
    ops = []
    for f, spec in enumerate(EXACT_FAMILIES):
        fam = Family(spec)
        for r, length in enumerate(LADDER):
            ops += _ladder_ops(fam, *_stream(rng, length), ("plain", "json")[(f + r) % 2])
    for length in QMARK_LENGTHS:
        ops += [_qmark_op(rng, length) for _ in range(2)]
    ops += _out_of_budget_ops(rng)
    warm = _ladder_ops(Family("dyadic"), *_stream(rng, LADDER[0]), "plain")[2]
    return ops, warm


# --------------------------------------------------------------- graph_sweep

SWEEP_FAMILIES = ("dyadic", "geometric:2/5", "custom:1/3,1/5;2/3")
GRAPH_SLOTS = ((3, 4), (3, 6), (3, 8), (4, 5), (4, 6), (5, 4))
DIAGNOSE_LENGTHS = (16, 32, 48, 64)
ENCODES_PER_FAMILY = 16


def _graph_op(fam: Family, depth: int, cap: int) -> Op:
    def check(out: str) -> None:
        ref.expect_equal(out, ref.graph_csv(fam, depth, cap), "graph csv")

    argv = ("graph", "--dist", fam.spec, "--depth", str(depth), "--cap", str(cap))
    return Op(argv, "graph", cap**depth, check)


def _encode_op(rng, fam: Family, fmt: str) -> Op:
    pre = _word(rng, rng.randint(0, 6), 5)
    if rng.random() < 0.25:
        # a bare list means a tail of ones
        text, per = ",".join(map(str, pre or (2,))), (1,)
        pre = pre or (2,)
    else:
        per = _word(rng, rng.randint(1, 6), 5)
        text = ",".join(map(str, pre)) + "(" + ",".join(map(str, per)) + ")"
    return Op(("encode", "--dist", fam.spec, "--digits", text) + _fmt_args(fmt), "encode",
              len(pre) + len(per), value_check(lambda: ref.encode(fam, pre, per), fmt))


def _diagnose_op(rng, fam: Family, length: int, fmt: str) -> Op:
    word = _word(rng, length, 4)

    def check(out: str) -> None:
        reports = ref.increments(fam, word)
        if fmt == "json":
            entries = json.loads(out)["prefixes"]
            ref.expect_equal(len(entries), len(reports), "prefix count")
        else:
            lines = out.split("\n")
            ref.expect_equal(lines[-1], "", "trailing newline")
            ref.expect_equal(len(lines) - 1, 2 * len(reports) - 1, "line count")
        for n, (digits, digit_sum, delta, measure, quotient) in enumerate(reports, start=1):
            step = 1 / (fam.pmf(digits[-1]) * 2 ** digits[-1])
            ratio = quotient / reports[n - 2][4] if n > 1 else None
            if fmt == "json":
                entry = entries[n - 1]
                ref.expect_equal(entry["digits"], list(digits), "digits")
                ref.expect_equal(entry["digit_sum"], digit_sum, "digit_sum")
                _expect_payload(entry["delta"], delta, "delta")
                _expect_payload(entry["measure"], measure, "measure")
                _expect_payload(entry["quotient"], quotient, "quotient")
                if ratio is not None:
                    _expect_payload(entry["quotient_step"], ratio, "quotient_step")
                    ref.expect_equal(entry["quotient_step_matches_formula"], ratio == step,
                                     "match")
                continue
            ref.expect_equal(lines[max(0, 2 * n - 3)],
                             f"depth {n} digits {','.join(map(str, digits))} "
                             f"delta {ref.rat(delta)} measure {ref.rat(measure)} "
                             f"quotient {ref.rat(quotient)}", "diagnose line")
            if ratio is not None:
                ref.expect_equal(lines[2 * n - 2],
                                 f"  quotient step {ref.rat(ratio)} formula {ref.rat(step)} "
                                 f"match {ratio == step}", "quotient step line")

    argv = ("diagnose", "--dist", fam.spec, "--digits", ",".join(map(str, word)))
    return Op(argv + _fmt_args(fmt), "diagnose", length, check)


def graph_sweep(rng) -> tuple:
    ops = []
    for fam in map(Family, SWEEP_FAMILIES):
        ops += [_graph_op(fam, depth, cap) for depth, cap in GRAPH_SLOTS]
        ops += [_encode_op(rng, fam, ("plain", "json")[i % 2])
                for i in range(ENCODES_PER_FAMILY)]
        ops += [_diagnose_op(rng, fam, n, ("plain", "json")[i % 2])
                for i, n in enumerate(DIAGNOSE_LENGTHS)]
    warm = _encode_op(rng, Family("dyadic"), "plain")
    return ops, warm


# --------------------------------------------------------------- integral_mc

MC_FAMILIES = {
    "dyadic": ("dyadic",) * 3,
    "geometric": ("geometric:1/3", "geometric:2/5", "geometric:1/4"),
    "custom": ("custom:1/3,1/5;2/3", "custom:1/4,1/6;1/2", "custom:2/5,1/10;3/5"),
}
# per family kind: (Monte Carlo ops, samples per op, samples in the `all` op)
# Fifteen custom ops make the slowest cluster wider than the ten ops beyond
# the tail percentile, and twelve quadrature and closed-form ops put the
# median inside the dyadic and geometric cluster.
MC_PLAN = {"dyadic": (6, 1000, 600), "geometric": (6, 500, 300), "custom": (15, 50, 30)}
QUAD_SLOTS = ((2, 6), (4, 4))


def _mc_op(fam: Family, samples: int, seed: int) -> Op:
    def check(out: str) -> None:
        mean, stderr = ref.monte_carlo(fam, samples, seed)
        ref.expect_equal(_lines(out, 3), [
            f"mean {ref.rat(mean)}",
            f"mean_decimal {ref.decimal(mean)}",
            f"stderr {stderr}",
        ], "monte carlo")

    argv = ("integral", "--dist", fam.spec, "--method", "mc", "--samples", str(samples),
            "--seed", str(seed))
    return Op(argv, f"integral --method mc ({fam.kind})", samples, check)


def _quad_op(fam: Family, depth: int, cap: int) -> Op:
    def check(out: str) -> None:
        lower, upper = ref.quadrature(fam, depth, cap)
        ref.expect_equal(_lines(out, 3), [
            f"lower {ref.rat(lower)}",
            f"upper {ref.rat(upper)}",
            f"width_decimal {ref.decimal(upper - lower)}",
        ], "quadrature")

    argv = ("integral", "--dist", fam.spec, "--method", "quad", "--depth", str(depth),
            "--cap", str(cap))
    return Op(argv, "integral --method quad", cap**depth, check)


def _closed_forms(fam: Family) -> tuple:
    a, g = fam.alpha(), fam.gamma()
    return a, g, 2 * a / (1 + a), 2 * a / (1 + g)


def _closed_op(fam: Family) -> Op:
    def check(out: str) -> None:
        _, _, fa, fg = _closed_forms(fam)
        ref.expect_equal(_lines(out, 2), [
            f"closed_form_alpha {ref.rat(fa)}",
            f"closed_form_gamma {ref.rat(fg)}",
        ], "closed forms")

    return Op(("integral", "--dist", fam.spec, "--method", "closed"),
              "integral --method closed", 1, check)


def _all_op(fam: Family, samples: int, seed: int) -> Op:
    depth, cap = 3, 5

    def check(out: str) -> None:
        a, g, fa, fg = _closed_forms(fam)
        lower, upper = ref.quadrature(fam, depth, cap)
        mean, stderr = ref.monte_carlo(fam, samples, seed)
        in_a, in_g = lower <= fa <= upper, lower <= fg <= upper
        verdict = {(True, False): "alpha_form", (False, True): "gamma_form",
                   (True, True): "both", (False, False): "neither"}[(in_a, in_g)]
        ref.expect_equal(_lines(out, 10), [
            f"alpha {ref.rat(a)}",
            f"gamma {ref.rat(g)}",
            f"closed_form_alpha {ref.rat(fa)}",
            f"closed_form_gamma {ref.rat(fg)}",
            f"quadrature_lower {ref.rat(lower)}",
            f"quadrature_upper {ref.rat(upper)}",
            f"quadrature_width_decimal {ref.decimal(upper - lower)}",
            f"mc_mean_decimal {ref.decimal(mean)}",
            f"mc_stderr {stderr}",
            f"verdict {verdict}",
        ], "integral report")

    argv = ("integral", "--dist", fam.spec, "--method", "all", "--depth", str(depth),
            "--cap", str(cap), "--samples", str(samples), "--seed", str(seed))
    return Op(argv, f"integral --method all ({fam.kind})", samples, check)


def _jitter(rng, n: int) -> int:
    return round(n * rng.uniform(0.98, 1.02))


def integral_mc(rng) -> tuple:
    ops = []
    for kind, (count, samples, all_samples) in MC_PLAN.items():
        fams = [Family(spec) for spec in MC_FAMILIES[kind]]
        ops += [_mc_op(fams[i % 3], _jitter(rng, samples), rng.getrandbits(32))
                for i in range(count)]
        ops += [_quad_op(fam, *slot) for fam, slot in zip(fams, QUAD_SLOTS)]
        ops += [_closed_op(fam) for fam in fams[1:]]
        ops.append(_all_op(fams[0], _jitter(rng, all_samples), rng.getrandbits(32)))
    warm = _closed_op(Family("dyadic"))
    return ops, warm


WORKLOADS = {"exact_eval": exact_eval, "graph_sweep": graph_sweep, "integral_mc": integral_mc}
