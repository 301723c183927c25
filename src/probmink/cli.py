"""Command-line interface with exact rational I/O.

Exit codes: 0 success, 1 self-test failure, 2 parse or usage error
(including a graph --out path that cannot be written), 3 domain error
(including a rational point whose digit stream has no period, so M there
is irrational), 4 resource limit (an exact result too large to compute,
such as a series, a digit word or a single digit over
series.MAX_DIGIT_SUM, a graph of more than minkowski.MAX_GRAPH_POINTS
points, or a MemoryError, OverflowError or RecursionError that no budget
check caught first), 141 a broken pipe (stdout's reader closed it before
the output was written; nothing more is printed, and a shell reports the
same status for a process killed by SIGPIPE). Output formats: plain text
(default) or JSON; the graph command always emits CSV. Rationals print in
full at any size. Decimal renderings honor --precision and carry a
trailing ellipsis when inexact.
"""

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii

from .distribution import parse_distribution
from .errors import DomainError, ParseError, ResourceLimitError
from .expansion import (
    Aperiodic,
    NotDetected,
    decode,
    decode_periodic,
    encode,
    parse_digit_seq,
)
from .fmt import (
    _CHUNK,
    _CHUNK_DIGITS,
    _ratio_decimal,
    _ratio_text,
    parse_ints,
    parse_rational,
    rational_text,
    render_decimal,
)
from .integral import integral_closed, integral_mc, integral_quadrature, integral_report
from .minkowski import (
    cylinder_increment,
    eval_minkowski,
    eval_minkowski_enclosure,
    eval_question_mark,
    graph_points,
    singularity_ratio_step,
)


def _check_precision(args) -> int:
    if args.precision < 1:
        raise ParseError(f"precision must be >= 1, got {args.precision}")
    return args.precision


@functools.cache
def _level_encoder(separator: str):
    return c_make_encoder(None, None, encode_basestring_ascii, None, ": ", separator,
                          False, False, True)


def _json_text(value, pad: str = "\n") -> str:
    """json.dumps(value, indent=2) for dicts with str keys, lists and scalars.

    Before Python 3.13 json.dumps indents only with its pure-Python encoder.
    Here each list or dict of scalars is one call of the C encoder that
    json.dumps builds, with the new line and the indent in its item separator.
    """
    inner = pad + "  "
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    if not any(map(isinstance, items, repeat((dict, list)))):
        text = "".join(_level_encoder("," + inner)(value, 0))
        return text[0] + inner + text[1:-1] + pad + text[-1] if items else text
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + pad + "]"


def _emit(args, payload, plain_lines) -> None:
    """Print payload() as JSON or the lines of plain_lines(): only the printed format is built."""
    if args.format == "json":
        print(_json_text(payload()))
    else:
        for line in plain_lines():
            print(line)


def _rational_payload(value: Fraction, precision: int) -> dict:
    return {"rational": rational_text(value), "decimal": render_decimal(value, precision)}


def _emit_value(args, value: Fraction, precision: int) -> None:
    """Print one value, rendering its rational and decimal texts once for either format."""
    texts = _rational_payload(value, precision)
    _emit(args, lambda: {"value": texts}, lambda: [texts["rational"], texts["decimal"]])


def cmd_eval(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    if args.digits is not None:
        value = eval_minkowski(dist, parse_digit_seq(args.digits))
        _emit_value(args, value, precision)
        return 0
    x = parse_rational(args.x)
    if args.enclose is not None:
        enclosure = eval_minkowski_enclosure(dist, x, args.enclose)
        # each bound's texts are rendered once: past 2^17 digits rendering is the largest stage
        lower = _rational_payload(enclosure.lower, precision)
        upper = _rational_payload(enclosure.upper, precision)
        _emit(args, lambda: {"lower": lower, "upper": upper, "exact": enclosure.exact}, lambda: [
            f"lower {lower['rational']}",
            f"upper {upper['rational']}",
            f"lower_decimal {lower['decimal']}",
            f"upper_decimal {upper['decimal']}",
        ])
        return 0
    value = eval_minkowski(dist, x, max_steps=args.max_steps)
    _emit_value(args, value, precision)
    return 0


def cmd_encode(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    value = encode(dist, parse_digit_seq(args.digits))
    _emit_value(args, value, precision)
    return 0


def cmd_decode(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    x = parse_rational(args.x)
    if args.periodic:
        seq = decode_periodic(dist, x, max_steps=args.max_steps)
        if isinstance(seq, Aperiodic):
            raise seq.error(x)
        if isinstance(seq, NotDetected):
            raise DomainError(
                f"no digit period detected for {rational_text(x)} within {args.max_steps} steps"
            )
        _emit(args, lambda: {"digits": str(seq)}, lambda: [str(seq)])
        return 0
    digits, remainder = decode(dist, x, args.depth)
    _emit(args, lambda: {
        "digits": list(digits),
        "remainder": _rational_payload(remainder, precision),
    }, lambda: [
        "digits " + ",".join(str(d) for d in digits),
        f"remainder {rational_text(remainder)}",
    ])
    return 0


def cmd_qmark(args) -> int:
    precision = _check_precision(args)
    value = eval_question_mark(parse_rational(args.x))
    _emit_value(args, value, precision)
    return 0


def cmd_integral(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    if args.method == "closed":
        forms = integral_closed(dist)
        _emit(args, lambda: {
            "closed_form_alpha": _rational_payload(forms.alpha_form, precision),
            "closed_form_gamma": _rational_payload(forms.gamma_form, precision),
        }, lambda: [
            f"closed_form_alpha {rational_text(forms.alpha_form)}",
            f"closed_form_gamma {rational_text(forms.gamma_form)}",
        ])
        return 0
    if args.method == "quad":
        quad = integral_quadrature(dist, args.depth, args.cap)
        _emit(args, lambda: {
            "lower": _rational_payload(quad.lower, precision),
            "upper": _rational_payload(quad.upper, precision),
            "width": _rational_payload(quad.width, precision),
        }, lambda: [
            f"lower {rational_text(quad.lower)}",
            f"upper {rational_text(quad.upper)}",
            f"width_decimal {render_decimal(quad.width, precision)}",
        ])
        return 0
    if args.method == "mc":
        mc = integral_mc(dist, args.samples, args.seed)
        mean = _rational_payload(mc.mean, precision)
        _emit(args, lambda: {"mean": mean, "stderr": f"{mc.stderr:.3e}", "samples": mc.samples,
                             "seed": mc.seed}, lambda: [
            f"mean {mean['rational']}",
            f"mean_decimal {mean['decimal']}",
            f"stderr {mc.stderr:.3e}",
        ])
        return 0
    report = integral_report(
        dist, depth=args.depth, cap=args.cap, samples=args.samples, seed=args.seed
    )
    _emit(args, lambda: report.to_json_dict(precision), lambda: [
        f"alpha {rational_text(report.alpha)}",
        f"gamma {rational_text(report.gamma)}",
        f"closed_form_alpha {rational_text(report.closed_form_alpha)}",
        f"closed_form_gamma {rational_text(report.closed_form_gamma)}",
        f"quadrature_lower {rational_text(report.quadrature.lower)}",
        f"quadrature_upper {rational_text(report.quadrature.upper)}",
        f"quadrature_width_decimal {render_decimal(report.quadrature.width, precision)}",
        f"mc_mean_decimal {render_decimal(report.mc.mean, precision)}",
        f"mc_stderr {report.mc.stderr:.3e}",
        f"verdict {report.verdict}",
    ])
    return 0


def cmd_graph(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    result = graph_points(dist, args.depth, args.cap)
    rows = result._rows
    if args.out:
        try:
            with open(args.out, "w", newline="") as handle:
                _write_graph_csv(handle, rows, precision)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"points {len(rows)}")
        print(f"uncovered_mass {rational_text(result.uncovered_mass)}")
    else:
        _write_graph_csv(sys.stdout, rows, precision)
    return 0


def _write_graph_csv(handle, rows, precision: int) -> None:
    # Rows as csv.writer writes them, ended by "\r\n". The fields hold only
    # digits, "/", "-", "." and "…", so its minimal quoting never fires, and
    # the bytes are the same on stdout and under --out. One write per row:
    # a 2^20-point graph's CSV is 115-130 MB, held whole by a joined string.
    # Each row is a point's reduced quadruple (xn, xd, yn, yd) with xd, yd > 0.
    # A row with 0 <= num <= den < _CHUNK on both axes, as every graph point
    # has, is formatted inline. Its ints are below the int-string limit, so
    # str() prints them; one divmod rounds each decimal half to even, and as
    # q <= 10^precision the decimal's digits are those of q + 10^precision
    # after the first. Other rows, and all rows at a precision of _CHUNK_DIGITS
    # or more, go through _ratio_text and _ratio_decimal.
    write = handle.write
    write("x_rational,y_rational,x_decimal,y_decimal\r\n")
    scale = 10**precision
    # at a limit of 0 every row takes the general path
    limit = _CHUNK if precision < _CHUNK_DIGITS else 0
    for xn, xd, yn, yd in rows:
        if 0 <= xn <= xd < limit and 0 <= yn <= yd < limit:
            xq, xr = divmod(xn * scale, xd)
            if 2 * xr > xd or (2 * xr == xd and xq & 1):
                xq += 1
            yq, yr = divmod(yn * scale, yd)
            if 2 * yr > yd or (2 * yr == yd and yq & 1):
                yq += 1
            xt, yt = str(xq + scale), str(yq + scale)
            write(f"{xn if xd == 1 else f'{xn}/{xd}'},{yn if yd == 1 else f'{yn}/{yd}'},"
                  f"{'1' if xq == scale else '0'}.{xt[1:]}{'…' if xr else ''},"
                  f"{'1' if yq == scale else '0'}.{yt[1:]}{'…' if yr else ''}\r\n")
        else:
            write(f"{_ratio_text(xn, xd)},{_ratio_text(yn, yd)},"
                  f"{_ratio_decimal(xn, xd, precision)},"
                  f"{_ratio_decimal(yn, yd, precision)}\r\n")


def _parse_digit_word(text: str) -> tuple:
    """A finite digit word as a plain comma list; trailing ones are kept."""
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isdigit() for p in parts):
        raise ParseError(f"expected a finite digit word like '2,1,3', got {text!r}")
    word = parse_ints(parts)
    if any(d < 1 for d in word):
        raise ParseError(f"digits must be positive integers: {text!r}")
    return word


def cmd_diagnose(args) -> int:
    precision = _check_precision(args)
    dist = parse_distribution(args.dist)
    word = _parse_digit_word(args.digits)
    reports = [cylinder_increment(dist, word[:n]) for n in range(1, len(word) + 1)]
    steps = {d: singularity_ratio_step(dist, d).as_integer_ratio() for d in set(word[1:])}
    # each quotient step as a reduced pair of ints, from the two reduced quotients
    ratios = [None]
    for prev, rep in zip(reports, reports[1:]):
        a = rep.quotient.numerator * prev.quotient.denominator
        b = rep.quotient.denominator * prev.quotient.numerator
        g = math.gcd(a, b)
        ratios.append((a // g, b // g))
    # only the format that is printed is built
    if args.format == "json":
        entries = []
        for rep, ratio in zip(reports, ratios):
            entry = {
                "digits": list(rep.digits),
                "digit_sum": rep.digit_sum,
                "delta": _rational_payload(rep.delta, precision),
                "measure": _rational_payload(rep.measure, precision),
                "quotient": _rational_payload(rep.quotient, precision),
            }
            if ratio:
                entry["quotient_step"] = {"rational": _ratio_text(*ratio),
                                          "decimal": _ratio_decimal(*ratio, precision)}
                entry["quotient_step_matches_formula"] = ratio == steps[rep.digits[-1]]
            entries.append(entry)
        print(_json_text({"prefixes": entries}))
        return 0
    lines = []
    for n, (rep, ratio) in enumerate(zip(reports, ratios), start=1):
        lines.append(f"depth {n} digits {','.join(map(str, rep.digits))} "
                     f"delta {rational_text(rep.delta)} measure {rational_text(rep.measure)} "
                     f"quotient {rational_text(rep.quotient)}")
        if ratio:
            step = steps[rep.digits[-1]]
            lines.append(f"  quotient step {_ratio_text(*ratio)} formula {_ratio_text(*step)} "
                         f"match {ratio == step}")
    print("\n".join(lines))
    return 0


def cmd_selftest(args) -> int:
    # imported here: the other commands never load the acceptance suite
    from .selftest import run_all

    results = run_all(quick=args.quick)
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
        failed += 0 if result.passed else 1
    if failed:
        print(f"{failed} of {len(results)} criteria failed")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probmink",
        description=(
            "Exact digit expansions driven by distributions on the positive "
            "integers, the Minkowski-type functions they induce, and the "
            "classical question-mark function."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("plain", "json"), default="plain")
        p.add_argument("--precision", type=int, default=30,
                       help="decimal digits for renderings (default 30)")

    p = sub.add_parser("eval", help="evaluate the induced function")
    p.add_argument("--dist", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--digits", help="digit sequence, e.g. '1,2(1)' or '(2)'")
    group.add_argument("--x", help="rational point in [0,1)")
    p.add_argument("--enclose", type=int, default=None, metavar="DEPTH",
                   help="bracket the value from DEPTH digits instead of decoding a period")
    p.add_argument("--max-steps", type=int, default=4096)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("encode", help="digit sequence to exact point")
    p.add_argument("--dist", required=True)
    p.add_argument("--digits", required=True)
    common(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="exact point to digits")
    p.add_argument("--dist", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--depth", type=int, default=16)
    p.add_argument("--periodic", action="store_true",
                   help="recover the full eventually periodic sequence")
    p.add_argument("--max-steps", type=int, default=4096)
    common(p)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("qmark", help="classical question-mark function")
    p.add_argument("--x", required=True, help="rational in [0,1]")
    common(p)
    p.set_defaults(func=cmd_qmark)

    p = sub.add_parser("integral", help="integral of the induced function")
    p.add_argument("--dist", required=True)
    p.add_argument("--method", choices=("all", "closed", "quad", "mc"), default="all")
    p.add_argument("--depth", type=int, default=14)
    p.add_argument("--cap", type=int, default=40)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=cmd_integral)

    p = sub.add_parser("graph", help="exact graph sample as CSV")
    p.add_argument("--dist", required=True)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("diagnose", help="cylinder increments along a digit word")
    p.add_argument("--dist", required=True)
    p.add_argument("--digits", required=True, help="finite digit word, e.g. '2,1,3'")
    common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="reduced sample counts")
    p.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged, and building one costs about 2 ms,
    # mostly in argparse's help formatters, which in-process callers of main
    # would otherwise pay on every call
    return build_parser()


# the status a shell reports for a process killed by SIGPIPE, 128 + 13
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    try:
        code = _run(argv)
        # write out what stdout still buffers while a broken pipe is caught here
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone: send what is still buffered to
        # os.devnull, so that the interpreter's final flush stays quiet
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _run(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (MemoryError, OverflowError, RecursionError) as exc:
        # the interpreter's own limits, for inputs no budget check caught first
        detail = f": {exc}" if str(exc) else ""
        print(f"error: {type(exc).__name__}{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
