import ast
import csv
import inspect
import io
import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from probmink import (
    Geometric,
    alt_series_periodic_closed_form,
    cli,
    graph_points,
    integral_closed,
    parse_distribution,
)
from probmink import fmt as fmt_module
from probmink.cli import main
from probmink.fmt import rational_text, render_decimal
from probmink.series import MAX_DIGIT_SUM

from oracles import brute_graph_points, ref_cmd_diagnose, ref_write_graph_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_point_plain(capsys):
    code, out, _ = run(capsys, "eval", "--dist", "dyadic", "--x", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1/3"
    assert lines[1].startswith("0.3333") and lines[1].endswith("…")


def test_eval_digits_json(capsys):
    code, out, _ = run(
        capsys, "eval", "--dist", "geometric:1/3", "--digits", "(1,2)", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"]["rational"] == "6/7"


def test_eval_enclosure(capsys):
    code, out, _ = run(
        capsys, "eval", "--dist", "geometric:1/3", "--x", "1/5", "--enclose", "8",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is False
    from fractions import Fraction

    lower = Fraction(payload["lower"]["rational"])
    upper = Fraction(payload["upper"]["rational"])
    assert 0 < lower < upper < 1


def test_encode_decode(capsys):
    code, out, _ = run(capsys, "encode", "--dist", "dyadic", "--digits", "(2,1)")
    assert code == 0
    assert out.splitlines()[0] == "4/7"
    code, out, _ = run(capsys, "decode", "--dist", "dyadic", "--x", "2/3", "--depth", "4")
    assert code == 0
    assert out.splitlines() == ["digits 2,2,2,2", "remainder 2/3"]
    code, out, _ = run(capsys, "decode", "--dist", "dyadic", "--x", "2/3", "--periodic")
    assert code == 0
    assert out.strip() == "(2)"


def test_decode_periodic_not_detected_is_domain_error(capsys):
    code, _, err = run(
        capsys, "decode", "--dist", "geometric:1/3", "--x", "1/5", "--periodic",
        "--max-steps", "40",
    )
    assert code == 3
    assert "no digit period" in err


def test_aperiodic_point_exits_3(capsys):
    code, out, err = run(capsys, "eval", "--dist", "geometric:1/3", "--x", "5/7")
    assert (code, out) == (3, "")
    assert err == (
        "error: no digit period exists for 5/7: the witness 2 divides every remainder's "
        "denominator from step 1 on, so M(5/7) is irrational; it lies in [1/16, 1/8]\n"
    )
    code, out, err = run(capsys, "decode", "--dist", "geometric:1/3", "--x", "2/13", "--periodic")
    assert (code, out) == (3, "")
    assert "no digit period exists for 2/13" in err and "witness 2" in err


def test_digit_search_budget_exit_4(capsys):
    for argv, message in (
        (("eval", "--dist", "geometric:1/100000000", "--x", "1/2"),
         "the digit at this point is at least"),
        (("eval", "--dist", "custom:1/2;99999999/100000000", "--x", "3/4"),
         "the digit at this point is at least"),
        # the Monte Carlo kernel's search, held to the bits of its powers
        (("integral", "--dist", "geometric:1/100000000", "--method", "mc", "--samples", "10"),
         "the digit at this point is at least"),
        # n digits sum to at least n
        (("eval", "--dist", "dyadic", "--x", "1/3", "--enclose", "20000000"),
         "digit sum 20000000 exceeds the budget"),
        (("decode", "--dist", "dyadic", "--x", "1/3", "--depth", "100000000"),
         "digit sum 100000000 exceeds the budget"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (4, "")
        assert err.startswith("error: " + message)


def test_power_budget_exit_4(capsys):
    """Digits inside the digit budget whose branch triple needs a power past MAX_POWER_BITS."""
    power = "branch triple needs a power of about"
    for argv, message in (
        (("eval", "--dist", "geometric:1/100000000", "--x", "1/10"),
         f"the digit at this point is at least 10000000, whose {power} 270000000 bits"),
        (("diagnose", "--dist", "geometric:1/100000000", "--digits", "3000000"),
         f"digit 3000000's {power} 81000000 bits"),
        (("encode", "--dist", "geometric:1/100000000", "--digits", "(3000000)"),
         f"digit 3000000's {power} 81000000 bits"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (4, "")
        assert err.startswith("error: " + message) and err.count("\n") == 1, err


def test_qmark_exact_decimal(capsys):
    code, out, _ = run(capsys, "qmark", "--x", "2/5", "--precision", "8")
    assert code == 0
    assert out.splitlines() == ["3/8", "0.37500000"]


def test_integral_closed_json(capsys):
    code, out, _ = run(
        capsys, "integral", "--dist", "dyadic", "--method", "closed", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_form_alpha"]["rational"] == "1/2"
    assert payload["closed_form_gamma"]["rational"] == "7/12"


def test_integral_all_plain(capsys):
    code, out, _ = run(
        capsys, "integral", "--dist", "geometric:1/3", "--depth", "10", "--samples", "200",
    )
    assert code == 0
    assert "verdict alpha_form" in out
    assert "closed_form_alpha 2/5" in out


def test_graph_stdout_csv(capsys):
    code, out, _ = run(capsys, "graph", "--dist", "dyadic", "--depth", "2", "--cap", "2")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["x_rational", "y_rational", "x_decimal", "y_decimal"]
    assert len(rows) == 5
    xs = [row[0] for row in rows[1:]]
    assert xs == ["0", "1/4", "1/2", "5/8"]


def test_graph_file_output(tmp_path, capsys):
    out_path = tmp_path / "graph.csv"
    code, out, _ = run(
        capsys, "graph", "--dist", "dyadic", "--depth", "2", "--cap", "3",
        "--out", str(out_path),
    )
    assert code == 0
    assert "points 9" in out
    assert "uncovered_mass" in out
    rows = list(csv.reader(out_path.open()))
    assert len(rows) == 10
    from fractions import Fraction

    xs = [Fraction(row[0]) for row in rows[1:]]
    assert xs == sorted(xs)


GRAPH_FAMILIES = ("dyadic", "geometric:2/5", "custom:1/3,1/5;2/3")


def test_graph_rows_match_csv_writer(tmp_path, capsys):
    # the rows are formatted from integers; csv.writer over the Fraction
    # formatters gives the same bytes, on stdout and under --out alike
    for k, spec in enumerate(GRAPH_FAMILIES):
        dist = parse_distribution(spec)
        points = graph_points(dist, 3, 4).points
        for precision in (1, 7, 30):
            expected = io.StringIO(newline="")
            writer = csv.writer(expected)
            writer.writerow(["x_rational", "y_rational", "x_decimal", "y_decimal"])
            for x, y in points:
                writer.writerow([rational_text(x), rational_text(y),
                                 render_decimal(x, precision), render_decimal(y, precision)])
            argv = ("graph", "--dist", spec, "--depth", "3", "--cap", "4",
                    "--precision", str(precision))
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out == expected.getvalue(), (spec, precision)
            path = tmp_path / f"graph_{k}_{precision}.csv"
            code, _, _ = run(capsys, *argv, "--out", str(path))
            assert code == 0
            assert path.read_bytes() == out.encode("utf-8"), (spec, precision)


def test_graph_wide_denominators_match_reference(tmp_path, capsys):
    # x's denominators pass 10^4000 from digit 1 001 on, so those rows take the
    # writer's general path and the others its inline one
    argv = ("graph", "--dist", "geometric:1/10000", "--depth", "1", "--cap", "1050")
    points = graph_points(parse_distribution("geometric:1/10000"), 1, 1050).points
    assert max(x.denominator for x, _ in points) > 10**4000
    expected = io.StringIO(newline="")
    ref_write_graph_csv(expected, points, 30)
    code, out, _ = run(capsys, *argv)
    assert (code, out) == (0, expected.getvalue())
    path = tmp_path / "wide.csv"
    code, _, _ = run(capsys, *argv, "--out", str(path))
    assert code == 0
    assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_graph_cap_one_is_one_point(capsys):
    for spec in GRAPH_FAMILIES:
        dist = parse_distribution(spec)
        for depth in range(1, 7):
            result = graph_points(dist, depth, 1)
            assert list(result.points) == brute_graph_points(dist, depth, 1)
            assert result.uncovered_mass == 1 - dist.pmf(1) ** depth
    # the point does not depend on the depth, so a deep graph is immediate
    start = time.perf_counter()
    code, out, _ = run(capsys, "graph", "--dist", "geometric:2/5", "--depth", "1000000",
                       "--cap", "1")
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, "x_rational,y_rational,x_decimal,y_decimal\r\n"
                              "0,2/3,0.000000000000000000000000000000,"
                              "0.666666666666666666666666666667…\r\n")
    code, out, err = run(capsys, "graph", "--dist", "geometric:2/5", "--depth", "20000000",
                         "--cap", "1")
    assert (code, out) == (4, "") and "exceeds the budget" in err


def test_graph_to_stdout_leaves_uncovered_mass_unbuilt(tmp_path, capsys):
    # the CSV never prints the mass, so its power is built only when read, as --out reads it
    dist = parse_distribution("geometric:2/5")
    result = graph_points(dist, 2, 3)
    assert callable(result._mass)
    assert result.uncovered_mass == 1 - dist.prefix(4) ** 2
    assert result.uncovered_mass is result._mass
    with mock.patch.object(type(dist), "prefix", side_effect=AssertionError("mass built")):
        code, out, _ = run(capsys, "graph", "--dist", "geometric:2/5", "--depth", "2",
                           "--cap", "3")
        assert code == 0 and len(out.splitlines()) == 10
    code, out, _ = run(capsys, "graph", "--dist", "geometric:2/5", "--depth", "2", "--cap", "3",
                       "--out", str(tmp_path / "g.csv"))
    assert (code, out) == (0, f"points 9\nuncovered_mass {1 - dist.prefix(4) ** 2}\n")


def test_json_text_is_indented_dumps():
    payloads = ([], {}, [[], {}], {"a": []}, [{"a": [1, [2, {}]]}, True, None, "…", 1.5, -0.0],
                {"k": {"r": 'x\n"q\\'}}, 3, "s", False, {"digits": [3, 1, 2], "exact": True},
                {"prefixes": [{"digits": [1], "delta": {"rational": "-1/3", "decimal": "…"}}]})
    for payload in payloads:
        assert cli._json_text(payload) == json.dumps(payload, indent=2)


def _diagnose_bytes(command, argv):
    out = io.StringIO()
    with mock.patch("sys.stdout", out):
        assert command(cli.build_parser().parse_args(argv)) == 0
    return out.getvalue().encode()


def test_diagnose_json_bytes_match_indented_dumps():
    # the reference prints json.dumps(payload, indent=2), escapes of "…" included
    rng = random.Random(64)
    for spec in GRAPH_FAMILIES:
        for length in (1, 2, 3, 5, 17, 40, 64):
            word = ",".join(str(rng.randint(1, 5)) for _ in range(length))
            argv = ["diagnose", "--dist", spec, "--digits", word, "--format", "json"]
            got = _diagnose_bytes(cli.cmd_diagnose, argv)
            assert b"\\u2026" in got
            assert got == _diagnose_bytes(ref_cmd_diagnose, argv), (spec, length)


def test_graph_budgets_exit_4(capsys):
    for argv, message in (
        (("--depth", "9", "--cap", "40"), "exceeds the budget of 1048576 points"),
        (("--depth", "21", "--cap", "2"), "exceeds the budget of 1048576 points"),
        # the branch table's digit sum, and the longest word's
        (("--depth", "1", "--cap", "100000"), "exceeds the budget"),
        (("--depth", "20000000", "--cap", "1"), "exceeds the budget"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "--dist", "dyadic", *argv)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and message in err, argv


def test_graph_unwritable_out_exit_2(tmp_path, capsys):
    for path in (tmp_path / "missing" / "g.csv", tmp_path):
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "--dist", "dyadic", "--out", str(path))
        assert time.perf_counter() - start < 1, path
        assert (code, out) == (2, ""), path
        assert err.startswith(f"error: cannot write {path}: ") and len(err.splitlines()) == 1


def test_diagnose(capsys):
    code, out, _ = run(capsys, "diagnose", "--dist", "geometric:1/3", "--digits", "2,1")
    assert code == 0
    assert "depth 1" in out and "depth 2" in out
    assert "match True" in out
    code, _, _ = run(capsys, "diagnose", "--dist", "dyadic", "--digits", "(2)")
    assert code == 2


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 12
    assert "all 12 criteria passed" in out


def test_parse_errors_exit_2(capsys):
    assert run(capsys, "eval", "--dist", "nope", "--x", "1/2")[0] == 2
    assert run(capsys, "qmark", "--x", "0.5")[0] == 2
    assert run(capsys, "qmark", "--x", "1/2", "--precision", "0")[0] == 2
    assert run(capsys, "encode", "--dist", "dyadic", "--digits", "oops")[0] == 2


def test_domain_errors_exit_3(capsys):
    assert run(capsys, "eval", "--dist", "dyadic", "--x", "3/2")[0] == 3
    assert run(capsys, "decode", "--dist", "dyadic", "--x", "7/5")[0] == 3
    assert run(capsys, "qmark", "--x", "9/4")[0] == 3


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "eval", "--dist", "dyadic")[0] == 2
    assert run(capsys, "nosuchcommand")[0] == 2
    assert run(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "eval", "--help")[0] == 0


def test_over_long_literals_are_read(capsys):
    # 4 400 digits is past the interpreter's default 4 300-digit int-string
    # limit; parse_ints reads the literals, and the values decide the exit codes
    long_digit = "2" * 4400
    for argv, digit_sum in (
        (("qmark", "--x", "1/1" + "0" * 4399), "1" + "0" * 4399),
        (("eval", "--dist", "dyadic", "--digits", "1," + long_digit), long_digit[:-1] + "3"),
        # the right corner's word ends in the last digit plus one
        (("diagnose", "--dist", "dyadic", "--digits", "1," + long_digit), long_digit[:-1] + "4"),
    ):
        assert run(capsys, *argv) == (4, "", f"error: digit sum {digit_sum} exceeds the budget "
                                             f"of {MAX_DIGIT_SUM} bits for an exact value\n")
    code, out, err = run(capsys, "integral", "--dist", "geometric:1/" + "3" * 4400,
                         "--method", "closed")
    forms = integral_closed(Geometric(Fraction(1, _big_int("3" * 4400))))
    assert (code, err) == (0, "")
    assert out == (f"closed_form_alpha {rational_text(forms.alpha_form)}\n"
                   f"closed_form_gamma {rational_text(forms.gamma_form)}\n")
    # a domain error on a long literal prints it in full
    big = "1" + "0" * 4400
    far = f"1/{big[:-1]}1"
    aperiodic = f"5{big[1:-1]}1/7{big[1:]}"
    custom = ("--dist", "custom:1/3,1/4;1/2", "--x", far, "--max-steps", "5")
    for argv, message in (
        (("eval", "--dist", "dyadic", "--x", big), f"point must lie in [0,1), got {big}"),
        (("qmark", "--x", big), f"continued fraction input must lie in [0,1], got {big}"),
        (("integral", "--dist", "geometric:" + big, "--method", "closed"),
         f"geometric parameter must lie strictly in (0,1), got {big}"),
        (("eval", *custom), f"no digit period detected for {far} within 5 steps; "
                            "use eval_minkowski_enclosure for a rigorous bracket"),
        (("decode", *custom, "--periodic"), f"no digit period detected for {far} within 5 steps"),
    ):
        assert run(capsys, *argv) == (3, "", f"error: {message}\n"), argv[0]
    code, out, err = run(capsys, "eval", "--dist", "geometric:1/3", "--x", aperiodic)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: no digit period exists for {aperiodic}: the witness 2 ")
    assert f"so M({aperiodic}) is irrational" in err
    # malformed text past the limit is still a parse error
    code, out, err = run(capsys, "qmark", "--x", "1/1" + "0" * 4399 + "x")
    assert (code, out) == (2, "") and err.startswith("error: not a rational literal")


def _big_int(text):
    """int(text) for decimal text of any length, read 1 000 digits at a time."""
    n = 0
    for i in range(0, len(text), 1000):
        chunk = text[i:i + 1000]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def _big_fraction(text):
    num, _, den = text.partition("/")
    return Fraction(_big_int(num), _big_int(den or "1"))


def test_rationals_print_past_int_string_limit(capsys):
    # the value's denominator has 15 000 bits, about 4 516 decimal digits
    value = alt_series_periodic_closed_form(7000, 8000)
    argv = ("eval", "--dist", "dyadic", "--digits", "(7000,8000)")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    first, second = out.splitlines()
    assert len(first) > 4300
    assert _big_fraction(first) == value
    assert second == "0." + "0" * 30 + "…"
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert _big_fraction(json.loads(out)["value"]["rational"]) == value
    # a rendering wider than the limit
    code, out, _ = run(capsys, "qmark", "--x", "1/3", "--precision", "5000")
    assert code == 0
    assert out.splitlines() == ["1/4", "0.25" + "0" * 4998]


def test_resource_limit_exit_4(capsys):
    k = 100
    for argv in (
        ("qmark", "--x", f"{10**k + 7}/{3 * 10**k}"),
        ("eval", "--dist", "dyadic", "--digits", "(100000000000)"),
        ("eval", "--dist", "dyadic", "--digits", "(100000000000)", "--format", "json"),
        # digit words past the budget stop before the codec builds 2^(10^11)
        ("encode", "--dist", "dyadic", "--digits", "(100000000000)"),
        ("encode", "--dist", "geometric:1/3", "--digits", "2,30000000(1)"),
        ("diagnose", "--dist", "dyadic", "--digits", "3,20000000"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4, argv
        assert out == ""
        assert err.startswith("error: digit sum") and "exceeds the budget" in err


def test_interpreter_limits_exit_4(capsys, monkeypatch):
    for exc in (MemoryError(), OverflowError("int too large"), RecursionError("too deep")):
        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "eval_question_mark", fail)
        code, out, err = run(capsys, "qmark", "--x", "1/3")
        assert code == 4, exc
        assert out == ""
        assert err.startswith(f"error: {type(exc).__name__}") and len(err.splitlines()) == 1


def test_consecutive_calls_share_no_state(capsys):
    enclose = ("eval", "--dist", "dyadic", "--x", "1/5", "--enclose", "5")
    plain = ("eval", "--dist", "dyadic", "--x", "1/5")
    code, out, _ = run(capsys, *enclose)
    assert code == 0 and out.startswith("lower ")
    code, out, _ = run(capsys, *plain)
    assert code == 0 and len(out.splitlines()) == 2 and not out.startswith("lower")
    expected_plain = out
    code, out, _ = run(capsys, *plain, "--format", "json")
    assert code == 0 and "value" in json.loads(out)
    assert run(capsys, "eval", "--dist", "dyadic")[0] == 2
    assert run(capsys, "eval", "--dist", "dyadic", "--x", "1/2", "--digits", "(2)")[0] == 2
    code, out, _ = run(capsys, *plain)
    assert code == 0 and out == expected_plain
    code, out, _ = run(capsys, "eval", "--dist", "dyadic", "--x", "1/2")
    assert code == 0 and out.splitlines()[0] == "1/3"


@pytest.mark.parametrize("argv", [
    ("eval", "--dist", "dyadic", "--x", "1/2"),
    ("qmark", "--x", "1/3", "--precision", "100000"),
])
def test_broken_pipe_exits_quietly(argv):
    # stdout is a pipe whose reader is already gone, and block-buffered as in
    # a shell pipeline: a short output fails at main's flush, a long one
    # inside print, and neither may print a traceback at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "probmink.cli", *argv],
                                stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    code = proc.wait(timeout=60)
    err = proc.stderr.read()
    proc.stderr.close()
    assert code == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


# outputs recorded before each command built only the format it prints: the
# plain lines, and the JSON payloads, which the CLI prints as json.dumps(..., indent=2)
RECORDED = {
    ("decode", "--dist", "geometric:1/3", "--x", "5/7", "--depth", "12"): (
        ["digits 4,1,1,9,1,4,3,1,4,1,5,1", "remainder 23814765/29360128"],
        {"digits": [4, 1, 1, 9, 1, 4, 3, 1, 4, 1, 5, 1],
         "remainder": {"rational": "23814765/29360128", "decimal": "0.811126061848…"}}),
    ("integral", "--dist", "geometric:2/5", "--method", "quad", "--depth", "3", "--cap", "4"): (
        ["lower 51453354407/187500000000", "upper 132384733373/187500000000",
         "width_decimal 0.431634021152"],
        {"lower": {"rational": "51453354407/187500000000", "decimal": "0.274417890171…"},
         "upper": {"rational": "132384733373/187500000000", "decimal": "0.706051911323…"},
         "width": {"rational": "13488563161/31250000000", "decimal": "0.431634021152"}}),
    ("integral", "--dist", "custom:1/3,1/5;2/3", "--method", "closed"): (
        ["closed_form_alpha 118/299", "closed_form_gamma 177/385"],
        {"closed_form_alpha": {"rational": "118/299", "decimal": "0.394648829431…"},
         "closed_form_gamma": {"rational": "177/385", "decimal": "0.459740259740…"}}),
    ("integral", "--dist", "dyadic", "--depth", "2", "--cap", "3", "--samples", "40",
     "--seed", "3"): (
        ["alpha 1/3", "gamma 1/7", "closed_form_alpha 1/2", "closed_form_gamma 7/12",
         "quadrature_lower 441/2048", "quadrature_upper 1803/2048",
         "quadrature_width_decimal 0.665039062500", "mc_mean_decimal 0.481748138485…",
         "mc_stderr 4.767e-02", "verdict both"],
        {"distribution": "dyadic",
         "alpha": {"rational": "1/3", "decimal": "0.333333333333…"},
         "gamma": {"rational": "1/7", "decimal": "0.142857142857…"},
         "closed_form_alpha": {"rational": "1/2", "decimal": "0.500000000000"},
         "closed_form_gamma": {"rational": "7/12", "decimal": "0.583333333333…"},
         "quadrature": {
             "depth": 2, "cap": 3,
             "lower": {"rational": "441/2048", "decimal": "0.215332031250"},
             "upper": {"rational": "1803/2048", "decimal": "0.880371093750"},
             "width": {"rational": "681/1024", "decimal": "0.665039062500"},
             "corner_sum": {"rational": "441/1024", "decimal": "0.430664062500"},
             "oscillation": {"rational": "441/2048", "decimal": "0.215332031250"},
             "uncovered": {"rational": "15/64", "decimal": "0.234375000000"}},
         "verdict": "both",
         "monte_carlo": {"samples": 40, "seed": 3,
                         "mean": {"rational": "533201077117660090829/1106804644422573096960",
                                  "decimal": "0.481748138485…"},
                         "stderr": "4.767e-02"}}),
}
# decimals each format renders: the plain lines print only some of them
RENDERED = {"decode": (0, 1), "quad": (1, 3), "closed": (0, 2), "report": (2, 11)}


@pytest.mark.parametrize("argv", list(RECORDED))
def test_decode_and_integral_print_recorded_bytes(capsys, argv):
    plain, payload = RECORDED[argv]
    kind = argv[0] if argv[0] == "decode" else argv[4] if argv[3] == "--method" else "report"
    for fmt, expected, renders in (("plain", "\n".join(plain), RENDERED[kind][0]),
                                   ("json", json.dumps(payload, indent=2), RENDERED[kind][1])):
        # cli renders plain lines itself, and every JSON entry through fmt.rational_payload
        with mock.patch.object(cli, "render_decimal", wraps=render_decimal) as in_cli, \
                mock.patch.object(fmt_module, "render_decimal", wraps=render_decimal) as in_fmt:
            code, out, err = run(capsys, *argv, "--format", fmt, "--precision", "12")
        assert (code, out, err) == (0, expected + "\n", "")
        # only the printed format is built
        assert in_cli.call_count + in_fmt.call_count == renders, fmt


def _documented_codes(text):
    """The exit codes named by the first sentence after `Exit codes:` in text."""
    sentence = text[text.index("Exit codes:") + len("Exit codes:"):]
    # drop parentheticals, innermost first, then cut at the sentence's end
    while True:
        shorter = re.sub(r"\([^()]*\)", "", sentence)
        if shorter == sentence:
            break
        sentence = shorter
    sentence = sentence[: sentence.index(". ")]
    return {int(n) for n in re.findall(r"(?:^|,)\s*(\d+)\s+[a-z]", sentence)}


def _returned_codes(functions):
    """The integer constants, literal or named at module level, that the functions return."""
    codes = set()
    for fn in functions:
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(fn)))):
            if isinstance(node, ast.Return) and node.value is not None:
                for value in ast.walk(node.value):
                    if isinstance(value, ast.Constant) and isinstance(value.value, int):
                        codes.add(value.value)
                    elif isinstance(value, ast.Name) and isinstance(getattr(cli, value.id, None),
                                                                   int):
                        codes.add(getattr(cli, value.id))
    return codes


# the codes that test_argv_fuzz's calls end in: all but a self-test failure and a closed stdout
FUZZ_EXIT_CODES = {0, 2, 3, 4}


def test_exit_codes_are_documented_in_one_place():
    commands = [getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")]
    assert cli.cmd_selftest in commands
    codes = FUZZ_EXIT_CODES | {1, cli.EXIT_BROKEN_PIPE}
    assert _returned_codes([cli._run, cli.main, *commands]) == codes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert _documented_codes(readme) == codes
    assert _documented_codes(cli.__doc__) == codes


# specs, points and digit streams for the argv fuzzer: valid ones first, then
# malformed or out-of-range ones that must end in a typed error
FUZZ_SPECS = ("dyadic", "geometric:1/3", "geometric:2/5", "geometric:3/4",
              "custom:1/3,1/4;1/2", "custom:1/10;1/2", "custom:2/5,1/10;3/5")
FUZZ_BAD_SPECS = ("geometric:0", "geometric:1", "geometric:3/2", "geometric:x", "custom:;1/2",
                  "custom:1/2,1/2;1/2", "custom:1/3;0", "custom:1/3", "cauchy", "")
FUZZ_BAD_POINTS = ("1", "3/2", "-1/3", "1/0", "0.5", "abc", "1//2", "", "7/7")
FUZZ_BAD_DIGITS = ("0,1", "(", "a", "1,,2", "(0)", "", "2,(", "1.5")


def _fuzz_stream(rng):
    """(pre, per, text): a short digit stream and its `--digits` spelling."""
    pre = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 4)))
    per = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    return pre, per, ",".join(map(str, pre)) + "(" + ",".join(map(str, per)) + ")"


def _fuzz_precision(argv):
    """The --precision of a call's argv, 30 when it has none."""
    return int(argv[argv.index("--precision") + 1]) if "--precision" in argv else 30


def _rational_texts(ref, texts, value, precision, what):
    """Require a {"rational", "decimal"} payload, or a bare rational text, to show value."""
    if isinstance(texts, dict):
        ref.expect_equal(texts["decimal"], ref.decimal(value, precision), what)
        texts = texts["rational"]
    ref.expect_rational(texts, value, what)


def _check_decode_periodic(spec, point):
    """The printed stream re-encodes to the point by the reference codec."""

    def verify(ref, out, payload, argv):
        text = payload["digits"] if payload else out.splitlines()[0]
        pre, per = text[:-1].split("(")
        pre = tuple(int(d) for d in pre.split(",")) if pre else ()
        per = tuple(int(d) for d in per.split(","))
        ref.expect_equal(ref.encode(ref.Family(spec), pre, per), Fraction(point), "stream")

    return verify


def _check_decode_depth(spec, point, depth):
    """The digits and remainder of one reference prefix and pmf step per digit."""

    def verify(ref, out, payload, argv):
        fam, x, digits = ref.Family(spec), Fraction(point), []
        for _ in range(int(depth)):
            c = fam.digit(x.numerator, x.denominator)
            x = (x - fam.prefix(c)) / fam.pmf(c)
            digits.append(c)
        if payload:
            got, remainder = payload["digits"], payload["remainder"]
        else:
            lines = out.splitlines()
            got = [int(d) for d in lines[0].removeprefix("digits ").split(",")]
            remainder = lines[1].removeprefix("remainder ")
        ref.expect_equal(got, digits, "digits")
        _rational_texts(ref, remainder, x, _fuzz_precision(argv), "remainder")

    return verify


def _check_graph(spec, depth, cap, name):
    """The reference CSV; under --out, its row count and uncovered mass too."""

    def verify(ref, out, payload, argv):
        fam, depth_, cap_ = ref.Family(spec), int(depth), int(cap)
        csv_text = ref.graph_csv(fam, depth_, cap_, _fuzz_precision(argv))
        if name is None:
            ref.expect_equal(out, csv_text, "graph")
            return
        lines = out.splitlines()
        ref.expect_equal(lines[0], f"points {cap_ ** depth_}", "row count")
        ref.expect_rational(lines[1].removeprefix("uncovered_mass "),
                            1 - fam.prefix(cap_ + 1) ** depth_, "uncovered mass")
        with open(name, newline="") as handle:
            ref.expect_equal(handle.read(), csv_text, "graph file")

    return verify


def _check_diagnose(spec, word):
    """Each prefix's digit sum, increment, measure and quotient, and each quotient step."""

    def verify(ref, out, payload, argv):
        rows = ref.increments(ref.Family(spec), tuple(int(d) for d in word.split(",")))
        steps = [None] + [b[4] / a[4] for a, b in zip(rows, rows[1:])]
        precision = _fuzz_precision(argv)
        if payload:
            entries = payload["prefixes"]
            ref.expect_equal(len(entries), len(rows), "prefixes")
            for entry, (digits, total, delta, measure, quotient), step in zip(entries, rows,
                                                                              steps):
                ref.expect_equal((tuple(entry["digits"]), entry["digit_sum"]), (digits, total),
                                 "digits")
                for key, value in (("delta", delta), ("measure", measure),
                                   ("quotient", quotient), ("quotient_step", step)):
                    if value is not None:
                        _rational_texts(ref, entry[key], value, precision, key)
            return
        want = []
        for n, ((digits, _, delta, measure, quotient), step) in enumerate(zip(rows, steps), 1):
            want.append(f"depth {n} digits {','.join(map(str, digits))} delta {ref.rat(delta)} "
                        f"measure {ref.rat(measure)} quotient {ref.rat(quotient)}")
            if step is not None:
                want.append(f"  quotient step {ref.rat(step)}")
        got = [line.split(" formula ")[0] for line in out.splitlines()]
        ref.expect_equal(got, want, "diagnose")

    return verify


def _check_integral(spec, method, depth, cap, samples, seed):
    """alpha, gamma, both closed forms, the quadrature enclosure and the Monte Carlo estimate."""

    def verify(ref, out, payload, argv):
        fam, precision = ref.Family(spec), _fuzz_precision(argv)
        a, g = fam.alpha(), fam.gamma()
        forms = {"closed_form_alpha": 2 * a / (1 + a), "closed_form_gamma": 2 * a / (1 + g)}
        if method in ("quad", "all"):
            lower, upper = ref.quadrature(fam, int(depth), int(cap))
        if method in ("mc", "all"):
            mean, stderr = ref.monte_carlo(fam, int(samples), int(seed))
        if method == "closed":
            values = forms
        elif method == "quad":
            values = {"lower": lower, "upper": upper}
            # plain text prints the width as a decimal alone
            if payload:
                values["width"] = upper - lower
        elif method == "mc":
            values = {"mean": mean}
        else:
            contains = [lower <= forms[k] <= upper for k in forms]
            verdict = {(True, False): "alpha_form", (False, True): "gamma_form",
                       (True, True): "both", (False, False): "neither"}[tuple(contains)]
            values = {"alpha": a, "gamma": g, **forms, "quadrature_lower": lower,
                      "quadrature_upper": upper}
        lines = dict(line.split(" ", 1) for line in out.splitlines()) if not payload else None
        for key, value in values.items():
            if payload:
                texts = (payload["quadrature"][key.removeprefix("quadrature_")]
                         if key.startswith("quadrature_") else payload[key])
                _rational_texts(ref, texts, value, precision, key)
            else:
                ref.expect_rational(lines[key], value, key)
        if method == "quad" and not payload:
            ref.expect_equal(lines["width_decimal"], ref.decimal(upper - lower, precision),
                             "width")
        if method == "mc":
            if payload:
                ref.expect_equal((payload["stderr"], payload["samples"], payload["seed"]),
                                 (stderr, int(samples), int(seed)), "mc")
            else:
                ref.expect_equal((lines["mean_decimal"], lines["stderr"]),
                                 (ref.decimal(mean, precision), stderr), "mc")
        if method == "all":
            if payload:
                mc = payload["monte_carlo"]
                _rational_texts(ref, mc["mean"], mean, precision, "mc mean")
                ref.expect_equal((payload["verdict"], mc["stderr"]), (verdict, stderr), "report")
            else:
                ref.expect_equal(
                    (lines["quadrature_width_decimal"], lines["mc_mean_decimal"],
                     lines["mc_stderr"], lines["verdict"]),
                    (ref.decimal(upper - lower, precision), ref.decimal(mean, precision),
                     stderr, verdict), "report")

    return verify


def _fuzz_argv(rng, tmp_path):
    """(argv, check, verify): one random call, and the references for its exit-0 output.

    check gives the value that eval --digits, encode and qmark print, and
    verify(ref, out, payload, argv) checks the output of every other command;
    either is None where it does not apply.
    """

    def pick(good, bad, p=0.15):
        return rng.choice(bad) if rng.random() < p else rng.choice(good)

    def count(low, high, huge=None):
        """A count in range, one at most 0, or `huge`, which its budget refuses at once."""
        if huge and rng.random() < 0.05:
            return huge
        return str(rng.randint(low, high) if rng.random() > 0.1 else rng.randint(-3, 0))

    spec = pick(FUZZ_SPECS, FUZZ_BAD_SPECS)
    den = rng.randint(1, 60)
    point = pick((f"{rng.randrange(den)}/{den}",), FUZZ_BAD_POINTS)
    pre, per, digits = _fuzz_stream(rng)
    digits = pick((digits,), FUZZ_BAD_DIGITS + ("(100000000000)", "3,99999999999"), 0.1)
    command = rng.choice(("eval", "eval", "encode", "decode", "decode", "qmark", "integral",
                          "graph", "diagnose"))
    argv, check, verify = [command], None, None
    if command == "eval":
        if rng.random() < 0.4:
            argv += ["--dist", spec, "--digits", digits]
            check = lambda ref: ref.series_periodic(pre, per)
        else:
            argv += ["--dist", spec, "--x", point]
            if rng.random() < 0.4:
                argv += ["--enclose", count(1, 24, "20000000")]
            argv += ["--max-steps", count(1, 200)]
    elif command == "encode":
        argv += ["--dist", spec, "--digits", digits]
        check = lambda ref: ref.encode(ref.Family(spec), pre, per)
    elif command == "decode":
        argv += ["--dist", spec, "--x", point]
        if rng.random() < 0.5:
            argv += ["--periodic", "--max-steps", count(1, 200)]
            verify = _check_decode_periodic(spec, point)
        else:
            argv += ["--depth", count(1, 40, "100000000")]
            verify = _check_decode_depth(spec, point, argv[-1])
    elif command == "qmark":
        qmark_point = pick((point, f"{den}/{den}", "1", "0"), FUZZ_BAD_POINTS[2:])
        argv += ["--x", qmark_point]
        check = lambda ref: ref.question_mark(Fraction(qmark_point))
    elif command == "integral":
        method = rng.choice(("all", "closed", "quad", "mc"))
        argv += ["--dist", spec, "--method", method, "--depth", count(1, 3), "--cap", count(1, 4),
                 "--samples", count(1, 40), "--seed", str(rng.randint(0, 99))]
        verify = _check_integral(spec, method, *argv[6:13:2])
    elif command == "graph":
        sizes = ["9", "40"] if rng.random() < 0.05 else [count(1, 3), count(1, 4)]
        argv += ["--dist", spec, "--depth", sizes[0], "--cap", sizes[1]]
        name = None
        if rng.random() < 0.3:
            name = rng.choice((str(tmp_path / "g.csv"), str(tmp_path / "missing" / "g.csv")))
            argv += ["--out", name]
        verify = _check_graph(spec, *sizes, name)
    else:
        word = ",".join(str(rng.randint(1, 5)) for _ in range(rng.randint(1, 6)))
        argv += ["--dist", spec, "--digits", pick((word,), FUZZ_BAD_DIGITS, 0.1)]
        verify = _check_diagnose(spec, argv[-1])
    argv += ["--format", rng.choice(("plain", "json"))]
    if rng.random() < 0.5:
        argv += ["--precision", count(1, 40)]
    # a stray or a missing word: the value checks no longer apply
    if rng.random() < 0.05:
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--bogus", "--x", "-q", "7")))
        check = verify = None
    if rng.random() < 0.05:
        del argv[rng.randrange(1, len(argv))]
        check = verify = None
    return argv, check, verify


def test_argv_fuzz(tmp_path, monkeypatch):
    # 800 seeded calls over every subcommand but selftest and every
    # flag: each ends in 0 or a documented error code with an error line, and
    # never a traceback; JSON parses, and every exit-0 output is checked
    # against the independent references in bench/reference.py: the values of
    # eval --digits, encode and qmark, decode's stream or digits and
    # remainder, graph's CSV, diagnose's increments and integral's four methods
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import reference as ref

    rng = random.Random(14)
    codes = set()
    verified = Counter()
    for _ in range(800):
        argv, check, verify = _fuzz_argv(rng, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err):
            code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        codes.add(code)
        assert code in FUZZ_EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err, argv
        if code:
            assert any("error: " in line for line in err.splitlines()), (argv, err)
            continue
        # graph prints CSV in either format
        payload = json.loads(out) if "json" in argv and argv[0] != "graph" else None
        if check is not None:
            got = payload["value"]["rational"] if payload else out.splitlines()[0]
            assert Fraction(got) == check(ref), argv
        if verify is not None:
            verify(ref, out, payload, argv)
            verified[verify.__qualname__.split(".")[0]] += 1
    assert codes == FUZZ_EXIT_CODES
    assert min(verified.values()) >= 10 and len(verified) == 5, verified
