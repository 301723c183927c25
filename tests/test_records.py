"""The value classes: equality, hashing, repr and immutability, and a cold import.

It also pins, byte for byte, the seeded Monte Carlo outputs of
`integral --method mc`, and the graph CSV and `diagnose` texts that the
console command writes to stdout.

Distributions and `DigitSeq` are slotted classes that normalise their
fields; every result record is a `typing.NamedTuple`. The expected values
below are the behaviour the package has always had, pinned exactly.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from probmink import (
    AffineMap2D,
    AltSeriesValue,
    Aperiodic,
    ClosedForms,
    CustomPrefixTail,
    Cylinder,
    DigitSeq,
    Dyadic,
    Geometric,
    GraphResult,
    IncrementReport,
    IntegralReport,
    MCEstimate,
    NotDetected,
    QuadratureEnclosure,
    WitnessPair,
    graph_points,
    parse_distribution,
)
from probmink.cli import main
from probmink.selftest import CheckResult

from oracles import brute_graph_points

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import probmink.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_distribution_equality_and_hash():
    assert Dyadic() == Dyadic()
    assert Geometric(F(1, 3)) == Geometric(F(1, 3))
    assert Geometric("1/3") == Geometric(F(1, 3))
    assert CustomPrefixTail([F(1, 3)], F(1, 2)) == CustomPrefixTail((F(1, 3),), F(1, 2))
    # the same law under two families is still two values
    assert Dyadic() != Geometric(F(1, 2))
    assert Geometric(F(1, 3)) != Geometric(F(1, 4))
    assert CustomPrefixTail((F(1, 3),), F(1, 2)) != CustomPrefixTail((F(1, 3),), F(1, 3))
    assert Dyadic() != "dyadic"
    # hashed as the tuple of public fields
    assert hash(Dyadic()) == hash(()) == hash(Dyadic())
    assert hash(Geometric(F(1, 3))) == hash((F(1, 3),)) == hash(Geometric("1/3"))
    head = (F(1, 3), F(1, 4))
    assert hash(CustomPrefixTail(head, F(1, 2))) == hash((head, F(1, 2)))
    assert len({Dyadic(), Dyadic(), Geometric(F(1, 2)), Geometric(F(1, 2))}) == 2


def test_distribution_hash_is_stored_once():
    # the word-table caches hash a distribution on every decode, so it keeps its hash
    for spec in ("dyadic", "geometric:2/5", "custom:1/3,1/5;2/3"):
        dist = parse_distribution(spec)
        assert hash(dist) == hash(dist._key()) == dist._hash
        clones = (copy.copy(dist), copy.deepcopy(dist), pickle.loads(pickle.dumps(dist)),
                  parse_distribution(dist.spec_string()))
        for clone in clones:
            assert clone == dist and hash(clone) == hash(dist) == hash(clone._key())


def test_reprs():
    assert repr(Dyadic()) == "Dyadic()"
    assert repr(Geometric(F(1, 3))) == "Geometric(q=Fraction(1, 3))"
    assert repr(CustomPrefixTail((F(1, 10),), F(1, 2))) == (
        "CustomPrefixTail(head=(Fraction(1, 10),), tail_ratio=Fraction(1, 2))"
    )
    assert repr(DigitSeq((1,), (2, 1, 2))) == "DigitSeq(preperiod=(1,), period=(2, 1, 2))"
    assert repr(AltSeriesValue(F(1, 3), F(1, 4), F(1, 2))) == (
        "AltSeriesValue(value=Fraction(1, 3), lower=Fraction(1, 4), upper=Fraction(1, 2))"
    )
    assert repr(NotDetected((1, 2))) == "NotDetected(prefix=(1, 2))"
    assert repr(Aperiodic((2,), 3, 1)) == "Aperiodic(prefix=(2,), witness=3, step=1)"
    assert repr(CheckResult("x", True, "ok")) == "CheckResult(name='x', passed=True, detail='ok')"
    assert repr(MCEstimate(F(1), F(0), 0.5, 10, 7)) == (
        "MCEstimate(mean=Fraction(1, 1), variance=Fraction(0, 1), stderr=0.5, samples=10, seed=7)"
    )


def _records():
    """One instance of every result record, built twice from equal values."""
    quad = QuadratureEnclosure(F(1, 4), F(3, 4), F(1, 2), F(1, 8), F(1, 8), 3, 5)
    mc = MCEstimate(F(1, 2), F(1, 12), 0.01, 100, 42)
    seq = DigitSeq((), (1, 2))
    return [
        AltSeriesValue(F(1, 3), F(1, 3), F(1, 3)),
        NotDetected((1, 2, 3)),
        Aperiodic((1, 2), 3, 2),
        Cylinder((1, 2), F(0), F(1, 8), F(1, 8)),
        ClosedForms(F(2, 5), F(7, 15)),
        quad,
        mc,
        IntegralReport("dyadic", F(1, 3), F(1, 7), F(1, 2), F(7, 12), quad, mc, "alpha_form"),
        AffineMap2D(1, F(1, 2), F(0), F(-1, 2), F(1, 2)),
        GraphResult(((F(0), F(0)),), F(1, 4)),
        IncrementReport((1,), 1, F(-1, 2), F(1, 2), F(1)),
        WitnessPair(seq, seq.shifted(), F(1, 3), F(2, 3), F(-4, 7)),
        CheckResult("fixture exactness", True, "14 values"),
    ]


def _fields(record) -> tuple:
    return tuple(type(record).__annotations__)


def test_records_compare_hash_and_print_by_fields():
    for a, b in zip(_records(), _records()):
        assert a == b and hash(a) == hash(b)
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in _fields(a))
        assert repr(a) == f"{type(a).__name__}({fields})"
    assert AltSeriesValue(F(1), F(0), F(1)) != AltSeriesValue(F(1), F(0), F(2))


def test_fields_refuse_assignment():
    values = [(record, _fields(record)) for record in _records()] + [
        (Dyadic(), ()),
        (Geometric(F(1, 3)), ("q",)),
        (CustomPrefixTail((F(1, 3),), F(1, 2)), ("head", "tail_ratio")),
        (DigitSeq((1,), (2,)), ("preperiod", "period")),
    ]
    for value, fields in values:
        for name in fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
    with pytest.raises(AttributeError):
        del Geometric(F(1, 3)).q


def test_copy_and_pickle_rebuild_equal_values():
    for value in (Dyadic(), Geometric(F(2, 5)), CustomPrefixTail((F(1, 3),), F(1, 2)),
                  DigitSeq((3,), (1, 2))):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and hash(clone) == hash(value)
    # the private integers are rebuilt too
    assert pickle.loads(pickle.dumps(Geometric(F(2, 5)))).affine(3) == Geometric(F(2, 5)).affine(3)


def test_graph_points_built_when_read_equal_eager_ones():
    # graph_points keeps each point as four reduced ints and builds the Fractions on first read
    for dist in (Dyadic(), Geometric(F(2, 5)), CustomPrefixTail((F(1, 3), F(1, 5)), F(2, 3))):
        for depth, cap in ((1, 1), (2, 1), (2, 3), (3, 2)):
            eager = GraphResult(tuple(brute_graph_points(dist, depth, cap)),
                                1 - dist.prefix(cap + 1) ** depth)
            for lazy in (graph_points(dist, depth, cap), copy.copy(graph_points(dist, depth, cap)),
                         pickle.loads(pickle.dumps(graph_points(dist, depth, cap)))):
                assert lazy == eager and eager == lazy
                assert hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
            lazy = graph_points(dist, depth, cap)
            assert lazy._points is None
            assert lazy.points is lazy.points
            assert all(isinstance(v, Fraction) for point in lazy.points for v in point)
            assert lazy._rows == tuple((x.numerator, x.denominator, y.numerator, y.denominator)
                                       for x, y in eager.points)
            clone = copy.deepcopy(lazy)
            assert clone == eager and clone.points == eager.points


def test_digit_seqs_of_one_stream_are_equal():
    assert DigitSeq((1, 2, 1), (2, 1)) == DigitSeq((1,), (2, 1))
    assert DigitSeq((), (2, 2, 2)) == DigitSeq((2,), (2,))
    assert DigitSeq((3, 1, 2), (1, 2, 1, 2)) == DigitSeq((3,), (1, 2))
    assert hash(DigitSeq((1, 2, 1), (2, 1))) == hash(DigitSeq((1,), (2, 1)))
    assert DigitSeq((1,), (2,)) != DigitSeq((2,), (1,))


# Monte Carlo outputs recorded from the one-digit-per-step kernels: the dyadic
# bit-mask kernel, the geometric table walk and two custom heads, whose samples
# decode through table-word runs and `shift`, stepping the unreduced remainder
# across words and summing midpoints as integers
MC_RECORDED = (
    (("integral", "--dist", "dyadic", "--method", "mc", "--samples", "2000"),
        "mean 27943969079557856030573/55340232221128654848000\n"
        "mean_decimal 0.504948533065406486665050728400…\n"
        "stderr 6.532e-03\n"),
    (("integral", "--dist", "geometric:1/3", "--method", "mc", "--samples", "2000"),
        "mean 385844803467185112577801829764118644577796804836615147995202259032004284413177066834797/971334446112864535459730953411759453321203419526069760625906204869452142602604249088000\n"
        "mean_decimal 0.397231669288861752930793286510…\n"
        "stderr 7.269e-03\n"),
    (("integral", "--dist", "custom:1/3,1/5;2/3", "--method", "mc", "--samples", "200"),
        "mean 70907066896303723697781906839570773041337025599044709020906301604878371238529613/185267342779705912677713576013900652565231975465024902463132134412661007423897600\n"
        "mean_decimal 0.382728363414897784811536764717…\n"
        "stderr 2.244e-02\n"),
    (("integral", "--dist", "custom:2/5,1/10;3/5", "--method", "mc", "--samples", "200", "--seed", "5"),
        "mean 988495147266341023650335821745201446169497308621658065139636971505912001/2208558830972980411979121875928648144784354871094523697652007751615774720\n"
        "mean_decimal 0.447574741231076723247564080208…\n"
        "stderr 2.567e-02\n"),
)


@pytest.mark.parametrize("argv, text", MC_RECORDED, ids=[argv[2] for argv, _ in MC_RECORDED])
def test_monte_carlo_prints_recorded_bytes(capsys, argv, text):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == text


GRAPH_CSV = """\
x_rational,y_rational,x_decimal,y_decimal
0,2/3,0.000000000000,0.666666666667…
1/9,5/6,0.111111111111…,0.833333333333…
1/3,1/3,0.333333333333…,0.333333333333…
2/5,5/12,0.400000000000,0.416666666667…
"""
DIAGNOSE_PLAIN = """\
depth 1 digits 3 delta -1/12 measure 18/125 quotient 125/216
depth 2 digits 3,1 delta 1/24 measure 36/625 quotient 625/864
  quotient step 5/4 formula 5/4 match True
depth 3 digits 3,1,2 delta -1/96 measure 216/15625 quotient 15625/20736
  quotient step 25/24 formula 25/24 match True
depth 4 digits 3,1,2,4 delta 1/1536 measure 11664/9765625 quotient 9765625/17915904
  quotient step 625/864 formula 625/864 match True
"""
DIAGNOSE_JSON = r"""{
  "prefixes": [
    {
      "digits": [
        3
      ],
      "digit_sum": 3,
      "delta": {
        "rational": "-1/12",
        "decimal": "-0.083333333333333333333333333333\u2026"
      },
      "measure": {
        "rational": "18/125",
        "decimal": "0.144000000000000000000000000000"
      },
      "quotient": {
        "rational": "125/216",
        "decimal": "0.578703703703703703703703703704\u2026"
      }
    },
    {
      "digits": [
        3,
        1
      ],
      "digit_sum": 4,
      "delta": {
        "rational": "1/24",
        "decimal": "0.041666666666666666666666666667\u2026"
      },
      "measure": {
        "rational": "36/625",
        "decimal": "0.057600000000000000000000000000"
      },
      "quotient": {
        "rational": "625/864",
        "decimal": "0.723379629629629629629629629630\u2026"
      },
      "quotient_step": {
        "rational": "5/4",
        "decimal": "1.250000000000000000000000000000"
      },
      "quotient_step_matches_formula": true
    },
    {
      "digits": [
        3,
        1,
        2
      ],
      "digit_sum": 6,
      "delta": {
        "rational": "-1/96",
        "decimal": "-0.010416666666666666666666666667\u2026"
      },
      "measure": {
        "rational": "216/15625",
        "decimal": "0.013824000000000000000000000000"
      },
      "quotient": {
        "rational": "15625/20736",
        "decimal": "0.753520447530864197530864197531\u2026"
      },
      "quotient_step": {
        "rational": "25/24",
        "decimal": "1.041666666666666666666666666667\u2026"
      },
      "quotient_step_matches_formula": true
    },
    {
      "digits": [
        3,
        1,
        2,
        4
      ],
      "digit_sum": 10,
      "delta": {
        "rational": "1/1536",
        "decimal": "0.000651041666666666666666666667\u2026"
      },
      "measure": {
        "rational": "11664/9765625",
        "decimal": "0.001194393600000000000000000000"
      },
      "quotient": {
        "rational": "9765625/17915904",
        "decimal": "0.545081342253229309556470050297\u2026"
      },
      "quotient_step": {
        "rational": "625/864",
        "decimal": "0.723379629629629629629629629630\u2026"
      },
      "quotient_step_matches_formula": true
    }
  ]
}
"""

# bytes the console command printed on every interpreter before its graph
# points and its cylinder measures and quotients were built from integers:
# graph rows end in "\r\n", and JSON escapes the ellipsis
DIAGNOSE_ARGV = ("diagnose", "--dist", "geometric:2/5", "--digits", "3,1,2,4")
STDOUT_RECORDED = (
    (("graph", "--dist", "custom:1/3,1/5;2/3", "--depth", "2", "--cap", "2", "--precision", "12"),
        GRAPH_CSV.replace("\n", "\r\n")),
    (DIAGNOSE_ARGV, DIAGNOSE_PLAIN),
    (DIAGNOSE_ARGV + ("--format", "json"), DIAGNOSE_JSON),
)


@pytest.mark.parametrize("argv, text", STDOUT_RECORDED, ids=("graph", "diagnose", "diagnose-json"))
def test_console_prints_recorded_bytes(argv, text):
    # run as a program, so that the bytes checked are those written to the real stdout
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    proc = subprocess.run([sys.executable, "-m", "probmink.cli", *argv], capture_output=True,
                          env=env, check=True)
    assert (proc.stdout, proc.stderr) == (text.encode(), b"")
    if argv[0] == "graph":
        assert proc.stdout.count(b"\r\n") == 5
