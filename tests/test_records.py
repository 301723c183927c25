"""The value classes: equality, hashing, repr and immutability, and a cold import.

Distributions and `DigitSeq` are slotted classes that normalise their
fields; every result record is a `typing.NamedTuple`. The expected values
below are the behaviour the package has always had, pinned exactly.
"""

import copy
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
