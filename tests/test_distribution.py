import random
from fractions import Fraction

import pytest

from probmink import (
    CustomPrefixTail,
    DomainError,
    Dyadic,
    Geometric,
    ParseError,
    parse_distribution,
)

F = Fraction


def test_dyadic_pmf_prefix():
    d = Dyadic()
    assert d.pmf(1) == F(1, 2)
    assert d.pmf(3) == F(1, 8)
    assert d.prefix(1) == 0
    assert d.prefix(2) == F(1, 2)
    assert d.prefix(3) == F(3, 4)
    assert d.max_p() == F(1, 2)


def test_geometric_half_matches_dyadic():
    d = Dyadic()
    g = Geometric(F(1, 2))
    for i in range(1, 21):
        assert g.pmf(i) == d.pmf(i)
        assert g.prefix(i) == d.prefix(i)


def test_geometric_third():
    g = Geometric(F(1, 3))
    assert g.pmf(1) == F(1, 3)
    assert g.pmf(2) == F(2, 9)
    assert g.pmf(3) == F(4, 27)
    assert g.prefix(3) == F(5, 9)
    assert g.max_p() == F(1, 3)


def test_custom_head_tail():
    c = CustomPrefixTail((F(1, 10),), F(1, 2))
    assert c.pmf(1) == F(1, 10)
    # tail starts at digit 2 with the remaining 9/10 split geometrically
    assert c.pmf(2) == F(9, 20)
    assert c.pmf(3) == F(9, 40)
    assert c.max_p() == F(9, 20)
    c2 = CustomPrefixTail((F(1, 3), F(1, 6)), F(1, 2))
    assert c2.pmf(1) == F(1, 3)
    assert c2.pmf(2) == F(1, 6)
    assert c2.pmf(3) == F(1, 4)
    assert c2.pmf(4) == F(1, 8)


def test_prefix_is_cumulative_pmf():
    dists = (Dyadic(), Geometric(F(2, 7)), CustomPrefixTail((F(1, 3), F(1, 6)), F(1, 2)))
    for d in dists:
        running = F(0)
        for i in range(1, 13):
            assert d.prefix(i) == running
            running += d.pmf(i)
        assert 0 < running < 1


def test_digit_of_inverts_prefix():
    rng = random.Random(91)
    dists = (
        Dyadic(),
        Geometric(F(1, 3)),
        CustomPrefixTail((F(1, 10),), F(1, 2)),
        CustomPrefixTail((F(1, 7), F(2, 9), F(1, 12)), F(3, 5)),
    )
    for d in dists:
        for i in range(1, 10):
            assert d.digit_of(d.prefix(i)) == i
        for _ in range(50):
            x = F(rng.randrange(0, 9973), 9973)
            c = d.digit_of(x)
            assert d.prefix(c) <= x < d.prefix(c + 1)


def test_digit_domain_errors():
    for d in (Dyadic(), Geometric(F(1, 3))):
        with pytest.raises(DomainError):
            d.pmf(0)
        with pytest.raises(DomainError):
            d.prefix(0)


def test_geometric_parameter_validation():
    for bad in (F(0), F(1), F(5, 3), F(-1, 2)):
        with pytest.raises(DomainError):
            Geometric(bad)


def test_custom_validation():
    with pytest.raises(DomainError):
        CustomPrefixTail((F(1, 2), F(1, 2)), F(1, 2))  # head already sums to 1
    with pytest.raises(DomainError):
        CustomPrefixTail((F(3, 2),), F(1, 2))  # head entry outside (0,1)
    with pytest.raises(DomainError):
        CustomPrefixTail((F(1, 3),), F(0))  # degenerate tail ratio
    with pytest.raises(DomainError):
        CustomPrefixTail((F(1, 3),), F(1))
    with pytest.raises(DomainError):
        CustomPrefixTail((), F(2, 3))  # no head: its spec string "custom:;2/3" would not parse


def test_parse_distribution():
    assert isinstance(parse_distribution("dyadic"), Dyadic)
    g = parse_distribution("geometric:1/3")
    assert isinstance(g, Geometric) and g.q == F(1, 3)
    c = parse_distribution("custom:1/3,1/6;1/2")
    assert isinstance(c, CustomPrefixTail)
    assert c.head == (F(1, 3), F(1, 6)) and c.tail_ratio == F(1, 2)


def test_parse_distribution_round_trips_spec_string():
    for spec in ("dyadic", "geometric:2/5", "custom:1/10;1/2", "custom:1/3,1/6;1/2"):
        d = parse_distribution(spec)
        assert parse_distribution(d.spec_string()).spec_string() == d.spec_string()


def test_parse_distribution_errors():
    for bad in (
        "nope",
        "geometric",
        "geometric:abc",
        "custom:1/2",
        "custom:;1/2",
        "custom:1/3;1/2;1/4",
        "",
    ):
        with pytest.raises(ParseError):
            parse_distribution(bad)
    for out_of_range in ("geometric:0", "geometric:1", "geometric:5/3", "custom:1/3;0"):
        with pytest.raises((ParseError, DomainError)):
            parse_distribution(out_of_range)
