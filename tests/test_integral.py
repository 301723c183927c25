import functools
import random
from fractions import Fraction

import pytest

from probmink import (
    CustomPrefixTail,
    DomainError,
    Dyadic,
    Geometric,
    alpha,
    gamma,
    integral_closed,
    integral_mc,
    integral_quadrature,
    integral_report,
)
from probmink.expansion import _word_table
from probmink.integral import (
    _mc_sample_decode,
    _mc_sample_dyadic,
    _mc_sample_geometric,
    _mc_sums,
)

from oracles import brute_corner_sum, corner_sum_uncapped, ref_mc_generic

F = Fraction
DISTS = (Dyadic(), Geometric(F(1, 3)), CustomPrefixTail((F(1, 3), F(1, 6)), F(1, 2)))


def test_alpha_gamma_fixtures():
    assert alpha(Dyadic()) == F(1, 3)
    assert gamma(Dyadic()) == F(1, 7)
    g = Geometric(F(1, 3))
    assert alpha(g) == F(1, 4)
    assert gamma(g) == F(1, 14)


def test_alpha_gamma_against_partial_sums():
    # the tail beyond 200 terms is below sum of 2^-j, j > 200
    tail = F(1, 1 << 200)
    for dist in DISTS:
        pa = sum((dist.pmf(j) / (1 << j) for j in range(1, 201)), F(0))
        pg = sum((dist.pmf(j) ** 2 / (1 << j) for j in range(1, 201)), F(0))
        assert 0 < alpha(dist) - pa < tail
        assert 0 < gamma(dist) - pg < tail
        assert gamma(dist) < alpha(dist) < 1


def test_closed_form_fixtures():
    forms = integral_closed(Dyadic())
    assert forms.alpha_form == F(1, 2)
    assert forms.gamma_form == F(7, 12)
    forms = integral_closed(Geometric(F(1, 3)))
    assert forms.alpha_form == F(2, 5)
    assert forms.gamma_form == F(7, 15)


def test_gamma_form_matches_its_alternating_series():
    # 2 * sum of (-1)^(n-1) alpha gamma^(n-1) telescopes to 2a/(1+g);
    # consecutive partial sums bracket the limit
    for dist in DISTS:
        a, g = alpha(dist), gamma(dist)
        limit = a / (1 + g)
        assert 2 * limit == integral_closed(dist).gamma_form
        partial = F(0)
        prev = None
        for n in range(1, 9):
            partial += (-1) ** (n - 1) * a * g ** (n - 1)
            if prev is not None:
                assert min(prev, partial) <= limit <= max(prev, partial)
            prev = partial


def test_corner_sum_matches_brute_force():
    # the recursion against explicit word enumeration, all families
    for dist in DISTS:
        for depth in (1, 2, 3):
            for cap in (1, 2, 3):
                quad = integral_quadrature(dist, depth, cap)
                assert quad.corner_sum == brute_corner_sum(dist, depth, cap)


def test_corner_sum_hand_values():
    d = Dyadic()
    assert corner_sum_uncapped(d, 2) == F(14, 27)
    assert integral_quadrature(d, 1, 1).corner_sum == F(1, 3)


def test_quadrature_encloses_and_nests():
    for dist in DISTS:
        outer = integral_quadrature(dist, 6, 30)
        inner = integral_quadrature(dist, 8, 30)
        assert outer.lower <= inner.lower and inner.upper <= outer.upper
        assert inner.width < outer.width
        target = integral_closed(dist).alpha_form
        assert inner.contains(target)


def test_quadrature_adjudicates():
    for dist in DISTS:
        quad = integral_quadrature(dist, 12, 40)
        forms = integral_closed(dist)
        assert quad.contains(forms.alpha_form)
        assert not quad.contains(forms.gamma_form)


def test_quadrature_parts_are_consistent():
    quad = integral_quadrature(Geometric(F(1, 3)), 5, 20)
    assert quad.lower == quad.corner_sum - quad.oscillation
    assert quad.upper == quad.corner_sum + quad.oscillation + quad.uncovered
    assert quad.uncovered == 1 - Geometric(F(1, 3)).prefix(21) ** 5
    assert 0 < quad.oscillation < F(1, 1 << 5)


def test_quadrature_domain_errors():
    d = Dyadic()
    with pytest.raises(DomainError):
        integral_quadrature(d, 0, 10)
    with pytest.raises(DomainError):
        integral_quadrature(d, 3, 0)


def test_mc_fast_path_matches_generic():
    # the integer kernels and the decode path against the plain rational loop, same draws
    for dist, q in (
        (Dyadic(), F(1, 2)),
        (Geometric(F(1, 2)), F(1, 2)),
        (Geometric(F(1, 3)), F(1, 3)),
        (Geometric(F(2, 5)), F(2, 5)),
        (Geometric(F(1, 4)), F(1, 4)),
    ):
        if q == F(1, 2):
            fast = _mc_sample_dyadic
        else:
            fast = functools.partial(_mc_sample_geometric, q.numerator, q.denominator,
                                     _word_table(dist))
        want = ref_mc_generic(dist, 100, random.Random(505))
        decoded = functools.partial(_mc_sample_decode, dist)
        assert _mc_sums(fast, 100, random.Random(505)) == want
        assert _mc_sums(decoded, 100, random.Random(505)) == want


def test_mc_decode_sums_match_rational_loop():
    # custom heads: integer sums of decode's midpoints against one Fraction per midpoint
    for dist in (
        CustomPrefixTail((F(1, 3), F(1, 5)), F(2, 3)),
        CustomPrefixTail((F(2, 5), F(1, 10)), F(3, 5)),
        CustomPrefixTail((F(1, 7), F(2, 9), F(1, 12)), F(3, 5)),
    ):
        for seed in (1, 5, 42):
            got = _mc_sums(functools.partial(_mc_sample_decode, dist), 150, random.Random(seed))
            assert got == ref_mc_generic(dist, 150, random.Random(seed))
    # the run's mean and variance are those of the rational loop's sums
    dist = CustomPrefixTail((F(1, 3), F(1, 5)), F(2, 3))
    total, sq_total = ref_mc_generic(dist, 40, random.Random(9))
    estimate = integral_mc(dist, 40, 9)
    assert estimate.mean == total / 40
    assert estimate.variance == (sq_total - 40 * estimate.mean**2) / 39


def test_mc_deterministic_and_sane():
    d = Dyadic()
    a = integral_mc(d, 2000, 7)
    b = integral_mc(d, 2000, 7)
    assert (a.mean, a.variance, a.samples, a.seed) == (b.mean, b.variance, 2000, 7)
    assert abs(a.mean - F(1, 2)) < F(1, 50)
    assert 0 < a.variance < 1
    with pytest.raises(DomainError):
        integral_mc(d, 0, 7)


def test_integral_report():
    report = integral_report(Dyadic(), depth=12, cap=40, samples=500, seed=11)
    assert report.verdict == "alpha_form"
    assert report.closed_form_alpha == F(1, 2)
    assert report.closed_form_gamma == F(7, 12)
    payload = report.to_json_dict(precision=12)
    assert payload["alpha"]["rational"] == "1/3"
    assert payload["closed_form_alpha"]["decimal"] == "0.500000000000"
    assert payload["quadrature"]["depth"] == 12
    assert payload["monte_carlo"]["samples"] == 500
    assert payload["verdict"] == "alpha_form"


def test_integral_report_without_mc():
    report = integral_report(Geometric(F(1, 3)), depth=10, cap=30, with_mc=False)
    assert report.mc is None
    assert report.verdict == "alpha_form"
    assert "monte_carlo" not in report.to_json_dict()


def test_custom_family_adjudication():
    c = CustomPrefixTail((F(1, 10),), F(1, 2))
    forms = integral_closed(c)
    quad = integral_quadrature(c, 12, 40)
    assert quad.contains(forms.alpha_form)
    assert not quad.contains(forms.gamma_form)
