from fractions import Fraction

import pytest

from fatflats.bounds import (
    BoundReport,
    attach_lower,
    check_linear_alpha,
    closed_form_star,
    is_subscheme,
    monotone_lower,
    nef_lower,
    noncontainment_witness,
    star_core_lower,
    upper_bounds,
)
from fatflats.divisors import ComponentClass, DivisorClass, NefCertificate
from fatflats.errors import ValidationError
from fatflats.interpolation import AlphaRecord
from fatflats.schemes import FatPointsP2, build_theorem_b_family


def test_upper_bounds_star(star25):
    scheme = star25
    report = upper_bounds(scheme, 4)
    assert [r.alpha for r in report.table] == [4, 5, 9, 10]
    assert report.upper == Fraction(5, 2) and report.upper_k == 2
    assert report.verdict == "interval"  # upper only, no certificate yet


def test_attach_lower_exact(star25):
    scheme = star25
    report = attach_lower(upper_bounds(scheme, 2), star_core_lower(scheme))
    assert report.lower.kind == "closed-form"
    assert report.verdict == "exact" and report.upper == Fraction(5, 2)


def test_lower_above_upper_is_an_error():
    report = BoundReport(label="x", table=[AlphaRecord(k=1, alpha=2)])
    report.finalize()
    from fatflats.bounds import LowerBound
    with pytest.raises(ValidationError):
        attach_lower(report, LowerBound(Fraction(3), "closed-form", {}))


def test_unresolved_entries_do_not_contribute():
    table = [AlphaRecord(k=1, alpha=4),
             AlphaRecord(k=2, degree_cap=3)]
    report = BoundReport(label="x", table=table).finalize()
    assert report.upper == 4 and report.upper_k == 1


def test_all_unresolved_is_open():
    table = [AlphaRecord(k=1, degree_cap=1)]
    report = BoundReport(label="x", table=table).finalize()
    assert report.verdict == "open" and report.upper is None


def test_closed_form_star_value():
    assert closed_form_star(2, 5, 1).value == Fraction(5, 2)
    assert closed_form_star(4, 5, 2).value == Fraction(5, 2)
    with pytest.raises(ValidationError):
        closed_form_star(3, 2, 1)


def test_star_core_lower_requires_core():
    scheme = FatPointsP2([(1, 0, 1)], [2]).to_scheme()
    with pytest.raises(ValidationError):
        star_core_lower(scheme)


def test_check_linear_alpha():
    scheme = FatPointsP2([(1, 2, 1)], [3]).to_scheme()
    ok, failing = check_linear_alpha(scheme, 3, 3)
    assert ok and failing is None
    ok, failing = check_linear_alpha(scheme, 2, 3)
    assert not ok and failing == 1


def test_check_linear_alpha_needs_a_k(star25):
    """With no k to test there is no evidence, so no "linear" verdict;
    upper_bounds refuses the same k_max."""
    for k_max in (0, -1):
        with pytest.raises(ValidationError, match="k_max must be >= 1"):
            check_linear_alpha(star25, 7, k_max)
        with pytest.raises(ValidationError, match="k_max must be >= 1"):
            upper_bounds(star25, k_max)


def test_is_subscheme():
    big = build_theorem_b_family("z", {"n": 5})
    sub = FatPointsP2([big.points[0], big.points[1]], [1, 1])
    assert is_subscheme(sub, big)
    assert not is_subscheme(big, sub)
    too_fat = FatPointsP2([big.points[1]], [2])
    assert not is_subscheme(too_fat, big)


def test_monotone_lower_transfer():
    big = build_theorem_b_family("b", {"r": 1, "s": 1})
    double_idx = big.multiplicities.index(2)
    sub = FatPointsP2([big.points[double_idx]], [2])
    cert = NefCertificate(divisor=DivisorClass(1, (1,)),
                          decomposition=((ComponentClass("line", (0,)), 1),))
    bound = monotone_lower(big, sub, nef_lower(sub, cert))
    assert bound.value == 2 and bound.kind == "monotone"
    assert bound.detail["via"] == "nef"
    stranger = FatPointsP2([(9, 9, 1)], [1])
    with pytest.raises(ValidationError):
        monotone_lower(big, stranger, nef_lower(sub, cert))


def test_noncontainment_witness(star25):
    scheme = star25
    assert noncontainment_witness(scheme, 2, 2)  # 5 < 8
    assert not noncontainment_witness(scheme, 1, 1)
    with pytest.raises(ValidationError):
        noncontainment_witness(scheme, 0, 1)
