from fractions import Fraction

import pytest

from fatflats.divisors import (
    ComponentClass,
    DivisorClass,
    NefCertificate,
    intersect,
    lower_bound,
    validate_component,
    verify_nef,
)
from fatflats.errors import CertificateError, ValidationError
from fatflats.schemes import FatPointsP2, build_theorem_b_family


@pytest.fixture
def square():
    """Four points, no three collinear."""
    return FatPointsP2([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                       [2, 1, 1, 1])


def test_intersection_pairing():
    l = DivisorClass(1, (0, 0))
    e1 = DivisorClass(0, (-1, 0))
    assert intersect(l, l) == 1
    assert intersect(e1, e1) == -1
    assert intersect(l, e1) == 0
    line_transform = DivisorClass(1, (1, 1))
    assert intersect(line_transform, line_transform) == -1
    with pytest.raises(ValidationError):
        intersect(l, DivisorClass(1, (0, 0, 0)))


def test_divisor_algebra():
    a = DivisorClass(2, (1, 1))
    b = DivisorClass(1, (0, 1))
    assert a + b == DivisorClass(3, (1, 2))
    assert a.scale(3) == DivisorClass(6, (3, 3))


def test_component_divisor_classes():
    assert ComponentClass("E", (1,)).divisor_class(3) == \
        DivisorClass(0, (0, -1, 0))
    assert ComponentClass("line", (0, 2)).divisor_class(3) == \
        DivisorClass(1, (1, 0, 1))
    assert ComponentClass("conic", (0, 1, 2)).divisor_class(3) == \
        DivisorClass(2, (1, 1, 1))
    with pytest.raises(ValidationError):
        ComponentClass("cubic", (0,))


def test_validate_component_line_must_list_all_points():
    config = build_theorem_b_family("z", {"n": 4})  # p2, p3, p4 collinear
    # The line through p2 and p3 also passes through p4: listing only two
    # of the three is rejected.
    with pytest.raises(ValidationError):
        validate_component(ComponentClass("line", (1, 2)), config)
    validate_component(ComponentClass("line", (1, 2, 3)), config)
    # Points off a common line cannot form a line transform.
    with pytest.raises(ValidationError):
        validate_component(ComponentClass("line", (0, 1, 2)), config)


def test_validate_component_conic_rules(square):
    validate_component(ComponentClass("conic", (0, 1, 2, 3)), square)
    config = build_theorem_b_family("z", {"n": 5})
    with pytest.raises(ValidationError):  # three collinear points
        validate_component(ComponentClass("conic", (1, 2, 3)), config)
    # No three of these six are collinear, and no conic passes through all.
    six = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1),
                       (2, 3, 1), (3, 2, 1)], [1] * 6)
    with pytest.raises(ValidationError, match="no conic"):
        validate_component(ComponentClass("conic", (0, 1, 2, 3, 4, 5)), six)
    # The first five fix a conic, which misses the sixth.
    validate_component(ComponentClass("conic", (0, 1, 2, 3, 4)), six)


def test_validate_component_conic_must_list_every_point_on_it():
    # Six points on the conic y^2 = xz, no three collinear.
    config = FatPointsP2([(1, 0, 0), (1, 1, 1), (1, 2, 4), (1, 3, 9),
                          (1, 4, 16), (0, 0, 1)], [2] * 6)
    validate_component(ComponentClass("conic", range(6)), config)
    with pytest.raises(ValidationError, match="every configuration point"):
        validate_component(ComponentClass("conic", range(5)), config)
    # Four points do not fix a conic: a general one through them misses
    # the other two.
    validate_component(ComponentClass("conic", range(4)), config)


def test_validate_component_index_range(square):
    with pytest.raises(ValidationError):
        validate_component(ComponentClass("E", (7,)), square)
    with pytest.raises(ValidationError):
        validate_component(ComponentClass("E", (0, 1)), square)


def test_verify_nef_accepts_conic_certificate(square):
    cert = NefCertificate(divisor=DivisorClass(2, (1, 1, 1, 1)),
                          decomposition=((ComponentClass("conic",
                                                         (0, 1, 2, 3)), 1),))
    verify_nef(cert, square)
    assert lower_bound(square, cert) == Fraction(5, 2)


def test_verify_nef_rejects_wrong_sum(square):
    cert = NefCertificate(divisor=DivisorClass(3, (1, 1, 1, 1)),
                          decomposition=((ComponentClass("conic",
                                                         (0, 1, 2, 3)), 1),))
    with pytest.raises(CertificateError):
        verify_nef(cert, square)


def test_verify_nef_rejects_negative_pairing():
    # 1L - E1 - E2 meets the line transform through both points in -1.
    config = FatPointsP2([(0, 0, 1), (1, 0, 1)], [2, 2])
    cert = NefCertificate(divisor=DivisorClass(1, (1, 1)),
                          decomposition=((ComponentClass("line", (0, 1)), 1),))
    with pytest.raises(CertificateError, match="negatively"):
        verify_nef(cert, config)


def test_verify_nef_rejects_size_mismatch_and_empty(square):
    cert = NefCertificate(divisor=DivisorClass(1, (1,)),
                          decomposition=((ComponentClass("line", (0,)), 1),))
    with pytest.raises(CertificateError):
        verify_nef(cert, square)
    with pytest.raises(CertificateError):
        verify_nef(NefCertificate(DivisorClass(2, (1, 1, 1, 1)), ()), square)


def test_verify_nef_rejects_nonpositive_coefficients(square):
    cert = NefCertificate(
        divisor=DivisorClass(2, (1, 1, 1, 1)),
        decomposition=((ComponentClass("conic", (0, 1, 2, 3)), 0),))
    with pytest.raises(CertificateError):
        verify_nef(cert, square)


def test_lower_bound_weights_multiplicities():
    # Double point alone: 1L - E via a line through it, bound = 2/1.
    config = FatPointsP2([(3, 4, 1)], [2])
    cert = NefCertificate(divisor=DivisorClass(1, (1,)),
                          decomposition=((ComponentClass("line", (0,)), 1),))
    assert lower_bound(config, cert) == 2
