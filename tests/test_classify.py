import random
from fractions import Fraction

import pytest

from fatflats.classify import (
    CASE_A,
    CASE_B,
    CASE_C,
    FIGURE_3,
    GENERAL_POSITION_CONIC,
    MULTIPLICITY_AT_LEAST_3,
    NOT_BELOW,
    TWO_DOUBLES,
    classify,
)
from fatflats.divisors import verify_nef
from fatflats.errors import ValidationError
from fatflats.interpolation import alpha_symbolic, require_alpha
from fatflats.projective import normalize_point
from fatflats.schemes import FatPointsP2, build_theorem_b_family


def _sub_config(config, indices):
    return FatPointsP2([config.points[i] for i in indices],
                       [config.multiplicities[i] for i in indices])


def test_reduced_configurations_rejected():
    with pytest.raises(ValidationError):
        classify(FatPointsP2([(0, 0, 1), (1, 0, 1)], [1, 1]))


def test_multiplicity_three_pins_bound():
    result = classify(FatPointsP2([(0, 0, 1), (1, 1, 1)], [3, 1]))
    assert result.case == NOT_BELOW
    assert result.reason == MULTIPLICITY_AT_LEAST_3
    assert result.lower.value == 3
    assert not result.below_five_halves


def test_case_a_collinear():
    for params in ({"r": 1, "s": 0}, {"r": 3, "s": 2}):
        result = classify(build_theorem_b_family("a", params))
        assert result.case == CASE_A
        assert result.alpha_hat == 2
    # A single double point is also case a.
    assert classify(FatPointsP2([(1, 2, 1)], [2])).case == CASE_A


def test_two_doubles_certificate_reverifies():
    config = build_theorem_b_family("zprime")
    result = classify(config)
    assert result.case == NOT_BELOW and result.reason == TWO_DOUBLES
    assert result.lower.value == Fraction(5, 2)
    verify_nef(result.certificate, _sub_config(config,
                                               result.subscheme_indices))


def test_case_b_two_lines():
    for params in ({"r": 1, "s": 1}, {"r": 2, "s": 3}):
        result = classify(build_theorem_b_family("b", params))
        assert result.case == CASE_B
        assert result.alpha_hat == 2


def test_case_c():
    result = classify(build_theorem_b_family("c"))
    assert result.case == CASE_C
    assert result.alpha_hat == Fraction(7, 3)


def test_figure3_bound_grows_with_n():
    for n in (5, 6, 8):
        config = build_theorem_b_family("z", {"n": n})
        result = classify(config)
        assert result.case == NOT_BELOW and result.reason == FIGURE_3
        assert result.lower.value == Fraction(3 * n - 5, n - 1)
        verify_nef(result.certificate, _sub_config(config,
                                                   result.subscheme_indices))


def test_complete_for_any_number_of_points():
    """92 points make 4186 pairs, more than the search's hyperplane catalog
    takes: the classifier reads every line all the same."""
    config = build_theorem_b_family("z", {"n": 92})
    result = classify(config)
    assert result.case == NOT_BELOW and result.reason == FIGURE_3
    assert result.lower.value == Fraction(3 * 92 - 5, 91)
    result = classify(build_theorem_b_family("b", {"r": 45, "s": 46}))
    assert result.case == CASE_B and result.detail == {"r": 45, "s": 46}


def test_n4_collinear_simples_is_case_c_not_figure3():
    result = classify(build_theorem_b_family("z", {"n": 4}))
    assert result.case == CASE_C


def test_general_position_conic():
    config = build_theorem_b_family("wprime")
    result = classify(config)
    assert result.case == NOT_BELOW
    assert result.reason == GENERAL_POSITION_CONIC
    assert result.lower.value == Fraction(5, 2)
    verify_nef(result.certificate, _sub_config(config,
                                               result.subscheme_indices))


def test_wsecond_not_below():
    result = classify(build_theorem_b_family("wsecond"))
    assert result.case == NOT_BELOW
    assert result.lower.value >= Fraction(5, 2)


def test_vprime_is_collinear_case_a():
    result = classify(build_theorem_b_family(
        "vprime", {"multiplicities": (2, 1, 1, 1)}))
    assert result.case == CASE_A


def test_classifier_lower_bounds_never_exceed_engine_values():
    """Soundness spot check: for every certified NotBelow verdict the
    certified bound is at most alpha(I^(2))/2 computed by the engine."""
    for case_id, params in (("zprime", None), ("wprime", None),
                            ("wsecond", None), ("z", {"n": 5})):
        config = build_theorem_b_family(case_id, params)
        result = classify(config)
        assert result.case == NOT_BELOW
        a2 = require_alpha(alpha_symbolic(config.to_scheme(), 2))
        assert result.lower.value <= Fraction(a2, 2)


def test_below_families_match_engine_ratios():
    """Exact-case soundness: alpha(I^(3))/3 already meets the claimed
    constant for case c, and alpha(I^(2))/2 for cases a and b."""
    c = classify(build_theorem_b_family("c"))
    a3 = require_alpha(alpha_symbolic(build_theorem_b_family("c").to_scheme(),
                                      3))
    assert Fraction(a3, 3) == c.alpha_hat
    for case_id, params in (("a", {"r": 2, "s": 1}), ("b", {"r": 1, "s": 1})):
        config = build_theorem_b_family(case_id, params)
        result = classify(config)
        a2 = require_alpha(alpha_symbolic(config.to_scheme(), 2))
        assert Fraction(a2, 2) == result.alpha_hat


def test_one_double_point_verdicts_carry_proofs():
    """Seeded configurations of one double point and 3-6 simple points
    with coordinates in a small box, so that many points are collinear:
    every verdict is an exact family or carries a certified lower bound of
    at least 5/2, and branch (7) never fails to find its conic."""
    rng = random.Random(1013)
    conics = 0
    for _ in range(300):
        n, box = rng.randint(4, 7), rng.choice((1, 1, 2))
        points = set()
        while len(points) < n:
            v = [rng.randint(-box, box) for _ in range(3)]
            if any(v):
                points.add(normalize_point(v))
        points = sorted(points)
        rng.shuffle(points)
        result = classify(FatPointsP2(points, [2] + [1] * (n - 1)))
        if result.case == NOT_BELOW:
            assert result.lower is not None, points
            assert result.lower.value >= Fraction(5, 2), points
        else:
            assert result.alpha_hat in (2, Fraction(7, 3)), points
        conics += result.reason == GENERAL_POSITION_CONIC
    assert conics >= 200
