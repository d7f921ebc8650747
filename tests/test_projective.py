import itertools
import random
from fractions import Fraction

import pytest

from fatflats.errors import (
    GenericityError,
    RankDeficiencyError,
    ValidationError,
)
from fatflats.projective import (
    LinForm,
    Subspace,
    collinear,
    hyperplane_subspace,
    hyperplane_through,
    hyperplanes_general,
    intersect_hyperplanes,
    normalize_point,
    point_subspace,
    primitive,
    random_general_hyperplanes,
    random_point_on,
    subspace_contains,
    transform_subspace,
)


def test_linform_canonical_up_to_scale():
    assert LinForm([2, 4, 6]) == LinForm([1, 2, 3])
    assert LinForm([0, -3, 6]) == LinForm([0, 1, -2])


def test_linform_rejects_zero():
    with pytest.raises(ValidationError, match="nonzero coefficient"):
        LinForm([0, 0, 0])


def test_zero_point_is_named_a_point():
    with pytest.raises(ValidationError, match="nonzero coordinate"):
        point_subspace((0, 0, 0))
    with pytest.raises(ValidationError, match="nonzero coordinate"):
        normalize_point((0, Fraction(0), 0))


def test_subspace_canonical_equality():
    a = Subspace(2, [LinForm([1, 1, 0]), LinForm([0, 1, 1])])
    b = Subspace(2, [LinForm([1, 0, -1]), LinForm([0, 2, 2])])
    assert a == b  # same row space, syntactically equal after reduction


def test_subspace_rejects_dependent_forms():
    with pytest.raises(RankDeficiencyError):
        Subspace(2, [LinForm([1, 1, 0]), LinForm([2, 2, 0])])


def test_point_subspace_roundtrip():
    for p in [(1, 2, 3), (0, 1, 5), (0, 0, 1), (2, 0, 0, 4)]:
        sub = point_subspace(p)
        assert sub.is_point
        assert normalize_point(sub.basis[0]) == normalize_point(p)
        assert sub.spans == (primitive(normalize_point(p)),)
        assert subspace_contains(sub, point_subspace(p))


def test_normalize_point_leading_one():
    assert normalize_point((0, 2, 4)) == (0, 1, 2)
    assert normalize_point((Fraction(1, 2), 1, 0)) == (1, 2, 0)


def test_hyperplane_through_contains_both_points():
    """The line through two points of P^2 holds both; two representatives
    of one point span no line."""
    p, q = (1, 2, 1), (3, -1, 1)
    line = hyperplane_through([p, q])
    assert sum(a * x for a, x in zip(line, p)) == 0
    assert sum(a * x for a, x in zip(line, q)) == 0
    assert hyperplane_through([p, (2, 4, 2)]) is None
    half = normalize_point((Fraction(1, 2), 1, Fraction(1, 3)))
    assert primitive(half) == (3, 6, 2)
    assert hyperplane_through([primitive(half), (6, 12, 4)]) is None


def test_collinear():
    assert collinear([(0, 0, 1), (1, 0, 1), (2, 0, 1)])
    assert not collinear([(0, 0, 1), (1, 0, 1), (0, 1, 1)])
    assert collinear([(1, 0, 1), (0, 1, 1)])  # two points always are
    # In P^3 every coordinate counts, not only the first three.
    assert collinear([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)])
    assert not collinear([(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 5)])
    with pytest.raises(ValidationError):
        collinear([(1, 0, 1), (2, 0, 2)])  # duplicates
    with pytest.raises(ValidationError):
        collinear([(1, 0, 1)])


def test_spans_and_equations_are_primitive_integer_vectors():
    """A flat whose RREF has denominators 9 and 3: its points and forms
    are integer, primitive, and every form vanishes at every point."""
    sub = Subspace(3, [LinForm([-1, 4, -2, 1]), LinForm([3, -3, -4, 3])])
    assert sub.equations == ((9, 0, -22, 15), (0, 9, -10, 6))
    assert sub.spans == ((22, 10, 9, 0), (-5, -2, 0, 3))
    assert all(sum(a * x for a, x in zip(h, v)) == 0
               for h in sub.equations for v in sub.spans)


def test_subspace_contains():
    h = hyperplane_subspace(LinForm([1, 1, 1, 1]))
    line = Subspace(3, [LinForm([1, 1, 1, 1]), LinForm([0, 1, 0, -1])])
    assert subspace_contains(h, line)
    assert not subspace_contains(line, h)
    other = hyperplane_subspace(LinForm([1, 0, 0, 0]))
    assert not subspace_contains(other, line)


def test_intersect_hyperplanes():
    forms = [LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0]),
             LinForm([0, 0, 1, 0])]
    sub = intersect_hyperplanes(forms, (0, 2))
    assert sub.codim == 2
    assert subspace_contains(hyperplane_subspace(forms[0]), sub)
    with pytest.raises(ValidationError):
        intersect_hyperplanes(forms, ())


def test_random_general_hyperplanes_reproducible_and_general():
    a = random_general_hyperplanes(3, 5, seed=42)
    b = random_general_hyperplanes(3, 5, seed=42)
    assert a == b
    assert hyperplanes_general(a)
    assert random_general_hyperplanes(3, 5, seed=43) != a


def test_hyperplanes_general_detects_degeneracy():
    forms = [LinForm([1, 0, 0]), LinForm([0, 1, 0]), LinForm([1, 1, 0])]
    assert not hyperplanes_general(forms)  # concurrent lines in P^2


def test_random_point_on_avoids():
    rng = random.Random(5)
    h = hyperplane_subspace(LinForm([1, 1, 1]))
    avoid = [point_subspace((1, 0, -1))]
    p = random_point_on(h, rng, avoid=avoid)
    assert subspace_contains(h, point_subspace(p))
    assert p != normalize_point((1, 0, -1))
    with pytest.raises(ValidationError):
        random_point_on(point_subspace((1, 0, 0)), rng)


def test_random_point_on_impossible_avoidance():
    rng = random.Random(5)
    h = hyperplane_subspace(LinForm([1, 0, 0]))
    with pytest.raises(GenericityError):
        random_point_on(h, rng, avoid=[h])


def test_transform_subspace_moves_points_consistently():
    m = [[1, 1, 0], [0, 1, 0], [2, 0, 1]]
    p = (3, 5, 1)
    sub = point_subspace(p)
    moved = transform_subspace(sub, m)
    image = [sum(row[j] * Fraction(p[j]) for j in range(3)) for row in m]
    assert subspace_contains(moved, point_subspace(image))
    with pytest.raises(ValidationError):
        transform_subspace(sub, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_transform_subspace_respects_containment():
    m = [[1, 2, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [1, 0, 0, 3]]
    h = hyperplane_subspace(LinForm([1, 1, 1, 1]))
    line = Subspace(3, [LinForm([1, 1, 1, 1]), LinForm([0, 1, 0, -1])])
    assert subspace_contains(transform_subspace(h, m),
                             transform_subspace(line, m))


def test_genericity_proxy_bounds_subset_size():
    # 6 forms in P^2: checks all 3-subsets, not 6x6 minors.
    forms = random_general_hyperplanes(2, 6, seed=0)
    for trio in itertools.combinations(forms, 3):
        rows = [list(f.coeffs) for f in trio]
        assert len(rows) == 3
