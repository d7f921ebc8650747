import random
from fractions import Fraction
from math import comb

import pytest

from fatflats.bounds import star_core_lower
from fatflats.errors import ValidationError
from fatflats.projective import (
    LinForm,
    Subspace,
    collinear,
    hyperplane_subspace,
    point_subspace,
    random_point_on,
    subspace_contains,
)
from fatflats.schemes import (
    FatComponent,
    FatFlatScheme,
    FatPointsP2,
    StarData,
    build_fat_flat,
    build_quasi_star,
    build_rational_target,
    build_theorem_a,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
    support_line,
    symbolic_multiplicities,
    transform_scheme,
)


def test_star_configuration_component_count():
    for n, e, s in [(2, 2, 4), (3, 2, 4), (3, 3, 4), (4, 2, 5)]:
        scheme = star_configuration(n, e, s, seed=1)
        assert len(scheme.components) == comb(s, e)
        assert all(c.subspace.codim == e for c in scheme.components)
        assert scheme.star_core == (e, s, 1)


def test_star_configuration_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        star_configuration(2, 3, 4)
    with pytest.raises(ValidationError):
        star_configuration(3, 2, 1)


def test_scheme_rejects_containment():
    h = hyperplane_subspace(LinForm([1, 0, 0, 0]))
    line = Subspace(3, [LinForm([1, 0, 0, 0]), LinForm([0, 1, 0, 0])])
    with pytest.raises(ValidationError):
        FatFlatScheme(3, (FatComponent(h, 1), FatComponent(line, 1)))


def test_scheme_rejects_duplicates_and_empty():
    p = point_subspace((1, 2, 1))
    with pytest.raises(ValidationError):
        FatFlatScheme(2, (FatComponent(p, 1), FatComponent(p, 2)))
    with pytest.raises(ValidationError):
        FatFlatScheme(2, ())


def test_scheme_checks_its_star():
    """A star is accepted only if the scheme contains m*S_N(e, s)."""
    scheme = star_configuration(3, 2, 4, seed=1)
    hyps, comps = scheme.star.hyperplanes, scheme.components
    assert FatFlatScheme(3, comps, StarData(hyps, 2)) == scheme
    bad_stars = [
        StarData(hyps, 0), StarData(hyps, 2, 0), StarData(hyps[:1], 2),
        StarData(hyps, 2, 2),                 # the lines have multiplicity 1
        StarData(hyps[:3] + hyps[:1], 2),     # not general
        StarData([LinForm([1, 0, 0])] * 4, 2),  # hyperplanes of P^2
    ]
    for star in bad_stars:
        with pytest.raises(ValidationError, match="star_core"):
            FatFlatScheme(3, comps, star)


def test_star_over_its_own_planes_is_refused():
    """S_3(2,4) claiming e = 1 over its own four planes (closed form 4,
    true constant 2) is refused when built: the planes are not components,
    so no search ever starts from that floor."""
    scheme = star_configuration(3, 2, 4, seed=1)
    planes = StarData(scheme.star.hyperplanes, 1)
    with pytest.raises(ValidationError, match="star_core flat L1 "):
        FatFlatScheme(3, scheme.components, planes)


def test_transform_scheme_moves_the_star():
    scheme = build_fat_flat(star_configuration(3, 2, 4, seed=1).star, 2)
    matrix = [[1, 2, 0, 0], [0, 1, 3, 0], [0, 0, 1, -1], [1, 0, 0, 1]]
    moved = transform_scheme(scheme, matrix)
    assert moved.star.hyperplanes != scheme.star.hyperplanes
    assert {c.subspace for c in moved.star.components()} == \
        {c.subspace for c in moved.components}
    assert star_core_lower(moved) == star_core_lower(scheme)


def test_scale_multiplicities():
    scheme = star_configuration(2, 2, 4, seed=1)
    doubled = scale_multiplicities(scheme, 3)
    assert all(c.multiplicity == 3 for c in doubled.components)
    assert doubled.star_core == (2, 4, 3)
    with pytest.raises(ValidationError):
        scale_multiplicities(scheme, 0)


def test_symbolic_multiplicities():
    scheme = scale_multiplicities(star_configuration(2, 2, 3, seed=1), 2)
    orders = symbolic_multiplicities(scheme, 3)
    assert all(kappa == 6 for _, kappa in orders)
    with pytest.raises(ValidationError):
        symbolic_multiplicities(scheme, 0)


def test_build_fat_flat_extra_validation():
    star = star_configuration(3, 2, 4, seed=1).star
    h0 = hyperplane_subspace(star.hyperplanes[0])
    # A point inside H_0 but off the star lines.
    rng = random.Random(3)
    avoid = [hyperplane_subspace(h) for h in star.hyperplanes[1:]]
    pt = point_subspace(random_point_on(h0, rng, avoid=avoid))

    scheme = build_fat_flat(star, 2, extras=((pt, 1),))
    assert len(scheme.components) == comb(4, 2) + 1
    assert scheme.star_core == (2, 4, 2)

    # Cap: mu <= floor(m/e) = 1 here.
    with pytest.raises(ValidationError):
        build_fat_flat(star, 2, extras=((pt, 2),))
    # Must lie in the hyperplane union.
    outside = point_subspace((1, 1, 1, 1))
    assert not any(subspace_contains(hyperplane_subspace(h), outside)
                   for h in star.hyperplanes)
    with pytest.raises(ValidationError):
        build_fat_flat(star, 2, extras=((outside, 1),))
    # Multiplicity-zero extras are dropped.
    assert len(build_fat_flat(star, 2, extras=((pt, 0),)).components) == \
        comb(4, 2)


def test_build_theorem_a_parameter_checks():
    scheme = build_theorem_a(3, 4, 1, 2, seed=1)
    assert scheme.star_core == (2, 4, 2)  # m*s/e = 4 = s*t
    assert all(c.multiplicity == 2 for c in scheme.components)
    # m = e*t, so build_fat_flat's cap floor(m/e) on extras is t.
    hyps = scheme.star.hyperplanes
    pt = point_subspace(random_point_on(
        hyperplane_subspace(hyps[0]), random.Random(3),
        avoid=[hyperplane_subspace(h) for h in hyps[1:]]))
    for t in (1, 2):
        assert len(build_theorem_a(3, 4, t, 2, extras=((pt, t),),
                                   hyperplanes=hyps).components) == 7
        with pytest.raises(ValidationError):
            build_theorem_a(3, 4, t, 2, extras=((pt, t + 1),),
                            hyperplanes=hyps)


def test_build_quasi_star_shape():
    scheme = build_quasi_star(4, seed=1)
    doubles = [c for c in scheme.components if c.multiplicity == 2]
    simples = [c for c in scheme.components if c.multiplicity == 1]
    assert len(doubles) == comb(4, 2) and len(simples) == 4
    assert scheme.star_core == (2, 4, 2)
    from fatflats.projective import point_coords
    assert not collinear([point_coords(c.subspace) for c in simples])
    with pytest.raises(ValidationError):
        build_quasi_star(1)


def test_build_rational_target_prefers_scaled_star():
    w = build_rational_target(2, 5, seed=1)
    assert w.ambient_dim == 2 and w.star_core == (2, 5, 1)
    w = build_rational_target(2, 6, seed=1)
    assert w.star_core == (2, 2, 3)  # smallest s >= a with b = s*m, m >= 2
    w = build_rational_target(4, 10, seed=1)
    assert w.ambient_dim == 4 and w.star_core == (4, 5, 2)
    with pytest.raises(ValidationError):
        build_rational_target(3, 2)
    with pytest.raises(ValidationError):
        build_rational_target(3, 7, N=2)


@pytest.mark.parametrize("mu", [2.7, 2.0, 1.5, True, "2", Fraction(2)],
                         ids=["float", "integral-float", "half", "bool",
                              "string", "fraction"])
def test_multiplicities_must_be_integers(mu):
    """A multiplicity is never cast: 2.7 is not read as 2."""
    with pytest.raises(ValidationError, match="must be an integer"):
        FatPointsP2([(0, 0, 1), (1, 0, 1)], [mu, 1])
    with pytest.raises(ValidationError, match="must be an integer"):
        FatComponent(point_subspace((0, 0, 1)), mu)


def test_fat_points_validation():
    with pytest.raises(ValidationError):
        FatPointsP2([(1, 0, 1), (2, 0, 2)], [1, 1])  # same point twice
    with pytest.raises(ValidationError):
        FatPointsP2([(1, 0, 1)], [0])
    config = FatPointsP2([(1, 0, 1), (0, 1, 1)], [2, 1])
    scheme = config.to_scheme()
    assert scheme.ambient_dim == 2
    assert [c.multiplicity for c in scheme.components] == [2, 1]


@pytest.mark.parametrize("case_id,params,n_points,n_doubles", [
    ("a", {"r": 2, "s": 1}, 3, 2),
    ("b", {"r": 1, "s": 2}, 4, 1),
    ("c", None, 4, 1),
    ("wprime", None, 4, 1),
    ("zprime", None, 3, 2),
    ("z", {"n": 6}, 6, 1),
    ("wsecond", None, 5, 1),
    ("vprime", {"multiplicities": (2, 1, 1)}, 3, 1),
])
def test_theorem_b_families(case_id, params, n_points, n_doubles):
    config = build_theorem_b_family(case_id, params)
    assert len(config) == n_points
    assert sum(m == 2 for m in config.multiplicities) == n_doubles


def test_theorem_b_family_rejects_unknown():
    with pytest.raises(ValidationError):
        build_theorem_b_family("nope")
    with pytest.raises(ValidationError):
        build_theorem_b_family("z", {"n": 3})
    with pytest.raises(ValidationError):
        build_theorem_b_family("vprime", {"multiplicities": (1, 1)})


@pytest.mark.parametrize("case_id,params", [
    ("a", {"r": 1.7, "n": 9}),
    ("a", {"r": 1.7}),
    ("a", {"r": True}),
    ("a", {"n": 9}),
    ("c", {"r": 3}),
    ("z", {"n": "6"}),
    ("vprime", {"multiplicities": (2, 1.0)}),
    ("vprime", {"multiplicities": 5}),
    ("vprime", {"multiplicities": {2: 1}}),
    ("vprime", {"multiplicities": "21"}),
], ids=["a-float-r-unread-n", "a-float-r", "a-bool-r", "a-unread-n",
        "c-unread-r", "z-string-n", "vprime-float", "vprime-int",
        "vprime-dict", "vprime-string"])
def test_theorem_b_family_rejects_unread_and_non_integer(case_id, params):
    """Before, r = 1.7 silently built r = 1 and an unread parameter was
    dropped; V' multiplicities 5 raised TypeError, and a dict or a string
    was read key by key or character by character."""
    with pytest.raises(ValidationError):
        build_theorem_b_family(case_id, params)


def test_support_line():
    config = build_theorem_b_family("a", {"r": 1, "s": 2})
    line = support_line(config)
    assert all(line.evaluate(p) == 0 for p in config.points)
    with pytest.raises(ValidationError):
        support_line(build_theorem_b_family("c"))
