"""Property-based checks (hypothesis) for the exact kernels."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from fatflats.interpolation import alpha_symbolic, membership, require_alpha
from fatflats.linalg import invert_matrix, matrix_rank, rank_kernel_rational
from fatflats.projective import (
    LinForm,
    Subspace,
    complete_basis,
    normalize_point,
    subspace_contains,
)
from fatflats.scalars import encode_scalar, parse_scalar
from fatflats.schemes import FatPointsP2, transform_scheme
from fatflats.serialization import points_from_dict, points_to_dict

coords = st.integers(min_value=-4, max_value=4)


@st.composite
def planar_configs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    pts = draw(st.sets(st.tuples(coords, coords), min_size=n, max_size=n))
    mults = draw(st.lists(st.integers(min_value=1, max_value=2),
                          min_size=n, max_size=n))
    return FatPointsP2([(x, y, 1) for x, y in sorted(pts)], mults)


@st.composite
def flat_pairs(draw):
    """Two flats of one P^N, N = 2..4, cut out by independent integer
    forms; half the time b's forms extend a's, so that b lies in a."""
    n = draw(st.integers(min_value=2, max_value=4))
    form = st.lists(coords, min_size=n + 1, max_size=n + 1)
    rows_a = draw(st.lists(form, min_size=1, max_size=n))
    rows_b = draw(st.lists(form, min_size=1, max_size=n))
    if draw(st.booleans()):
        rows_b = (rows_a + rows_b)[:n]
    for rows in (rows_a, rows_b):
        assume(matrix_rank(rows) == len(rows))
    return (Subspace(n, [LinForm(r) for r in rows_a]),
            Subspace(n, [LinForm(r) for r in rows_b]))


def invertible_3x3():
    return st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                             min_size=3, max_size=3),
                    min_size=3, max_size=3).filter(
        lambda m: invert_matrix(m) is not None)


@settings(max_examples=30, deadline=None)
@given(planar_configs())
def test_alpha_monotone_and_subadditive(config):
    scheme = config.to_scheme()
    values = [require_alpha(alpha_symbolic(scheme, k)) for k in (1, 2, 3)]
    assert values[0] <= values[1] <= values[2]
    assert values[1] <= 2 * values[0]
    assert values[2] <= values[0] + values[1]
    # A symbolic-power element is in particular somewhere between the
    # trivial degree bounds.
    assert values[0] >= 1
    assert values[2] <= 3 * values[0]


@settings(max_examples=20, deadline=None)
@given(planar_configs(), invertible_3x3())
def test_alpha_is_projectively_invariant(config, matrix):
    scheme = config.to_scheme()
    moved = transform_scheme(scheme, matrix)
    for k in (1, 2):
        assert require_alpha(alpha_symbolic(scheme, k)) == \
            require_alpha(alpha_symbolic(moved, k))


@settings(max_examples=30, deadline=None)
@given(planar_configs())
def test_witnesses_are_members(config):
    scheme = config.to_scheme()
    for k in (1, 2):
        record = alpha_symbolic(scheme, k)
        assert membership(record.witness, scheme, k)
        assert not record.escalated


@settings(max_examples=50, deadline=None)
@given(planar_configs())
def test_points_serialization_roundtrip(config):
    assert points_from_dict(points_to_dict(config)) == config


@settings(max_examples=50, deadline=None)
@given(st.lists(coords, min_size=3, max_size=5).filter(any),
       st.integers(min_value=1, max_value=7))
def test_linform_scale_invariance(cs, scale):
    assert LinForm(cs) == LinForm([scale * c for c in cs])
    assert LinForm(cs) == LinForm([Fraction(c, scale) for c in cs])


@settings(max_examples=50, deadline=None)
@given(st.tuples(coords, coords, coords).filter(any),
       st.integers(min_value=1, max_value=7))
def test_normalize_point_scale_invariance(p, scale):
    assert normalize_point(p) == normalize_point([scale * x for x in p])


@settings(max_examples=50, deadline=None)
@given(st.fractions(max_denominator=1000))
def test_scalar_encoding_roundtrip(q):
    assert parse_scalar(encode_scalar(q)) == q


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=4, max_size=4),
                min_size=1, max_size=5))
def test_rational_kernel_annihilates(rows):
    rank, kernel = rank_kernel_rational(rows)
    assert 0 <= rank <= min(len(rows), 4)
    if kernel is not None:
        assert any(kernel)
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, kernel)) == 0
    else:
        assert rank == 4


@settings(max_examples=100, deadline=None)
@given(flat_pairs())
def test_flat_readout_matches_elimination(pair):
    """The basis and adapted inverse read off the canonical forms agree
    with a fresh elimination."""
    a, b = pair
    for sub in pair:
        change = complete_basis(sub)
        assert [list(row) for row in change.inverse] == \
            invert_matrix([list(row) for row in change.matrix])
        assert len(sub.basis) == sub.ambient_dim + 1 - sub.codim
        assert all(f.evaluate(v) == 0 for f in sub.forms for v in sub.basis)
    base = [list(f.coeffs) for f in b.forms]
    assert subspace_contains(a, b) == all(
        matrix_rank(base + [list(f.coeffs)]) == b.codim for f in a.forms)
