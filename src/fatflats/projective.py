"""Projective linear geometry, exact.

Flats are Fractions in reduced row echelon form (RREF), their canonical
and serialized form: hyperplanes are linear forms up to scale, linear
subspaces are given by independent defining forms, and equality of
subspaces is syntactic equality of the RREF of their defining-form
matrices.  Each subspace reads one integer view off its RREF, with no
second elimination: ``spans``, primitive integer points spanning it, and
``equations``, its forms as primitive integer vectors.  Every incidence
question reads that view in Python ints: whether a flat contains another
flat or a point (every equation vanishes at every spanning point), and
which points lie on the hyperplanes through points, decided by integer
minors.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import GenericityError, RankDeficiencyError, ValidationError
from .linalg import invert_matrix, rref_fractions

_COEFF_RANGE = 10_000  # random hyperplane coefficients live in [-1e4, 1e4]
_MAX_RETRIES = 64


def _canonical_coeffs(coeffs,
                      zero="linear form must have a nonzero coefficient"):
    vals = tuple(Fraction(c) for c in coeffs)
    lead = next((c for c in vals if c != 0), None)
    if lead is None:
        raise ValidationError(zero)
    return tuple(c / lead for c in vals)


@dataclass(frozen=True)
class LinForm:
    """A hyperplane: N+1 coefficients up to scale, leading one normalized."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _canonical_coeffs(coeffs))

    @property
    def ambient_dim(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of P^N of codimension e, canonical defining forms."""

    ambient_dim: int
    forms: tuple

    def __init__(self, ambient_dim, forms):
        forms = tuple(forms)
        if not forms:
            raise ValidationError("subspace needs at least one defining form")
        if any(f.ambient_dim != ambient_dim for f in forms):
            raise ValidationError("form dimension mismatch")
        rows = [list(f.coeffs) for f in forms]
        red, pivots = rref_fractions(rows)
        if len(pivots) != len(forms):
            raise RankDeficiencyError("defining forms are linearly dependent")
        if len(forms) > ambient_dim:
            raise ValidationError("codimension exceeds ambient dimension")
        canonical = tuple(LinForm(row) for row in red)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "forms", canonical)

    @property
    def codim(self) -> int:
        return len(self.forms)

    @property
    def is_point(self) -> bool:
        return self.codim == self.ambient_dim

    @cached_property
    def pivots(self) -> tuple:
        """The leading column of each canonical form."""
        return tuple(next(c for c, x in enumerate(f.coeffs) if x != 0)
                     for f in self.forms)

    @cached_property
    def basis(self) -> tuple:
        """One point per non-pivot column c: 1 at c, -form_i[c] at the
        pivot of form i, 0 elsewhere.  Form i is 1 at its own pivot and 0
        at the other pivots, so every form vanishes on it."""
        n = self.ambient_dim + 1
        out = []
        for c in (c for c in range(n) if c not in self.pivots):
            v = [Fraction(int(j == c)) for j in range(n)]
            for f, piv in zip(self.forms, self.pivots):
                v[piv] = -f.coeffs[c]
            out.append(tuple(v))
        return tuple(out)

    @cached_property
    def spans(self) -> tuple:
        """``basis`` as primitive integer vectors: points spanning it."""
        return tuple(primitive(v) for v in self.basis)

    @cached_property
    def equations(self) -> tuple:
        """The canonical forms as primitive integer vectors."""
        return tuple(primitive(f.coeffs) for f in self.forms)


def intersect_hyperplanes(forms, indices):
    """Subspace cut out by the selected hyperplanes."""
    forms = list(forms)
    idx = sorted(set(indices))
    if not idx:
        raise ValidationError("empty hyperplane selection")
    chosen = [forms[i] for i in idx]
    n = chosen[0].ambient_dim
    if len(chosen) > n:
        raise ValidationError("selection larger than ambient dimension")
    return Subspace(n, chosen)


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is contained in a as projective sets: every equation
    of a vanishes at every point spanning b, in integers."""
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError("ambient dimension mismatch")
    return all(components_on(h, [b.spans]) for h in a.equations)


# -- points in P^N as codimension-N subspaces --------------------------------

def normalize_point(coords):
    """Canonical homogeneous coordinates: first nonzero entry is 1."""
    return _canonical_coeffs(coords, "a point needs a nonzero coordinate")


def point_subspace(coords) -> Subspace:
    """The codim-N subspace whose unique point has the given coordinates."""
    p = normalize_point(coords)
    n = len(p) - 1
    # Forms vanishing at p: a basis of the kernel of the 1x(N+1) map f -> f(p).
    lead = next(i for i, x in enumerate(p) if x != 0)
    forms = []
    for j in range(n + 1):
        if j == lead:
            continue
        row = [Fraction(0)] * (n + 1)
        row[j] = Fraction(1)
        row[lead] = -Fraction(p[j]) / p[lead]
        forms.append(LinForm(row))
    return Subspace(n, forms)


def collinear(points) -> bool:
    """Exact collinearity of >= 2 distinct points of P^N: with the first
    two, every other point spans no plane, all its 3x3 minors 0."""
    pts = [primitive(normalize_point(p)) for p in points]
    if len(pts) < 2:
        raise ValidationError("need at least two points")
    if len(set(pts)) != len(pts):
        raise ValidationError("duplicate points")
    return not any(any(wedge(pts[:2] + [p]).values()) for p in pts[2:])


# -- integer points and the hyperplanes through them --------------------------

def primitive(v):
    """A rational vector with a coordinate 1 (a normalized point, a
    ``Subspace.basis`` vector, a ``LinForm``'s coefficients) times the lcm
    of its denominators: a primitive integer vector."""
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def normalized(v):
    """An integer vector divided by its gcd, signed so that its first
    nonzero entry is positive; None for the zero vector."""
    g = gcd(*v)
    if not g:
        return None
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def wedge(points):
    """{column r-subset: minor}, the maximal minors of r integer vectors
    (the coordinates of v_1 ∧ ... ∧ v_r), built one row at a time by
    Laplace expansion along the newest row; all 0 iff the v_i are
    dependent."""
    n = len(points[0])
    minors = {(): 1}
    for r, v in enumerate(points):
        step = {}
        for cols in itertools.combinations(range(n), r + 1):
            total, sign = 0, 1 - 2 * (r & 1)  # (-1)^(r + i) from i = 0
            for i, j in enumerate(cols):
                total += sign * v[j] * minors[cols[:i] + cols[i + 1:]]
                sign = -sign
            step[cols] = total
        minors = step
    return minors


def hyperplane_through(points):
    """The hyperplane det(x, v_1, ..., v_N) = 0 through N integer points
    of P^N, as primitive integer coefficients with a positive leading
    entry, or None when the points are dependent.  Expanded along x, its
    coefficients are the signed maximal minors of the v_i."""
    n = len(points[0])
    minors = wedge(points)
    return normalized([(1 - 2 * (i & 1))
                       * minors[tuple(c for c in range(n) if c != i)]
                       for i in range(n)])


def components_on(h, spans):
    """The indices of the components that the hyperplane with integer
    coefficients ``h`` contains: h vanishes at each of their spanning
    points, in Python ints."""
    return tuple(i for i, points in enumerate(spans)
                 if not any(sum(x * y for x, y in zip(h, v)) for v in points))


# -- seeded generation --------------------------------------------------------

def _random_form(rng, n):
    while True:
        coeffs = [rng.randint(-_COEFF_RANGE, _COEFF_RANGE) for _ in range(n + 1)]
        if any(coeffs):
            return LinForm(coeffs)


def hyperplanes_general(forms) -> bool:
    """Finite genericity proxy: every subset of size <= N+1 independent,
    that is, some maximal minor of its primitive integer rows is nonzero."""
    forms = list(forms)
    if not forms:
        return True
    k = min(len(forms), forms[0].ambient_dim + 1)
    return all(any(wedge([primitive(f.coeffs) for f in subset]).values())
               for subset in itertools.combinations(forms, k))


def random_general_hyperplanes(N, s, seed):
    """s general hyperplanes of P^N, reproducible for a fixed seed."""
    if N < 1 or s < 1:
        raise ValidationError("need N >= 1 and s >= 1")
    rng = random.Random(seed)
    for _ in range(_MAX_RETRIES):
        forms = [_random_form(rng, N) for _ in range(s)]
        if len(set(forms)) == s and hyperplanes_general(forms):
            return forms
    raise GenericityError(f"no general configuration after {_MAX_RETRIES} tries")


def random_point_on(sub: Subspace, rng, avoid=()):
    """A random point of a positive-dimensional subspace, off every
    subspace in ``avoid``.  Coefficients stay small for cheap arithmetic."""
    if sub.is_point:
        raise ValidationError("subspace has no moduli for point choice")
    for _ in range(_MAX_RETRIES):
        weights = [rng.randint(-_COEFF_RANGE, _COEFF_RANGE)
                   for _ in sub.basis]
        if not any(weights):
            continue
        pt = normalize_point([sum(w * x for w, x in zip(weights, col))
                              for col in zip(*sub.basis)])
        points = [primitive(pt)]
        if not any(all(components_on(h, [points]) for h in other.equations)
                   for other in avoid):
            return pt
    raise GenericityError("could not find a point avoiding the given loci")


def transform_subspace(sub: Subspace, matrix) -> Subspace:
    """Image of a subspace under the coordinate change x -> M x."""
    inv = invert_matrix([list(row) for row in matrix])
    if inv is None:
        raise ValidationError("coordinate change is singular")
    new_forms = []
    for f in sub.forms:
        row = [sum(f.coeffs[i] * inv[i][j] for i in range(len(inv)))
               for j in range(len(inv))]
        new_forms.append(LinForm(row))
    return Subspace(sub.ambient_dim, new_forms)


def hyperplane_subspace(form: LinForm) -> Subspace:
    return Subspace(form.ambient_dim, (form,))
