"""Projective linear geometry over exact rationals.

Hyperplanes are linear forms up to scale, linear subspaces are given by
independent defining forms, and everything is canonicalized so that
equality of subspaces is syntactic equality of the reduced row echelon
form (RREF) of their defining-form matrices.  A subspace's points and its
adapted inverse are read off that RREF without a second elimination.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import GenericityError, RankDeficiencyError, ValidationError
from .linalg import invert_matrix, matrix_rank, rref_fractions

_COEFF_RANGE = 10_000  # random hyperplane coefficients live in [-1e4, 1e4]
_MAX_RETRIES = 64


def _canonical_coeffs(coeffs):
    vals = tuple(Fraction(c) for c in coeffs)
    lead = next((c for c in vals if c != 0), None)
    if lead is None:
        raise ValidationError("linear form must have a nonzero coefficient")
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

    def evaluate(self, point_coords):
        return sum(c * Fraction(x) for c, x in zip(self.coeffs, point_coords))


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

    def contains_point(self, coords) -> bool:
        return all(f.evaluate(coords) == 0 for f in self.forms)


@dataclass(frozen=True)
class CoordChange:
    """Invertible change of coordinates adapted to a subspace.

    The first e rows of ``matrix`` are the subspace's defining forms, so
    in the new coordinates the subspace is {w_0 = ... = w_{e-1} = 0}.
    """

    matrix: tuple
    inverse: tuple


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


def complete_basis(sub: Subspace) -> CoordChange:
    """Extend the defining forms to an invertible (N+1)x(N+1) matrix.

    Coordinate unit rows are appended, one per non-pivot column of the
    form matrix, in increasing column order.  The inverse's columns are
    the unit vectors at the pivots, then ``sub.basis``.  Proof: form i is
    1 at its own pivot, 0 at the others and on ``sub.basis``; unit row c
    is 0 at every pivot and, on ``sub.basis``, 1 only at column c's vector.
    """
    n = sub.ambient_dim + 1
    units = [tuple(Fraction(int(j == c)) for j in range(n)) for c in range(n)]
    matrix = tuple(f.coeffs for f in sub.forms) + tuple(
        units[c] for c in range(n) if c not in sub.pivots)
    columns = [units[piv] for piv in sub.pivots] + list(sub.basis)
    return CoordChange(matrix=matrix, inverse=tuple(zip(*columns)))


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """True iff b is contained in a as projective sets.

    Set-theoretically b ⊆ a iff a contains every vector spanning b.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValidationError("ambient dimension mismatch")
    return all(a.contains_point(v) for v in b.basis)


# -- points in P^N as codimension-N subspaces --------------------------------

def normalize_point(coords):
    """Canonical homogeneous coordinates: first nonzero entry is 1."""
    return _canonical_coeffs(coords)


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


def point_coords(sub: Subspace):
    """Coordinates of a point given as a codim-N subspace."""
    if not sub.is_point:
        raise ValidationError("subspace is not a point")
    return normalize_point(sub.basis[0])


def line_through(p, q) -> LinForm:
    """The line of P^2 through two distinct points (cross product)."""
    p = normalize_point(p)
    q = normalize_point(q)
    if p == q:
        raise ValidationError("points coincide")
    a = p[1] * q[2] - p[2] * q[1]
    b = p[2] * q[0] - p[0] * q[2]
    c = p[0] * q[1] - p[1] * q[0]
    return LinForm((a, b, c))


def collinear(points) -> bool:
    """Exact collinearity of >= 2 distinct points of P^2 via 3x3 minors."""
    pts = [normalize_point(p) for p in points]
    if len(pts) < 2:
        raise ValidationError("need at least two points")
    if len(set(pts)) != len(pts):
        raise ValidationError("duplicate points")
    if len(pts) == 2:
        return True
    line = line_through(pts[0], pts[1])
    return all(line.evaluate(p) == 0 for p in pts[2:])


def no_three_collinear(points) -> bool:
    """No three of the distinct points of P^2 lie on a line."""
    return not any(collinear(t) for t in itertools.combinations(points, 3))


# -- seeded generation --------------------------------------------------------

def _random_form(rng, n):
    while True:
        coeffs = [rng.randint(-_COEFF_RANGE, _COEFF_RANGE) for _ in range(n + 1)]
        if any(coeffs):
            return LinForm(coeffs)


def hyperplanes_general(forms) -> bool:
    """Finite genericity proxy: every subset of size <= N+1 independent."""
    forms = list(forms)
    if not forms:
        return True
    n = forms[0].ambient_dim
    k = min(len(forms), n + 1)
    for subset in itertools.combinations(forms, k):
        if matrix_rank([list(f.coeffs) for f in subset]) != k:
            return False
    return True


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
        if all(not other.contains_point(pt) for other in avoid):
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
