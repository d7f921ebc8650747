"""Divisor classes on the blow-up of P^2 at named points, and certified
nef lower bounds for the Waldschmidt constant.

Nef-ness is only ever certified, never decided: a certificate is a
decomposition of the divisor into catalog components (exceptional
curves, proper transforms of lines and conics), each validated against
the actual point configuration and each met non-negatively.  A line or
conic names the configuration points it passes through.  Where those
points fix the curve (two or more for a line; five or more, no three
collinear, for a conic) it must name every configuration point on it,
since its transform's class drops exactly the named ones.  A line through
one point, or a conic through at most four with no three collinear, has
members that avoid every other point.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import CertificateError, ValidationError
from .interpolation import monomial_basis
from .linalg import rank_kernel_rational
from .projective import components_on, hyperplane_through, primitive, wedge
from .schemes import FatPointsP2


@dataclass(frozen=True)
class DivisorClass:
    """t*L - sum_i drops[i]*E_i on the blow-up at len(drops) points."""

    t: int
    drops: tuple

    def __init__(self, t, drops):
        object.__setattr__(self, "t", int(t))
        object.__setattr__(self, "drops", tuple(int(x) for x in drops))

    def __add__(self, other):
        self._check(other)
        return DivisorClass(self.t + other.t,
                            tuple(a + b for a, b in zip(self.drops, other.drops)))

    def scale(self, c):
        return DivisorClass(c * self.t, tuple(c * x for x in self.drops))

    def _check(self, other):
        if len(self.drops) != len(other.drops):
            raise ValidationError("divisor classes live on different blow-ups")


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing: L^2 = 1, E_i^2 = -1, mixed products 0."""
    a._check(b)
    return a.t * b.t - sum(x * y for x, y in zip(a.drops, b.drops))


@dataclass(frozen=True)
class ComponentClass:
    """A catalog irreducible curve class: exceptional curve, or the proper
    transform of a line/conic through the listed configuration points."""

    kind: str  # "E" | "line" | "conic"
    points: tuple  # indices into the configuration

    def __init__(self, kind, points):
        if kind not in ("E", "line", "conic"):
            raise ValidationError(f"unknown component kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "points", tuple(sorted(int(i) for i in points)))

    def divisor_class(self, n: int) -> DivisorClass:
        drops = [0] * n
        if self.kind == "E":
            (i,) = self.points
            drops[i] = -1
            return DivisorClass(0, drops)
        for i in self.points:
            drops[i] = 1
        return DivisorClass(1 if self.kind == "line" else 2, drops)


@dataclass(frozen=True)
class NefCertificate:
    """divisor = sum coeff * component, with every component irreducible
    on the given configuration and met non-negatively by the divisor."""

    divisor: DivisorClass
    decomposition: tuple  # ((ComponentClass, coeff), ...)


def validate_component(comp: ComponentClass, config: FatPointsP2):
    """Check the catalog class is an irreducible curve on this blow-up, in
    primitive integer points.  Five points with no three collinear impose
    independent conditions on conics (their order-0 Hasse rows at degree
    2) and lie on no pair of lines, so a conic through them is unique and
    irreducible."""
    n = len(config)
    if any(not 0 <= i < n for i in comp.points):
        raise ValidationError("component point index out of range")
    if comp.kind == "E":
        if len(comp.points) != 1:
            raise ValidationError("exceptional class names exactly one point")
        return
    if len(set(comp.points)) != len(comp.points):
        raise ValidationError("duplicate points")
    points = [primitive(p) for p in config.points]
    named = [points[i] for i in comp.points]
    if comp.kind == "line":
        if not named:
            raise ValidationError("line transform needs at least one point")
        if len(named) == 1:
            return
        on = components_on(hyperplane_through(named[:2]), [[p] for p in points])
        if not set(comp.points) <= set(on):
            raise ValidationError("line-transform points are not collinear")
    else:
        if any(not any(wedge(t).values()) for t in combinations(named, 3)):
            raise ValidationError(
                "cannot certify a conic through 3 collinear points")
        if len(named) < 5:
            return
        rows = [[prod(x ** e for x, e in zip(p, m))
                 for m in monomial_basis(3, 2)] for p in points]
        _, conic = rank_kernel_rational([rows[i] for i in comp.points])
        if conic is None:
            raise ValidationError("no conic passes through the conic's points")
        on = tuple(i for i, row in enumerate(rows)
                   if not sum(c * x for c, x in zip(conic, row)))
    if comp.points != on:
        raise ValidationError(f"{comp.kind} transform must list every "
                              "configuration point on it")


def verify_nef(cert: NefCertificate, config: FatPointsP2):
    """Check the decomposition identity and all pairings; raises on failure."""
    n = len(config)
    if len(cert.divisor.drops) != n:
        raise CertificateError("certificate size does not match configuration")
    if not cert.decomposition:
        raise CertificateError("empty decomposition")
    total = DivisorClass(0, [0] * n)
    for comp, coeff in cert.decomposition:
        if coeff < 1:
            raise CertificateError("decomposition coefficients must be >= 1")
        try:
            validate_component(comp, config)
        except ValidationError as exc:
            raise CertificateError(str(exc)) from exc
        total = total + comp.divisor_class(n).scale(coeff)
    if total != cert.divisor:
        raise CertificateError("decomposition does not sum to the divisor")
    for comp, _ in cert.decomposition:
        pairing = intersect(cert.divisor, comp.divisor_class(n))
        if pairing < 0:
            raise CertificateError(
                f"divisor meets component {comp.kind}{comp.points} negatively "
                f"({pairing})")


def lower_bound(config: FatPointsP2, cert: NefCertificate) -> Fraction:
    """Certified lower bound (sum m_i t_i) / t for the Waldschmidt constant."""
    verify_nef(cert, config)
    if cert.divisor.t <= 0:
        raise CertificateError("need t > 0 for a lower bound")
    num = sum(m * t for m, t in zip(config.multiplicities, cert.divisor.drops))
    return Fraction(num, cert.divisor.t)
