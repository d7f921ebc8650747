"""Decision procedure for non-reduced planar fat point schemes below 5/2.

Classifies a configuration into the three exact families (all points on
a line; two lines crossing at the unique double point; one double point
against three collinear simples) or returns a certified reason why the
Waldschmidt constant is at least 5/2.  Certificates are real nef
certificates on a subscheme, transferred by monotonicity, so every
NotBelow verdict re-verifies.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .bounds import LowerBound, monotone_lower, nef_lower
from .divisors import ComponentClass, DivisorClass, NefCertificate
from .errors import ValidationError
from .projective import collinear, line_through
from .schemes import FatPointsP2

CASE_A = "a"
CASE_B = "b"
CASE_C = "c"
NOT_BELOW = "not_below"

# NotBelow reasons
MULTIPLICITY_AT_LEAST_3 = "multiplicity_at_least_3"
TWO_DOUBLES = "two_doubles_certificate"
GENERAL_POSITION_CONIC = "general_position_conic"
FIGURE_3 = "figure3_bound"


@dataclass
class Classification:
    case: str
    alpha_hat: Fraction = None  # exact value, cases a/b/c only
    reason: str = None  # NotBelow only
    lower: LowerBound = None  # certified bound, NotBelow only
    certificate: NefCertificate = None
    subscheme_indices: tuple = None
    detail: dict = field(default_factory=dict)

    @property
    def below_five_halves(self) -> bool:
        return self.case in (CASE_A, CASE_B, CASE_C)


def _line_cert(sub_indices, line_points):
    """Proper transform of the line through the listed sub-config points,
    on the blow-up restricted to sub_indices."""
    local = {g: i for i, g in enumerate(sub_indices)}
    return ComponentClass("line", [local[g] for g in line_points])


def _sub_config(config: FatPointsP2, indices, multiplicities=None):
    pts = [config.points[i] for i in indices]
    if multiplicities is None:
        multiplicities = [config.multiplicities[i] for i in indices]
    return FatPointsP2(pts, multiplicities)


def _transfer(config, sub, cert):
    bound = nef_lower(sub, cert)
    return monotone_lower(config, sub, bound)


def _two_doubles_certificate(config: FatPointsP2, doubles):
    """G = 2L - E1 - E2 - E3 on a triple {two doubles + off-line point}."""
    n = len(config)
    for i, j in itertools.combinations(doubles, 2):
        line = line_through(config.points[i], config.points[j])
        for k in range(n):
            if k in (i, j) or line.evaluate(config.points[k]) == 0:
                continue
            indices = (i, j, k)
            sub = _sub_config(config, indices, multiplicities=(2, 2, 1))
            cert = NefCertificate(
                divisor=DivisorClass(2, (1, 1, 1)),
                decomposition=(
                    (_line_cert(indices, (i, j)), 1),
                    (_line_cert(indices, (i, k)), 1),
                    (ComponentClass("E", (0,)), 1),
                ))
            lower = _transfer(config, sub, cert)
            return indices, cert, lower
    return None


def _figure3_certificate(config: FatPointsP2, double_idx, simple_indices):
    """H = (n-1)L - (n-2)E_1 - E_2 - ... - E_n on the whole configuration."""
    indices = (double_idx,) + tuple(simple_indices)
    n = len(indices)
    sub = _sub_config(config, indices)
    decomposition = tuple(
        (_line_cert(indices, (double_idx, s)), 1)
        for s in simple_indices) + ((ComponentClass("E", (0,)), 1),)
    cert = NefCertificate(
        divisor=DivisorClass(n - 1, (n - 2,) + (1,) * (n - 1)),
        decomposition=decomposition)
    lower = _transfer(config, sub, cert)
    return indices, cert, lower


def _conic_certificate(config: FatPointsP2, double_idx):
    """C~ = 2L - E1 - E2 - E3 - E4 on a general-position 4-subset that
    contains the double point."""
    others = [i for i in range(len(config)) if i != double_idx]
    for trio in itertools.combinations(others, 3):
        indices = (double_idx,) + trio
        pts = [config.points[i] for i in indices]
        if any(collinear([pts[a], pts[b], pts[c]])
               for a, b, c in itertools.combinations(range(4), 3)):
            continue
        sub = _sub_config(config, indices,
                          multiplicities=(2, 1, 1, 1))
        conic = ComponentClass("conic", (0, 1, 2, 3))
        cert = NefCertificate(divisor=DivisorClass(2, (1, 1, 1, 1)),
                              decomposition=((conic, 1),))
        lower = _transfer(config, sub, cert)
        return indices, cert, lower
    return None


def classify(config: FatPointsP2) -> Classification:
    """Theorem-B decision procedure; see module docstring for the cases.

    Every verdict carries its proof: an exact family, or a certified lower
    bound.  Branch (7) always finds its conic.  There, p0 is the only
    double point, the points are not all collinear, the simple points are
    not collinear among themselves, and they lie on at least three lines
    through p0 (one line would make all points collinear, two is case b).
    Take one simple point from each of three such lines: no two of them
    are collinear with p0, so the four points are in general position
    unless the three are collinear.  If every such choice were collinear,
    each line would hold one simple point only: two points a, a' on one
    line through p0, both collinear with b and c from two other lines,
    would put b on the line a a', which passes through p0.  Then every
    three simple points would be collinear, so all of them would be.
    """
    mults = config.multiplicities
    if all(m == 1 for m in mults):
        raise ValidationError(
            "reduced configurations are out of scope; the reduced planar "
            "classification is prior work")

    # (1) any multiplicity >= 3 pins the bound at that multiplicity.
    for i, m in enumerate(mults):
        if m >= 3:
            indices = (i,)
            sub = _sub_config(config, indices)
            cert = NefCertificate(
                divisor=DivisorClass(1, (1,)),
                decomposition=((ComponentClass("line", (0,)), 1),))
            lower = _transfer(config, sub, cert)
            return Classification(
                NOT_BELOW, reason=MULTIPLICITY_AT_LEAST_3, lower=lower,
                certificate=cert, subscheme_indices=indices,
                detail={"point": i, "multiplicity": m})

    doubles = [i for i, m in enumerate(mults) if m == 2]

    # (2) everything on one line: case a.
    if len(config) == 1 or collinear(config.points):
        return Classification(CASE_A, alpha_hat=Fraction(2),
                              detail={"doubles": len(doubles),
                                      "simples": len(config) - len(doubles)})

    # (3) two or more doubles off a common line: G certificate.
    if len(doubles) >= 2:
        found = _two_doubles_certificate(config, doubles)
        if found is None:  # unreachable: not all points collinear
            raise AssertionError("two-doubles certificate search failed")
        indices, cert, lower = found
        return Classification(NOT_BELOW, reason=TWO_DOUBLES, lower=lower,
                              certificate=cert, subscheme_indices=indices)

    (p0,) = doubles
    simples = [i for i in range(len(config)) if i != p0]

    # Group the simple points by the line through p0 they determine.
    groups = {}
    for i in simples:
        line = line_through(config.points[p0], config.points[i])
        groups.setdefault(line, []).append(i)

    # (4) two lines through the double covering the support: case b.
    if len(groups) == 2:
        sizes = sorted(len(g) for g in groups.values())
        return Classification(CASE_B, alpha_hat=Fraction(2),
                              detail={"r": sizes[0], "s": sizes[1]})

    simples_collinear = len(simples) >= 2 and collinear(
        [config.points[i] for i in simples])

    # (5) exactly 3 collinear simples, double off their line: case c.
    if simples_collinear and len(config) == 4:
        return Classification(CASE_C, alpha_hat=Fraction(7, 3))

    # (6) n >= 5 collinear simples, double off their line: H certificate.
    if simples_collinear and len(config) >= 5:
        indices, cert, lower = _figure3_certificate(config, p0, simples)
        n = len(config)
        return Classification(NOT_BELOW, reason=FIGURE_3, lower=lower,
                              certificate=cert, subscheme_indices=indices,
                              detail={"n": n, "value": str(Fraction(3 * n - 5,
                                                                    n - 1))})

    # (7) otherwise a general-position 4-subset through the double exists.
    found = _conic_certificate(config, p0)
    if found is None:  # unreachable: see the docstring
        raise AssertionError("general-position conic search failed")
    indices, cert, lower = found
    return Classification(NOT_BELOW, reason=GENERAL_POSITION_CONIC,
                          lower=lower, certificate=cert,
                          subscheme_indices=indices)
