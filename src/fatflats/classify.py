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
from .projective import hyperplane_through, primitive
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


def _not_below(config, reason, indices, mults, divisor, decomposition,
               **detail):
    """A NotBelow verdict and its proof: the nef certificate `divisor` =
    the sum of `decomposition`, whose curves are (kind, configuration
    indices) pairs with coefficient 1, on the sub-configuration of the
    points at `indices` with multiplicities `mults`, transferred to the
    whole configuration by monotonicity."""
    local = {g: i for i, g in enumerate(indices)}
    sub = FatPointsP2([config.points[i] for i in indices], mults)
    cert = NefCertificate(divisor=divisor, decomposition=tuple(
        (ComponentClass(kind, [local[g] for g in points]), 1)
        for kind, points in decomposition))
    lower = monotone_lower(config, sub, nef_lower(sub, cert))
    return Classification(NOT_BELOW, reason=reason, lower=lower,
                          certificate=cert, subscheme_indices=indices,
                          detail=detail)


def _lines(points):
    """The set of point indices on each line through two of the points,
    each line once: the pairs grouped by the line they span."""
    vectors = [primitive(p) for p in points]
    lines = {}
    for i, j in itertools.combinations(range(len(points)), 2):
        h = hyperplane_through([vectors[i], vectors[j]])
        lines.setdefault(h, set()).update((i, j))
    return list(lines.values())


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
            return _not_below(config, MULTIPLICITY_AT_LEAST_3, (i,), (m,),
                              DivisorClass(1, (1,)), [("line", (i,))],
                              point=i, multiplicity=m)

    doubles = [i for i, m in enumerate(mults) if m == 2]
    lines = _lines(config.points)

    # (2) everything on one line: case a.
    if len(config) == 1 or any(len(on) == len(config) for on in lines):
        return Classification(CASE_A, alpha_hat=Fraction(2),
                              detail={"doubles": len(doubles),
                                      "simples": len(config) - len(doubles)})

    # (3) two or more doubles: G = 2L - E_i - E_j - E_k on the first two
    # doubles and the first point off their line, which exists because the
    # points are not all collinear.
    if len(doubles) >= 2:
        i, j = doubles[:2]
        on = next(on for on in lines if {i, j} <= on)
        k = next(k for k in range(len(config)) if k not in on)
        return _not_below(config, TWO_DOUBLES, (i, j, k), (2, 2, 1),
                          DivisorClass(2, (1, 1, 1)),
                          [("line", (i, j)), ("line", (i, k)), ("E", (i,))])

    (p0,) = doubles
    simples = [i for i in range(len(config)) if i != p0]

    # (4) the simple points group by the line through p0 they lie on; two
    # lines through the double covering the support: case b.
    groups = [on - {p0} for on in lines if p0 in on]
    if len(groups) == 2:
        sizes = sorted(len(g) for g in groups)
        return Classification(CASE_B, alpha_hat=Fraction(2),
                              detail={"r": sizes[0], "s": sizes[1]})

    simples_collinear = any(set(simples) <= on for on in lines)

    # (5) exactly 3 collinear simples, double off their line: case c.
    if simples_collinear and len(config) == 4:
        return Classification(CASE_C, alpha_hat=Fraction(7, 3))

    # (6) n >= 5 collinear simples, double off their line:
    # H = (n-1)L - (n-2)E_0 - E_1 - ... - E_(n-1) on the whole configuration.
    if simples_collinear and len(config) >= 5:
        n = len(config)
        return _not_below(config, FIGURE_3, (p0, *simples),
                          (2,) + (1,) * (n - 1),
                          DivisorClass(n - 1, (n - 2,) + (1,) * (n - 1)),
                          [*(("line", (p0, s)) for s in simples),
                           ("E", (p0,))],
                          n=n, value=str(Fraction(3 * n - 5, n - 1)))

    # (7) otherwise C~ = 2L - E_1 - ... - E_4 on a 4-subset in general
    # position through the double, which exists (see above): no line holds
    # three of its points.
    indices = next((p0, *trio) for trio in itertools.combinations(simples, 3)
                   if all(len(on & {p0, *trio}) < 3 for on in lines))
    return _not_below(config, GENERAL_POSITION_CONIC, indices, (2, 1, 1, 1),
                      DivisorClass(2, (1, 1, 1, 1)), [("conic", indices)])
