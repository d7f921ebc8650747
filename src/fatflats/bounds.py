"""Bound aggregation: per-k alpha tables, witnessed upper bounds, and
certified lower bounds, folded into a BoundReport.

Lower bounds only ever come from one of three certified sources: a nef
certificate on planar points, a monotone subscheme transfer, or a
closed-form theorem value for star-based schemes.  The report always
names its certificate.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .divisors import NefCertificate, lower_bound as nef_lower_bound
from .errors import ValidationError
from .interpolation import alpha_symbolic, alpha_table, require_alpha
from .schemes import FatFlatScheme, FatPointsP2


@dataclass(frozen=True)
class LowerBound:
    value: Fraction
    kind: str  # "nef" | "monotone" | "closed-form"
    detail: dict = field(default_factory=dict)


@dataclass
class BoundReport:
    label: str
    table: list  # AlphaRecords, contiguous in k
    upper: Fraction = None
    upper_k: int = None
    lower: LowerBound = None
    verdict: str = "open"  # "exact" | "interval" | "open"

    def finalize(self):
        resolved = [r for r in self.table if r.resolved]
        if resolved:
            best = min(resolved, key=lambda r: (Fraction(r.alpha, r.k), r.k))
            self.upper = Fraction(best.alpha, best.k)
            self.upper_k = best.k
        if self.lower is not None and self.upper is not None:
            if self.lower.value > self.upper:
                raise ValidationError(
                    f"certified lower bound {self.lower.value} exceeds "
                    f"witnessed upper bound {self.upper}")
            self.verdict = "exact" if self.lower.value == self.upper else "interval"
        elif self.upper is not None or self.lower is not None:
            self.verdict = "interval"
        return self


def upper_bounds(scheme: FatFlatScheme, k_max: int, mode: str = "modp",
                 degree_cap: int = None, label: str = "") -> BoundReport:
    """alpha(I^(k)) for k = 1..k_max; upper bound is the min of alpha/k.

    Cap-exceeded entries stay in the table flagged unresolved; they never
    contribute a fabricated value.  One search per k, not one alpha_table:
    perfbench times each k's ``alpha_symbolic`` (ROADMAP item 1).  The k
    share the scheme's hyperplanes and peel geometry, built on the first
    call that needs them.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    table = [alpha_symbolic(scheme, k, mode=mode, degree_cap=degree_cap)
             for k in range(1, k_max + 1)]
    report = BoundReport(label=label, table=table)
    return report.finalize()


def closed_form_star(e: int, s: int, m: int) -> LowerBound:
    """The exact Waldschmidt constant m*s/e of W' + m*S_N(e, s), as a
    theorem-certified bound (not a computation)."""
    if not (1 <= e <= s) or m < 1:
        raise ValidationError("need 1 <= e <= s and m >= 1")
    return LowerBound(Fraction(m * s, e), "closed-form",
                      {"e": e, "s": s, "m": m})


def attach_lower(report: BoundReport, lower: LowerBound) -> BoundReport:
    report.lower = lower
    return report.finalize()


def star_core_lower(scheme: FatFlatScheme) -> LowerBound:
    """m*s/e for the scheme's star, which FatFlatScheme checked: the
    scheme contains m*S_N(e, s), so alpha_hat is at least its constant."""
    if scheme.star_core is None:
        raise ValidationError("scheme does not carry star-construction data")
    e, s, m = scheme.star_core
    return closed_form_star(e, s, m)


def check_linear_alpha(scheme: FatFlatScheme, t: int, k_max: int):
    """True iff alpha(I^(k)) = t*k for all k <= k_max.

    Returns (ok, failing_k) with failing_k the first violation, if any.
    One search per k, so a violation at small k ends the check early.
    """
    if t < 1:
        raise ValidationError("t must be >= 1")
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    for k in range(1, k_max + 1):
        if require_alpha(alpha_symbolic(scheme, k)) != t * k:
            return False, k
    return True, None


def is_subscheme(small: FatPointsP2, big: FatPointsP2) -> bool:
    """small arises from big by deleting points / lowering multiplicities."""
    table = dict(zip(big.points, big.multiplicities))
    return all(table.get(p, 0) >= m
               for p, m in zip(small.points, small.multiplicities))


def monotone_lower(big: FatPointsP2, small: FatPointsP2,
                   bound: LowerBound) -> LowerBound:
    """Transfer a certified bound from a subscheme to the larger scheme."""
    if not is_subscheme(small, big):
        raise ValidationError("bound source is not a subscheme")
    return LowerBound(bound.value, "monotone",
                      {"via": bound.kind, "source": bound.detail,
                       "subscheme_size": len(small)})


def nef_lower(config: FatPointsP2, cert: NefCertificate) -> LowerBound:
    value = nef_lower_bound(config, cert)
    return LowerBound(value, "nef",
                      {"t": cert.divisor.t, "drops": list(cert.divisor.drops)})


def noncontainment_witness(scheme: FatFlatScheme, m: int, r: int) -> bool:
    """Degree obstruction to I^(m) being contained in I^r.

    True certifies non-containment via alpha(I^(m)) < r * alpha(I);
    False only means the degree obstruction is silent.
    """
    if m < 1 or r < 1:
        raise ValidationError("need m, r >= 1")
    table = alpha_table(scheme, sorted({1, m}))
    return require_alpha(table[-1]) < r * require_alpha(table[0])
