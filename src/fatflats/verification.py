"""The acceptance suite: every advertised numeric fact, recomputed.

Each check recomputes its claim from scratch (engine values in the
default mod-p mode, witnesses verified by exact rational membership,
certificates re-verified) and enforces its runtime budget.  The CLI's
``verify-paper`` and the pytest acceptance module both run these.
"""

import itertools
import random
import time
from fractions import Fraction

from .bounds import (
    attach_lower,
    check_linear_alpha,
    monotone_lower,
    nef_lower,
    noncontainment_witness,
    star_core_lower,
    upper_bounds,
)
from .classify import (
    CASE_A,
    CASE_B,
    CASE_C,
    FIGURE_3,
    GENERAL_POSITION_CONIC,
    NOT_BELOW,
    TWO_DOUBLES,
    classify,
)
from .divisors import ComponentClass, DivisorClass, NefCertificate, lower_bound
from .errors import ValidationError
from .interpolation import (
    _primitive,
    alpha_symbolic,
    alpha_table,
    form_product,
    membership,
    monomial_basis,
    monomial_eval,
    multiply_forms,
    require_alpha,
)
from .linalg import matrix_rank, rank_kernel_rational
from .projective import (
    LinForm,
    Subspace,
    hyperplane_subspace,
    line_through,
    point_subspace,
    random_general_hyperplanes,
    random_point_on,
)
from .schemes import (
    FatComponent,
    FatFlatScheme,
    build_quasi_star,
    build_rational_target,
    build_theorem_a,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
    support_line,
    transform_scheme,
)


def _alphas(scheme, ks, **kw):
    return [require_alpha(r) for r in alpha_table(scheme, ks, **kw)]


def _expect(ok, msg):
    if not ok:
        raise AssertionError(msg)


def check_star_p3_linear():
    """S_3(2,4), the six lines of four general planes in P^3:
    alpha(I^(k)) = 3, 4, 7, 8 for k = 1..4, Waldschmidt constant s/e = 2.

    Every value is proved from both sides.  Upper bounds: the product
    H_1^a_1 ... H_4^a_4 vanishes to order a_i + a_j on H_i cap H_j, so
    H1.H2.H3 (k=1), H1.H2.H3.H4 (k=2), (H1.H2.H3)^2.H4 (k=3) and
    (H1.H2.H3.H4)^2 (k=4) lie in I^(k), checked by exact membership.
    The engine closes each k by its star product, so its witness keeps
    that product's factors, the hyperplanes' primitive coefficients with
    these exponents, and expands to it up to a scalar, with no prime.
    Lower bounds: k=1, no quadric contains the six lines (restriction
    oracle over Q); k=2 and k=4, alpha(I^(m)) >= m * s/e = 2m from the
    closed-form star constant; k=3, the degree-6 condition matrix of
    I^(3) has full column rank mod p, hence over Q.  The slope 2 is the
    limit of alpha(I^(k))/k, met only at even k, so alpha is not linear
    in k at t=2, while the doubled star has alpha(I^(k)) = 4k.
    """
    scheme = star_configuration(3, 2, 4, seed=1)
    report = attach_lower(upper_bounds(scheme, 4), star_core_lower(scheme))
    values = [require_alpha(r) for r in report.table]
    _expect(values == [3, 4, 7, 8], f"computed {values}")
    _expect(report.verdict == "exact" and report.upper == 2,
            f"verdict {report.verdict}, upper {report.upper}")

    h1, h2, h3, h4 = scheme.star.hyperplanes
    products = {1: [(h1, 1), (h2, 1), (h3, 1)],
                2: [(h1, 1), (h2, 1), (h3, 1), (h4, 1)],
                3: [(h1, 2), (h2, 2), (h3, 2), (h4, 1)],
                4: [(h1, 2), (h2, 2), (h3, 2), (h4, 2)]}
    for r in report.table:
        product = form_product(products[r.k])
        _expect(product.degree == r.alpha
                and membership(product, scheme, r.k),
                f"hyperplane product of degree {product.degree} "
                f"not in I^({r.k})")
        factors = sorted((_primitive(h.coeffs), a) for h, a in products[r.k])
        _expect(r.primes is None and sorted(r.witness.factors) == factors
                and _proportional(r.witness.expand(), product),
                f"engine witness at k={r.k} is not its star product")

    _expect(not _line_restriction_oracle(scheme.star.hyperplanes, degree=2),
            "a quadric contains the six lines")
    slope = report.lower.value
    for k in (2, 4):
        _expect(k * slope == values[k - 1],
                f"closed-form bound {k * slope} does not meet "
                f"alpha(I^({k})) = {values[k - 1]}")
    _expect(_full_rank_modp(scheme, 3, values[2] - 1),
            f"a form of degree {values[2] - 1} may lie in I^(3)")

    rational = _alphas(scheme, (1, 2), mode="rational")
    _expect(rational == values[:2], f"rational lane gives {rational} at k=1, 2")
    _expect(check_linear_alpha(scheme, 2, 4) == (False, 1),
            "alpha(I^(k)) = 2k must fail at k=1")
    _expect(check_linear_alpha(scale_multiplicities(scheme, 2), 4, 2)
            == (True, None), "2*S_3(2,4) is not linear at t=4")
    return f"alpha table {values}, each value proved; verdict exact 2"


def _proportional(f, g):
    """True iff the forms f and g are nonzero scalar multiples of each
    other: the same monomials, with one coefficient ratio."""
    fc, gc = f.as_dict(), g.as_dict()
    if not fc or fc.keys() != gc.keys():
        return False
    m = next(iter(fc))
    ratio = Fraction(fc[m]) / gc[m]
    return all(fc[x] == ratio * gc[x] for x in fc)


def _full_rank_modp(scheme, k, d):
    """True iff the search for alpha(I^(k)) up to degree d is unresolved:
    its condition matrices have full column rank mod the first prime at
    every degree from the proved floor to d (or mod the second and over Q,
    after an escalation).  Each reduces an integer matrix with the Q row
    space, and rank over Q is at least rank mod p, so with the floor this
    proves alpha(I^(k)) > d."""
    return not alpha_symbolic(scheme, k, degree_cap=d).resolved


def _line_restriction_oracle(hyperplanes, degree):
    """Independent route for codimension-2 stars of lines: restrict each
    degree-d monomial to degree+1 sample points per line and test for a
    nonzero kernel vector (a hypersurface through every line)."""
    n = hyperplanes[0].ambient_dim
    mons = monomial_basis(n + 1, degree)
    rows = []
    for h1, h2 in itertools.combinations(hyperplanes, 2):
        a, b = Subspace(n, (h1, h2)).basis
        for t in range(degree + 1):
            pt = [ai + t * bi for ai, bi in zip(a, b)]
            rows.append([monomial_eval(pt, m) for m in mons])
    _, kernel = rank_kernel_rational(rows, ncols=len(mons))
    return kernel is not None


def check_star_p2_values():
    """S_2(2,5): alpha = 4, alpha^(2) = 5, alpha^(4) = 10; verdict exact 5/2."""
    scheme = star_configuration(2, 2, 5, seed=1)
    report = upper_bounds(scheme, 4)
    a1, a2, _, a4 = (require_alpha(r) for r in report.table)
    _expect((a1, a2, a4) == (4, 5, 10), f"got {(a1, a2, a4)}")
    attach_lower(report, star_core_lower(scheme))
    _expect(report.verdict == "exact" and report.upper == Fraction(5, 2),
            f"verdict {report.verdict}, upper {report.upper}")
    # Field robustness on this instance: rational lane agrees.
    _expect(_alphas(scheme, [2], mode="rational") == [5],
            "rational lane disagrees")
    return f"alpha(1,2,4)=({a1},{a2},{a4}), verdict exact 5/2"


def _theorem_a_instance():
    hyperplanes = tuple(random_general_hyperplanes(3, 4, 1))
    rng = random.Random(11)
    base = star_configuration(3, 2, 4, hyperplanes=hyperplanes)
    avoid = [c.subspace for c in base.components] + \
            [hyperplane_subspace(h) for h in hyperplanes[1:]]
    pt = random_point_on(hyperplane_subspace(hyperplanes[0]), rng, avoid=avoid)
    extra = (point_subspace(pt), 1)
    return build_theorem_a(3, 4, 1, 2, extras=(extra,),
                           hyperplanes=hyperplanes)


def check_theorem_a():
    """W_2 = {generic point on H_1} + 2*S_3(2,4): alpha(I^(k)) = 4k, k <= 3."""
    scheme = _theorem_a_instance()
    values = _alphas(scheme, range(1, 4))
    _expect(values == [4, 8, 12], f"got {values}")
    return f"alpha table {values}, linear at t=4"


def check_case_c():
    """Case c: verdict 7/3; alpha(I^(3)) = 7 with the explicit witness;
    the 3L-2E1-E2-E3-E4 certificate verifies and yields 7/3."""
    config = build_theorem_b_family("c")
    result = classify(config)
    _expect(result.case == CASE_C and result.alpha_hat == Fraction(7, 3),
            f"classified {result.case}")
    scheme = config.to_scheme()
    _expect(_alphas(scheme, [3]) == [7], "alpha(I^(3)) != 7")
    p1, p2, p3, p4 = config.points
    witness = form_product([(line_through(p1, p2), 2),
                            (line_through(p1, p3), 2),
                            (line_through(p1, p4), 2),
                            (line_through(p2, p3), 1)])
    _expect(membership(witness, scheme, 3), "witness not in I^(3)")
    cert = NefCertificate(
        divisor=DivisorClass(3, (2, 1, 1, 1)),
        decomposition=((ComponentClass("line", (0, 1)), 1),
                       (ComponentClass("line", (0, 2)), 1),
                       (ComponentClass("line", (0, 3)), 1),
                       (ComponentClass("E", (0,)), 1)))
    value = lower_bound(config, cert)
    _expect(value == Fraction(7, 3), f"certificate bound {value}")
    return "CaseC, alpha3=7, witness ok, nef bound 7/3"


def check_case_a():
    """Case a (2p1+2p2+p3 on a line): alpha(I^(k)) = 2k; L^(2k) witnesses."""
    config = build_theorem_b_family("a", {"r": 2, "s": 1})
    result = classify(config)
    _expect(result.case == CASE_A, f"classified {result.case}")
    scheme = config.to_scheme()
    line = support_line(config)
    values = _alphas(scheme, range(1, 5))
    for k in range(1, 5):
        _expect(membership(form_product([(line, 2 * k)]), scheme, k),
                f"L^{2 * k} not in I^({k})")
    _expect(values == [2, 4, 6, 8], f"got {values}")
    return f"CaseA, alpha table {values}, line-power witnesses ok"


def check_case_b():
    """Case b (p1+p2+2p0): upper bound exactly 2; double-point transfer 2."""
    config = build_theorem_b_family("b", {"r": 1, "s": 1})
    result = classify(config)
    _expect(result.case == CASE_B, f"classified {result.case}")
    scheme = config.to_scheme()
    report = upper_bounds(scheme, 4)
    _expect(report.upper == 2, f"upper {report.upper}")
    double_idx = config.multiplicities.index(2)
    sub = type(config)([config.points[double_idx]], [2])
    cert = NefCertificate(divisor=DivisorClass(1, (1,)),
                          decomposition=((ComponentClass("line", (0,)), 1),))
    lower = monotone_lower(config, sub, nef_lower(sub, cert))
    _expect(lower.value == 2, f"transferred bound {lower.value}")
    attach_lower(report, lower)
    _expect(report.verdict == "exact", f"verdict {report.verdict}")
    return "CaseB, verdict exact 2"


def check_not_below():
    """The three at-least-5/2 branches: G, Figure-3 at n=5, and the three
    borderline schemes with verdict exact 5/2."""
    zprime = build_theorem_b_family("zprime")
    r1 = classify(zprime)
    _expect(r1.case == NOT_BELOW and r1.reason == TWO_DOUBLES
            and r1.lower.value == Fraction(5, 2), "Z' branch failed")
    z5 = build_theorem_b_family("z", {"n": 5})
    r2 = classify(z5)
    _expect(r2.case == NOT_BELOW and r2.reason == FIGURE_3
            and r2.lower.value == Fraction(5, 2), "Figure-3 branch failed")
    wprime = build_theorem_b_family("wprime")
    r3 = classify(wprime)
    _expect(r3.case == NOT_BELOW and r3.reason == GENERAL_POSITION_CONIC
            and r3.lower.value == Fraction(5, 2), "W' branch failed")
    for config, result in ((wprime, r3), (zprime, r1), (z5, r2)):
        report = upper_bounds(config.to_scheme(), 2)
        _expect(require_alpha(report.table[1]) == 5, "alpha(I^(2)) != 5")
        attach_lower(report, result.lower)
        _expect(report.verdict == "exact" and report.upper == Fraction(5, 2),
                f"verdict {report.verdict} upper {report.upper}")
    return "G and Figure-3 certificates give 5/2; W', Z', Z exact 5/2"


def check_quasi_star():
    """Quasi-star at s = 5: alpha(I(W_2)^(k)) = 5k for k = 1..2."""
    scheme = build_quasi_star(5, seed=1)
    values = _alphas(scheme, (1, 2))
    _expect(values == [5, 10], f"got {values}")
    return f"alpha table {values}"


def check_rational_targets():
    """build_rational_target(2,5) and (4,10): both verdict exact 5/2."""
    w1 = build_rational_target(2, 5, seed=1)
    report1 = attach_lower(upper_bounds(w1, 2), star_core_lower(w1))
    _expect(report1.verdict == "exact" and report1.upper == Fraction(5, 2),
            f"(2,5): verdict {report1.verdict} upper {report1.upper}")
    w2 = build_rational_target(4, 10, seed=1)
    _expect(w2.ambient_dim == 4 and w2.star_core == (4, 5, 2),
            "(4,10) did not build 2*S_4(4,5)")
    report2 = attach_lower(upper_bounds(w2, 4), star_core_lower(w2))
    _expect(report2.verdict == "exact" and report2.upper == Fraction(5, 2),
            f"(4,10): verdict {report2.verdict} upper {report2.upper}")
    return "both targets exact 5/2"


def _random_instance(rng):
    """A small containment-free scheme in P^2 or P^3 with mixed supports."""
    while True:
        ambient = rng.choice((2, 2, 3))
        n_comp = rng.randint(2, 8 if ambient == 2 else 5)
        comps = []
        try:
            if ambient == 2:
                pts = set()
                while len(pts) < n_comp:
                    pts.add((rng.randint(-5, 5), rng.randint(-5, 5), 1))
                for p in sorted(pts):
                    comps.append(FatComponent(point_subspace(p),
                                              rng.randint(1, 2)))
            else:
                n_lines = rng.randint(0, min(2, n_comp))
                for _ in range(n_lines):
                    forms = [LinForm([rng.randint(-4, 4) for _ in range(4)])
                             for _ in range(2)]
                    comps.append(FatComponent(Subspace(3, forms),
                                              rng.randint(1, 2)))
                while len(comps) < n_comp:
                    p = (rng.randint(-5, 5), rng.randint(-5, 5),
                         rng.randint(-5, 5), 1)
                    comps.append(FatComponent(point_subspace(p),
                                              rng.randint(1, 2)))
            return FatFlatScheme(ambient, tuple(comps))
        except (ValidationError, ValueError):
            continue


def _random_change(rng, n):
    while True:
        matrix = [[rng.randint(-3, 3) for _ in range(n + 1)]
                  for _ in range(n + 1)]
        if matrix_rank(matrix) == n + 1:
            return matrix


def check_property_suite():
    """Randomized invariants on 200 seeded instances: monotonicity,
    subadditivity via witness products, two-prime agreement, projective
    invariance, membership roundtrip.  Zero violations allowed."""
    rng = random.Random(2024)
    escalations = 0
    for case in range(200):
        scheme = _random_instance(rng)
        records = alpha_table(scheme, (1, 2, 3))
        values = [require_alpha(r) for r in records]
        escalations += sum(r.escalated for r in records)
        _expect(values[0] <= values[1] <= values[2],
                f"monotonicity failed on case {case}: {values}")
        _expect(values[1] <= 2 * values[0] and
                values[2] <= values[0] + values[1],
                f"subadditivity values failed on case {case}: {values}")
        for r in records:
            _expect(membership(r.witness, scheme, r.k),
                    f"witness roundtrip failed on case {case}, k={r.k}")
        prod2 = multiply_forms(records[0].witness, records[0].witness)
        _expect(membership(prod2, scheme, 2),
                f"witness product (1+1) not in I^(2) on case {case}")
        prod3 = multiply_forms(records[0].witness, records[1].witness)
        _expect(membership(prod3, scheme, 3),
                f"witness product (1+2) not in I^(3) on case {case}")
        if case % 10 == 0:  # projective invariance, sampled for speed
            moved = transform_scheme(scheme, _random_change(rng,
                                                            scheme.ambient_dim))
            _expect(_alphas(moved, (1, 2)) == values[:2],
                    f"projective invariance failed on case {case}")
    _expect(escalations == 0, f"{escalations} two-prime escalations")
    return "200 instances, zero violations, zero escalations"


def check_noncontainment():
    """S_2(2,5): degree obstruction certifies I^(2) not contained in I^2."""
    scheme = star_configuration(2, 2, 5, seed=1)
    _expect(noncontainment_witness(scheme, 2, 2), "obstruction absent")
    _expect(not noncontainment_witness(scheme, 1, 1), "m=r=1 must be silent")
    return "alpha(I^(2)) = 5 < 8 = 2*alpha(I)"


CHECKS = (
    ("criterion-01-star-p3-linear-alpha", check_star_p3_linear, 30),
    ("criterion-02-star-p2-values", check_star_p2_values, 30),
    ("criterion-03-theorem-a-instance", check_theorem_a, None),
    ("criterion-04-theorem-b-case-c", check_case_c, None),
    ("criterion-05-theorem-b-case-a", check_case_a, None),
    ("criterion-06-theorem-b-case-b", check_case_b, None),
    ("criterion-07-not-below-branches", check_not_below, None),
    ("criterion-08-quasi-star", check_quasi_star, 60),
    ("criterion-09-rational-targets", check_rational_targets, 300),
    ("criterion-10-property-suite", check_property_suite, None),
    ("criterion-11-noncontainment", check_noncontainment, None),
)


def run_checks(only=None):
    """Run (a filtered subset of) the acceptance checks.

    Returns a list of (name, passed, detail) triples; runtime budgets are
    part of the criteria and enforced.
    """
    results = []
    for name, fn, budget in CHECKS:
        if only and only not in name:
            continue
        start = time.monotonic()
        try:
            detail = fn()
            elapsed = time.monotonic() - start
            ok = True
            if budget is not None and elapsed > budget:
                ok = False
                detail = f"over budget: {elapsed:.1f}s > {budget}s ({detail})"
            else:
                detail = f"{detail} [{elapsed:.1f}s]"
        except Exception as exc:  # a failing criterion must report, not crash
            elapsed = time.monotonic() - start
            ok = False
            detail = f"{type(exc).__name__}: {exc} [{elapsed:.1f}s]"
        results.append((name, ok, detail))
    return results
