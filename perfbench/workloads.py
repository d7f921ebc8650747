"""The three benchmark workloads: seeded inputs, one query per call, and
the checks that decide whether a query's answer is correct.

Every query calls the library through module attributes
(``bounds.upper_bounds``, ``interpolation.membership``, ...) so that the
traced mode can wrap those entry points from outside.

Inputs depend only on the seed.  The shapes of the schemes (ambient
dimension, number of components, multiplicities, classification branch)
are fixed per workload; the seed draws their coordinates.  That keeps the
cost of a pass nearly seed-independent while every seed is a new input.
"""

import hashlib
import importlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from fatflats import bounds, interpolation, serialization
from fatflats.errors import ValidationError
from fatflats.projective import LinForm, Subspace, point_subspace
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.schemes import (
    FatComponent,
    FatFlatScheme,
    FatPointsP2,
    build_rational_target,
)
from fatflats.divisors import ComponentClass, DivisorClass, NefCertificate

# The package re-exports the function ``classify`` under the module's name.
classify = importlib.import_module("fatflats.classify")

STAR_TABLE = [3, 5, 8, 10]
STAR_EXACT = Fraction(5, 2)


@dataclass
class Outcome:
    """What a query did: its answer, the alpha records it computed, and how
    many of its upper bounds carry a rational witness that re-verified."""

    answer: object
    records: list = field(default_factory=list)
    upper_bounds: int = 0
    upper_q_verified: int = 0
    error: str = None


def digest(inputs_json) -> str:
    return hashlib.sha256(inputs_json.encode()).hexdigest()


# -- star-p4-double ------------------------------------------------------------

def star_inputs(seed):
    """2*S_4(4,5): five double points in P^4, from five seeded hyperplanes."""
    return [build_rational_target(4, 10, seed=seed)]


def schemes_json(inputs):
    return json.dumps([serialization.scheme_to_dict(s) for s in inputs],
                      sort_keys=True)


def star_query(scheme):
    report = bounds.upper_bounds(scheme, 4)
    bounds.attach_lower(report, bounds.star_core_lower(scheme))
    serialization.dump_json(serialization.report_to_dict(report))
    return Outcome(answer={"table": [r.alpha for r in report.table],
                           "verdict": report.verdict,
                           "upper": str(report.upper),
                           "lower": str(report.lower.value)},
                   records=list(report.table), upper_bounds=1,
                   upper_q_verified=_q_verified(report, scheme))


def star_check(inputs, outcomes):
    """The theorem value holds for every seed: table [3,5,8,10], exact 5/2."""
    want = {"table": STAR_TABLE, "verdict": "exact",
            "upper": str(STAR_EXACT), "lower": str(STAR_EXACT)}
    wrong = {i: f"expected {want}, got {o.answer}"
             for i, o in enumerate(outcomes) if o.answer != want}
    return wrong, []


# -- random-flats --------------------------------------------------------------

RANDOM_SCHEMES = 40
RANDOM_KS = (1, 2, 3)
_SHAPE_SEED = 2024


def random_shapes():
    """A fixed stratified sample of the criterion-10 shape distribution:
    24 schemes of 2..8 points in P^2, and 16 schemes of 2..5 components in
    P^3 of which 0, 1 or 2 are lines; multiplicities are 1 or 2."""
    rng = random.Random(_SHAPE_SEED)
    shapes = []
    for i in range(RANDOM_SCHEMES):
        if i % 5 < 3:
            ambient, n_comp, n_lines = 2, 2 + i % 7, 0
        else:
            ambient, n_comp = 3, rng.randint(2, 5)
            n_lines = min(n_comp, (0, 1, 2, 1)[i % 4])
        mults = tuple(rng.randint(1, 2) for _ in range(n_comp))
        shapes.append((ambient, n_lines, mults))
    return shapes


def _random_scheme(rng, ambient, n_lines, mults):
    while True:
        comps = []
        try:
            for i, mu in enumerate(mults):
                if i < n_lines:
                    forms = [LinForm([rng.randint(-9, 9)
                                      for _ in range(ambient + 1)])
                             for _ in range(ambient - 1)]
                    sub = Subspace(ambient, forms)
                else:
                    coords = [rng.randint(-20, 20) for _ in range(ambient)]
                    sub = point_subspace(tuple(coords) + (1,))
                comps.append(FatComponent(sub, mu))
            return FatFlatScheme(ambient, tuple(comps))
        except (ValidationError, ValueError):
            continue


def random_inputs(seed):
    rng = random.Random(seed)
    return [_random_scheme(rng, *shape) for shape in random_shapes()]


def random_query(scheme, k):
    """alpha_symbolic, serialize, then the membership re-check that
    ``fatflats member`` makes on the witness."""
    record = interpolation.alpha_symbolic(scheme, k)
    serialization.dump_json(serialization.alpha_record_to_dict(record))
    if not record.resolved:
        return Outcome(answer=None, records=[record],
                       error=f"unresolved below cap {record.degree_cap}")
    if not interpolation.membership(record.witness, scheme, k):
        return Outcome(answer=record.alpha, records=[record],
                       error="witness fails membership")
    q = int(record.witness.field == "rational")
    return Outcome(answer=record.alpha, records=[record], upper_bounds=1,
                   upper_q_verified=q)


def random_check(inputs, outcomes):
    """Seed-independent checks on each scheme's table alpha(I^(k)), k=1..3:
    strictly increasing (a nonzero partial derivative of a form in I^(k)
    lies in I^(k-1)) and subadditive (witness products).  A violation is
    charged to the scheme's k=3 query."""
    wrong = {}
    n = len(RANDOM_KS)
    for start in range(0, len(outcomes), n):
        alphas = [o.answer for o in outcomes[start:start + n]]
        if None in alphas:
            continue  # already failed as unresolved or raised
        a1, a2, a3 = alphas
        if not (a1 < a2 < a3):
            wrong[start + n - 1] = f"alpha not strictly increasing: {alphas}"
        elif a2 > 2 * a1 or a3 > a1 + a2:
            wrong[start + n - 1] = f"alpha not subadditive: {alphas}"
    return wrong, []


# -- planar-exact --------------------------------------------------------------

PLANAR_CONFIGS = 150
# Classification branches the generator aims at, with the number of points
# of each instance.  Every branch of ``classify`` except its defensive
# fallback appears; the shape list is the same for every seed.
PLANAR_BRANCHES = (
    ("a", (3, 4, 5)),
    ("b", (4, 5, 6)),
    ("c", (4,)),
    (classify.MULTIPLICITY_AT_LEAST_3, (2, 3, 4)),
    (classify.TWO_DOUBLES, (3, 4, 5)),
    (classify.FIGURE_3, (5, 6, 7)),
    (classify.GENERAL_POSITION_CONIC, (4, 5, 6)),
)


def planar_shapes():
    n = len(PLANAR_BRANCHES)
    shapes = []
    for i in range(PLANAR_CONFIGS):
        branch, sizes = PLANAR_BRANCHES[i % n]
        shapes.append((branch, sizes[i // n % len(sizes)]))
    return shapes


def _rand_q(rng, lo=-12, hi=12):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 3))


def _point_on(rng, a, b):
    t = _rand_q(rng)
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]), Fraction(1))


def _free_point(rng):
    return (_rand_q(rng), _rand_q(rng), Fraction(1))


def _planar_points(rng, branch, n):
    """Points (with multiplicities) meant to land in ``branch``; the
    caller re-draws until ``classify`` agrees and all points are distinct."""
    if branch == "a":
        a, b = _free_point(rng), _free_point(rng)
        pts = [_point_on(rng, a, b) for _ in range(n)]
        doubles = rng.randint(1, n)
        return pts, [2] * doubles + [1] * (n - doubles)
    if branch == "b":
        p0 = _free_point(rng)
        u, v = _free_point(rng), _free_point(rng)
        r = rng.randint(1, n - 2)
        pts = [p0] + [_point_on(rng, p0, u) for _ in range(r)] + \
              [_point_on(rng, p0, v) for _ in range(n - 1 - r)]
        return pts, [2] + [1] * (n - 1)
    if branch in ("c", classify.FIGURE_3):
        a, b = _free_point(rng), _free_point(rng)
        pts = [_free_point(rng)] + [_point_on(rng, a, b) for _ in range(n - 1)]
        return pts, [2] + [1] * (n - 1)
    if branch == classify.MULTIPLICITY_AT_LEAST_3:
        pts = [_free_point(rng) for _ in range(n)]
        return pts, [3] + [rng.randint(1, 2) for _ in range(n - 1)]
    if branch == classify.TWO_DOUBLES:
        pts = [_free_point(rng) for _ in range(n)]
        return pts, [2, 2] + [rng.randint(1, 2) for _ in range(n - 2)]
    pts = [_free_point(rng) for _ in range(n)]
    return pts, [2] + [1] * (n - 1)


def planar_branch(result):
    return result.case if result.below_five_halves else result.reason


def planar_inputs(seed):
    """150 (configuration, branch) pairs; each configuration is redrawn
    until the classifier puts it in its intended branch."""
    rng = random.Random(seed)
    out = []
    for branch, n in planar_shapes():
        while True:
            pts, mults = _planar_points(rng, branch, n)
            try:
                config = FatPointsP2(pts, mults)
            except ValidationError:
                continue
            if planar_branch(classify.classify(config)) == branch:
                out.append((config, config.to_scheme(), branch))
                break
    return out


def planar_inputs_json(inputs):
    return json.dumps([[serialization.points_to_dict(c), b]
                       for c, _, b in inputs], sort_keys=True)


def _double_point_lower(config):
    """A double point alone has Waldschmidt constant 2 (nef class L - E);
    transfer it to the whole configuration by monotonicity."""
    i = config.multiplicities.index(2)
    sub = FatPointsP2([config.points[i]], [2])
    cert = NefCertificate(divisor=DivisorClass(1, (1,)),
                          decomposition=((ComponentClass("line", (0,)), 1),))
    return bounds.monotone_lower(config, sub, bounds.nef_lower(sub, cert))


def _case_c_lower(config):
    """3L - 2E_0 - E_1 - E_2 - E_3, the proper transforms of the three lines
    through the double point plus E_0: nef, with bound 7/3."""
    i = config.multiplicities.index(2)
    others = [j for j in range(len(config)) if j != i]
    drops = [1] * len(config)
    drops[i] = 2
    cert = NefCertificate(
        divisor=DivisorClass(3, drops),
        decomposition=tuple((ComponentClass("line", (i, j)), 1)
                            for j in others)
        + ((ComponentClass("E", (i,)), 1),))
    return bounds.nef_lower(config, cert)


def planar_query(config, scheme):
    """classify, the certificate bound, the rational upper bounds for
    k <= 2, and exact membership of every rational witness."""
    result = classify.classify(config)
    if result.case in (classify.CASE_A, classify.CASE_B):
        lower = _double_point_lower(config)
    elif result.case == classify.CASE_C:
        lower = _case_c_lower(config)
    else:
        lower = result.lower
    report = bounds.upper_bounds(scheme, 2, mode="rational")
    bounds.attach_lower(report, lower)
    serialization.dump_json({
        "classification": serialization.classification_to_dict(result),
        "report": serialization.report_to_dict(report)})
    answer = {"branch": planar_branch(result), "lower": str(lower.value),
              "upper": str(report.upper), "verdict": report.verdict,
              "table": [r.alpha for r in report.table]}
    member = {r.k: interpolation.membership(r.witness, scheme, r.k)
              for r in report.table if r.resolved}
    bad = [k for k, ok in member.items() if not ok]
    return Outcome(answer=answer, records=list(report.table), upper_bounds=1,
                   upper_q_verified=int(member.get(report.upper_k, False)),
                   error=f"witness for k={bad} fails membership over Q"
                   if bad else None)


def planar_expected_lower(config, branch):
    """Theorem values of the certified lower bound for each branch."""
    n = len(config)
    if branch in ("a", "b"):
        return Fraction(2)
    if branch == "c":
        return Fraction(7, 3)
    if branch == classify.MULTIPLICITY_AT_LEAST_3:
        return Fraction(max(config.multiplicities))
    if branch == classify.FIGURE_3:
        return Fraction(3 * n - 5, n - 1)
    return Fraction(5, 2)


def planar_check(inputs, outcomes):
    """Per query, the checks of :func:`planar_answer_error`; per pass,
    every branch of the classifier is hit at least once."""
    wrong = {}
    for i, ((config, _, branch), o) in enumerate(zip(inputs, outcomes)):
        if o.answer is not None:
            error = planar_answer_error(o.answer, config, branch)
            if error:
                wrong[i] = error
    hit = {o.answer["branch"] for o in outcomes if o.answer is not None}
    missed = sorted({b for b, _ in PLANAR_BRANCHES} - hit)
    return wrong, [f"classify branches never hit: {missed}"] if missed else []


def planar_answer_error(answer, config, branch):
    """Seed-independent checks: intended branch, theorem lower bound,
    lower <= upper, exact verdict on cases a/b, monotone subadditive table."""
    if answer["branch"] != branch:
        return f"classified {answer['branch']}, built as {branch}"
    lower = Fraction(answer["lower"])
    if lower != planar_expected_lower(config, branch):
        return f"lower bound {lower} is not the theorem value"
    upper = Fraction(answer["upper"])
    if lower > upper:
        return f"lower {lower} exceeds upper {upper}"
    if branch in ("a", "b") and (answer["verdict"], upper) != ("exact", 2):
        return f"case {branch} should be exact 2: {answer['verdict']} {upper}"
    a1, a2 = answer["table"]
    if not (a1 < a2 <= 2 * a1):
        return f"alpha table {answer['table']} not increasing, subadditive"
    return None


# -- shared --------------------------------------------------------------------

def _q_verified(report, scheme):
    """1 when the report's upper bound has a rational witness that is a
    member of the symbolic power over Q, else 0."""
    if report.upper is None:
        return 0
    record = next(r for r in report.table if r.k == report.upper_k)
    w = record.witness
    if w is None or w.field != "rational":
        return 0
    return int(interpolation.membership(w, scheme, record.k))


@dataclass(frozen=True)
class Workload:
    """build(seed) -> inputs; encode(inputs) -> canonical JSON text;
    queries(inputs) -> argument tuples for run(*args) -> Outcome;
    check(inputs, outcomes) -> ({query index: error}, [run-level errors])."""

    build: object
    encode: object
    queries: object
    run: object
    check: object


WORKLOADS = {
    "star-p4-double": Workload(
        star_inputs, schemes_json, lambda inputs: [(inputs[0],)],
        star_query, star_check),
    "random-flats": Workload(
        random_inputs, schemes_json,
        lambda inputs: [(s, k) for s in inputs for k in RANDOM_KS],
        random_query, random_check),
    "planar-exact": Workload(
        planar_inputs, planar_inputs_json,
        lambda inputs: [(c, s) for c, s, _ in inputs],
        planar_query, planar_check),
}


def _prime_replacements(record):
    if record.field_mode != "modp" or record.primes is None:
        return 0
    return sum(p != q for p, q in zip(record.primes, DEFAULT_PRIMES))


def answer_metrics(outcomes, failed):
    """Answer-level counts over some outcomes, ``failed`` of them failed."""
    records = [r for o in outcomes for r in o.records]
    bounds_made = sum(o.upper_bounds for o in outcomes)
    verified = sum(o.upper_q_verified for o in outcomes)
    return {
        "failed_frac": failed / len(outcomes),
        "witness_q_frac": verified / bounds_made if bounds_made else 0.0,
        "resolved": sum(r.resolved for r in records),
        "interpolation.search.escalations": sum(r.escalated for r in records),
        "interpolation.search.cap_hits": sum(r.degree_cap_hit
                                             for r in records),
        "interpolation.search.prime_replacements": sum(
            _prime_replacements(r) for r in records),
    }
