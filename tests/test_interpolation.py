import random
from fractions import Fraction
from math import comb

import pytest

from fatflats import interpolation
from fatflats.errors import CapExceededError, ValidationError
from fatflats.interpolation import (
    AdaptedTablesModP,
    AdaptedTablesQQ,
    Form,
    alpha_symbolic,
    alpha_table,
    condition_row_count,
    default_degree_cap,
    form_product,
    membership,
    monomial_basis,
    multiply_forms,
    require_alpha,
)
from fatflats.linalg import rank_kernel_rational
from fatflats.projective import LinForm, Subspace, point_subspace
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.schemes import (
    FatPointsP2,
    build_rational_target,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
)


# -- an independent oracle: derivative conditions at fat points ---------------

def _falling(a, b):
    out = 1
    for i in range(b):
        out *= a - i
    return out


def _derivative_row(point, beta, degree, nvars):
    """d^beta applied to each degree-d monomial, evaluated at the point."""
    row = []
    for mon in monomial_basis(nvars, degree):
        if any(m < b for m, b in zip(mon, beta)):
            row.append(Fraction(0))
            continue
        coeff = 1
        val = Fraction(1)
        for x, m, b in zip(point, mon, beta):
            coeff *= _falling(m, b)
            val *= Fraction(x) ** (m - b)
        row.append(coeff * val)
    return row


def alpha_points_oracle(config: FatPointsP2, k: int, cap: int = 40) -> int:
    """alpha(I^(k)) for planar fat points via partial-derivative rows;
    shares nothing with the engine's adapted-coordinate route."""
    nvars = 3
    orders = [k * m for m in config.multiplicities]
    for d in range(max(orders), cap + 1):
        rows = []
        for p, kappa in zip(config.points, orders):
            for t in range(kappa):
                for beta in monomial_basis(nvars, t):
                    rows.append(_derivative_row(p, beta, d, nvars))
        _, kernel = rank_kernel_rational(rows,
                                         ncols=len(monomial_basis(nvars, d)))
        if kernel is not None:
            return d
    raise AssertionError("oracle cap exceeded")


@pytest.mark.parametrize("case_id,params,ks", [
    ("a", {"r": 2, "s": 1}, (1, 2, 3)),
    ("b", {"r": 1, "s": 1}, (1, 2, 3)),
    ("c", None, (1, 2, 3)),
    ("zprime", None, (1, 2)),
    ("wprime", None, (1, 2)),
])
def test_engine_matches_derivative_oracle_on_planar_families(
        case_id, params, ks):
    config = build_theorem_b_family(case_id, params)
    scheme = config.to_scheme()
    for k in ks:
        engine = require_alpha(alpha_symbolic(scheme, k))
        assert engine == alpha_points_oracle(config, k)


def test_engine_matches_derivative_oracle_on_random_points():
    rng = random.Random(99)
    for _ in range(8):
        pts = set()
        while len(pts) < rng.randint(2, 4):
            pts.add((rng.randint(-3, 3), rng.randint(-3, 3), 1))
        pts = sorted(pts)
        mults = [rng.randint(1, 2) for _ in pts]
        config = FatPointsP2(pts, mults)
        for k in (1, 2):
            assert require_alpha(alpha_symbolic(config.to_scheme(), k)) == \
                alpha_points_oracle(config, k)


def test_star_p2_derivative_oracle(star25):
    star, scheme = star25
    from fatflats.projective import intersect_hyperplanes, point_coords
    pts = [point_coords(intersect_hyperplanes(star.hyperplanes, sub))
           for sub in star.subsets]
    config = FatPointsP2(pts, [1] * len(pts))
    for k, expected in ((1, 4), (2, 5), (3, 9)):
        assert require_alpha(alpha_symbolic(scheme, k)) == expected
        assert alpha_points_oracle(config, k) == expected


# -- structure of the condition system ----------------------------------------

def test_monomial_basis_graded_lex():
    basis = monomial_basis(3, 2)
    assert basis[0] == (2, 0, 0) and basis[-1] == (0, 0, 2)
    assert len(basis) == comb(2 + 2, 2)
    assert len(set(basis)) == len(basis)
    assert all(sum(m) == 2 for m in basis)


def test_condition_row_count_matches_blocks():
    sub = Subspace(3, [LinForm([1, 2, 3, 4]), LinForm([0, 1, 1, 0])])
    p = DEFAULT_PRIMES[0]
    modp = AdaptedTablesModP(sub, p)
    rational = AdaptedTablesQQ(sub)
    for d, kappa in [(2, 1), (2, 5), (3, 2), (4, 3)]:
        expected = condition_row_count(sub.codim, kappa, d, 3)
        assert modp.block(d, kappa).shape[0] == expected
        assert len(rational.block(d, kappa)) == expected


def test_tables_refuse_backward_requests():
    sub = Subspace(3, [LinForm([1, 2, 3, 4]), LinForm([0, 1, 1, 0])])
    for tables in (AdaptedTablesModP(sub, DEFAULT_PRIMES[0]),
                   AdaptedTablesQQ(sub)):
        tables.table(3)
        tables.table(3)  # the same degree again is served as built
        with pytest.raises(ValueError):
            tables.table(2)


def test_adapted_tables_expand_correctly():
    """x^a expanded into adapted monomials must agree with evaluation:
    for x = B w, x^a == sum_beta table[a][beta] * w^beta."""
    sub = Subspace(2, [LinForm([1, 2, 3])])
    tabs = AdaptedTablesQQ(sub)
    rng = random.Random(1)
    w = [Fraction(rng.randint(1, 9)) for _ in range(3)]
    x = [sum(Fraction(tabs.B[i][j]) * w[j] for j in range(3)) for i in range(3)]
    for d in (1, 2, 3):
        table = tabs.table(d)
        for mon, poly in table.items():
            lhs = Fraction(1)
            for xi, mi in zip(x, mon):
                lhs *= xi ** mi
            rhs = sum(c * Fraction(1) *
                      _monomial_value(w, beta) for beta, c in poly.items())
            assert lhs == rhs


def _monomial_value(coords, exps):
    out = Fraction(1)
    for x, e in zip(coords, exps):
        out *= x ** e
    return out


def test_modp_tables_match_rational_tables():
    """The mod-p tables expand through the coordinate change with column j
    scaled by c_j, so entry (m, beta) is the rational entry times
    prod c_j^beta_j, reduced mod p."""
    p = DEFAULT_PRIMES[0]
    line = Subspace(3, [LinForm([2, 3, 5, 7]), LinForm([1, -4, 2, 3])])
    for sub, scales in ((point_subspace((2, -1, 1)), (1, 1, 1)),
                        (point_subspace((3, 2, 5)), (1, 1, 5)),
                        (line, (1, 1, 11, 11))):
        modp = AdaptedTablesModP(sub, p)
        rational = AdaptedTablesQQ(sub)
        nvars = sub.ambient_dim + 1
        for d in (1, 2, 3):
            table_p = modp.table(d)
            table_q = rational.table(d)
            basis = monomial_basis(nvars, d)
            for i, mon in enumerate(basis):
                for j, beta in enumerate(basis):
                    c = table_q[mon].get(beta, Fraction(0))
                    for scale, b in zip(scales, beta):
                        c *= scale ** b
                    expected = c.numerator * pow(c.denominator, -1, p) % p
                    assert table_p[i, j] == expected


# -- forms ---------------------------------------------------------------------

def test_form_product_evaluates_correctly():
    f1 = LinForm([1, 1, 0])
    f2 = LinForm([0, 1, -1])
    form = form_product([(f1, 2), (f2, 1)])
    assert form.degree == 3
    rng = random.Random(2)
    for _ in range(5):
        pt = [Fraction(rng.randint(-5, 5)) for _ in range(3)]
        direct = f1.evaluate(pt) ** 2 * f2.evaluate(pt)
        expanded = sum(c * _monomial_value(pt, e) for e, c in form.coeffs)
        assert direct == expanded


def test_form_from_dict_validation():
    with pytest.raises(ValidationError):
        Form.from_dict(2, 2, {(1, 0, 0): 1})  # degree mismatch
    with pytest.raises(ValidationError):
        Form.from_dict(2, 1, {(1, 0): 1})  # wrong arity
    form = Form.from_dict(2, 1, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert form.coeffs == (((1, 0, 0), 1),)  # zero coefficients dropped


def test_multiply_forms_checks_modes():
    f = form_product([(LinForm([1, 0, 0]), 1)])
    g = Form.from_dict(2, 1, {(0, 1, 0): 1}, field=DEFAULT_PRIMES[0])
    with pytest.raises(ValidationError):
        multiply_forms(f, g)
    h = multiply_forms(f, f)
    assert h.degree == 2 and h.as_dict() == {(2, 0, 0): 1}


# -- alpha ---------------------------------------------------------------------

def test_single_fat_point_alpha_is_k_times_m():
    scheme = FatPointsP2([(1, 2, 1)], [3]).to_scheme()
    for k in (1, 2, 3):
        assert require_alpha(alpha_symbolic(scheme, k)) == 3 * k


def test_line_in_p3_alpha_one():
    line = Subspace(3, [LinForm([1, 2, 3, 4]), LinForm([0, 1, 1, 0])])
    from fatflats.schemes import FatComponent, FatFlatScheme
    scheme = FatFlatScheme(3, (FatComponent(line, 1),))
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 1
    assert membership(record.witness, scheme, 1)


def test_witness_is_member_and_modes_agree(star25):
    _, scheme = star25
    for k in (1, 2, 3):
        modp = alpha_symbolic(scheme, k)
        rational = alpha_symbolic(scheme, k, mode="rational")
        assert modp.alpha == rational.alpha
        assert membership(modp.witness, scheme, k)
        assert membership(rational.witness, scheme, k)
        assert not modp.escalated
        assert modp.primes == DEFAULT_PRIMES


def test_membership_detects_nonmembers(star25):
    star, scheme = star25
    # One line of the configuration is not in I (vanishes on 4 of the 10
    # points only).
    single = form_product([(star.hyperplanes[0], 1)])
    assert not membership(single, scheme, 1)
    # The full product of the five lines is in I^(2) but not I^(3).
    product = form_product([(h, 1) for h in star.hyperplanes])
    assert membership(product, scheme, 2)
    assert not membership(product, scheme, 3)


def test_membership_input_validation(star25):
    _, scheme = star25
    form = form_product([(LinForm([1, 0, 0, 0]), 1)])
    with pytest.raises(ValidationError):
        membership(form, scheme, 1)  # ambient mismatch
    zero = Form(2, 1, ())
    with pytest.raises(ValidationError):
        membership(zero, scheme, 1)


def test_cap_behavior(star25):
    _, scheme = star25
    record = alpha_symbolic(scheme, 1, degree_cap=3)  # alpha is 4
    assert not record.resolved and record.degree_cap_hit
    with pytest.raises(CapExceededError):
        require_alpha(record)
    # The default cap is the first degree with more monomials than order
    # conditions, where a form must exist: ten double points need 30
    # conditions, and C(7+2, 2) = 36 > 30 >= C(6+2, 2).
    assert default_degree_cap(scheme, 2) == 7
    target = build_rational_target(4, 10)  # 2*S_4(4,5): alpha 3, 5, 8, 10
    caps = [default_degree_cap(target, k) for k in (1, 2, 3, 4)]
    assert caps == [3, 6, 9, 12]
    assert all(c >= a for c, a in zip(caps, (3, 5, 8, 10)))
    for k in (1, 2, 3):
        assert not alpha_symbolic(scheme, k).degree_cap_hit
    with pytest.raises(ValidationError):
        alpha_symbolic(scheme, 0)
    with pytest.raises(ValidationError):
        alpha_symbolic(scheme, 1, mode="padic")


def test_bad_prime_replacement():
    # The adapted coordinate change for (1, -p1, 0) has an entry with
    # denominator p1.  The mod-p tables reduce the integral change, so p1
    # itself still runs: no prime is replaced.
    p1 = DEFAULT_PRIMES[0]
    config = FatPointsP2([(1, -p1, 0), (1, 0, 1)], [1, 1])
    scheme = config.to_scheme()
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 1
    assert record.primes == DEFAULT_PRIMES
    assert not record.escalated and record.field_mode == "modp"
    assert record.witness.field == p1
    assert membership(record.witness, scheme, 1)
    # The line -p1*x - y + p1*z through both points, reduced mod p1.
    assert record.witness.as_dict() == {(0, 1, 0): 1}


def test_equal_primes_rejected(star25):
    _, scheme = star25
    p = DEFAULT_PRIMES[0]
    with pytest.raises(ValidationError):
        alpha_symbolic(scheme, 1, primes=(p, p))


@pytest.mark.parametrize("q", DEFAULT_PRIMES)
def test_second_prime_confirms_or_escalates(q, monkeypatch):
    # (0, q, 1) reduces to (0, 0, 1) mod q, so mod q a line passes through
    # the three points; over Q they are not collinear and alpha is 2.
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, q, 1)],
                         [1, 1, 1]).to_scheme()
    rational_degrees = []
    kernel_rational = interpolation._kernel_rational

    def counting(tables, orders, d):
        rational_degrees.append(d)
        return kernel_rational(tables, orders, d)

    monkeypatch.setattr(interpolation, "_kernel_rational", counting)
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 2
    assert membership(record.witness, scheme, 1)
    assert record.primes == DEFAULT_PRIMES
    if q == DEFAULT_PRIMES[0]:
        # The first prime finds a line, the second refutes it at degree 1,
        # and the search re-runs over Q from degree 2: full rank mod p2 at
        # degree 1 already proves that no line exists.
        assert record.escalated and record.field_mode == "rational"
        assert rational_degrees == [2]
    else:
        # The first prime is lucky; the second only eliminates at degree
        # 2, where a conic exists mod q too.
        assert not record.escalated and record.field_mode == "modp"
        assert rational_degrees == []


def test_scaled_star_alpha(star25):
    """alpha(I(2*S)^(k)) = alpha(I(S)^(2k)): scaling multiplicities is the
    same conditions as doubling k."""
    _, scheme = star25
    doubled = scale_multiplicities(scheme, 2)
    for k in (1, 2):
        assert require_alpha(alpha_symbolic(doubled, k)) == \
            require_alpha(alpha_symbolic(scheme, 2 * k))


def test_alpha_star_p3_table():
    """Independent sanity for the P^3 line star: products of s-e+1 = 3
    hyperplanes give alpha <= 3, and the engine confirms equality (no
    quadric through the six lines)."""
    star, scheme = star_configuration(3, 2, 4, seed=1)
    witness = form_product([(h, 1) for h in star.hyperplanes[:3]])
    assert membership(witness, scheme, 1)
    assert require_alpha(alpha_symbolic(scheme, 1)) == 3
    assert require_alpha(alpha_symbolic(scheme, 2)) == 4


def test_alpha_table_validation(star25):
    _, scheme = star25
    for ks in ([0, 1], [2, 2], [3, 1]):
        with pytest.raises(ValidationError):
            alpha_table(scheme, ks)


def test_alpha_table_builds_each_table_once(star25, monkeypatch):
    """S_2(2,5) for k <= 4: each k starts past the previous answer, so the
    first prime eliminates each degree 1..10 once and the second prime only
    at the answers; each of the ten points gets one table per prime, built
    up to degree 10."""
    _, scheme = star25
    eliminated = []
    kernel_modp = interpolation._kernel_modp

    def recording(tables, orders, d):
        eliminated.append((tables[0].p, d))
        return kernel_modp(tables, orders, d)

    builds = []
    build_next = AdaptedTablesModP._build_next

    def counting(self):
        builds.append(self)
        build_next(self)

    monkeypatch.setattr(interpolation, "_kernel_modp", recording)
    monkeypatch.setattr(AdaptedTablesModP, "_build_next", counting)
    table = alpha_table(scheme, range(1, 5))
    assert [r.alpha for r in table] == [4, 5, 9, 10]
    p1, p2 = DEFAULT_PRIMES
    assert [d for p, d in eliminated if p == p1] == list(range(1, 11))
    assert [d for p, d in eliminated if p == p2] == [4, 5, 9, 10]
    assert len(builds) == 200 and len(set(map(id, builds))) == 20


@pytest.mark.parametrize("q", DEFAULT_PRIMES)
def test_alpha_table_matches_one_k_searches(q):
    """The table gives each k the record of its own search from max(orders),
    also when the second prime refutes every answer (q = p1: the points are
    collinear mod p1, and alpha is 2, 3, 5 over Q) and under a cap that
    leaves k = 3 unresolved."""
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, q, 1)],
                         [1, 1, 1]).to_scheme()
    for mode, cap in (("modp", None), ("rational", None), ("modp", 4)):
        table = alpha_table(scheme, (1, 2, 3), mode=mode, degree_cap=cap)
        single = [alpha_symbolic(scheme, k, mode=mode, degree_cap=cap)
                  for k in (1, 2, 3)]
        assert table == single
        expected = [2, 3, None] if cap else [2, 3, 5]
        assert [r.alpha for r in table] == expected
        if mode == "modp":
            assert all(r.escalated == (q == DEFAULT_PRIMES[0]) for r in table)
