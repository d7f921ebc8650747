import random
from fractions import Fraction
from math import comb, gcd

import numpy as np
import pytest

from fatflats import interpolation
from fatflats.errors import CapExceededError, ValidationError
from fatflats.interpolation import (
    AdaptedTablesModP,
    AdaptedTablesQQ,
    Form,
    ProductWitness,
    _integral_change,
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
from fatflats.linalg import rank_kernel_modp, rank_kernel_rational
from fatflats.projective import LinForm, Subspace, point_subspace
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.schemes import (
    FatComponent,
    FatFlatScheme,
    FatPointsP2,
    StarData,
    build_quasi_star,
    build_rational_target,
    build_theorem_b_family,
    scale_multiplicities,
    star_configuration,
)
from fatflats.verification import _theorem_a_instance

# Test ids by the prime's role, so a change of the field primes renames no
# test.
PRIME_IDS = ("first-prime", "second-prime")


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
    scheme = star25
    from fatflats.projective import point_coords
    pts = [point_coords(c.subspace) for c in scheme.components]
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
    for x = B w, B = ``_integral_change(sub)``, the integer table gives
    x^a == sum_beta table[a][beta] * w^beta."""
    rng = random.Random(1)
    for sub in (Subspace(2, [LinForm([1, 2, 3])]),
                Subspace(3, [LinForm([2, 3, 5, 7]), LinForm([1, -4, 2, 3])]),
                point_subspace((3, 2, 5))):
        nvars = sub.ambient_dim + 1
        B = _integral_change(sub)
        tabs = AdaptedTablesQQ(sub)
        w = [rng.randint(-9, 9) for _ in range(nvars)]
        x = [sum(B[i][j] * w[j] for j in range(nvars)) for i in range(nvars)]
        for d in (1, 2, 3):
            table = tabs.table(d)
            basis = monomial_basis(nvars, d)
            assert table.shape == (len(basis), len(basis))
            assert all(type(c) is int for c in table.flat)
            for mon, row in zip(basis, table):
                rhs = sum(c * _monomial_value(w, beta)
                          for beta, c in zip(basis, row))
                assert _monomial_value(x, mon) == rhs


def _monomial_value(coords, exps):
    out = Fraction(1)
    for x, e in zip(coords, exps):
        out *= x ** e
    return out


def test_modp_tables_match_rational_tables():
    """Both lanes expand the same integral coordinate change, so the mod-p
    table is the integer table over Q reduced mod p, entry by entry."""
    p = DEFAULT_PRIMES[0]
    line = Subspace(3, [LinForm([2, 3, 5, 7]), LinForm([1, -4, 2, 3])])
    for sub in (point_subspace((2, -1, 1)), point_subspace((3, 2, 5)),
                line):
        modp = AdaptedTablesModP(sub, p)
        rational = AdaptedTablesQQ(sub)
        for d in (1, 2, 3):
            table_p = modp.table(d)
            table_q = rational.table(d)
            assert table_p.shape == table_q.shape
            for entry_p, entry_q in zip(table_p.flat, table_q.flat):
                assert entry_p == entry_q % p


def _seeded_points():
    """Seeded points of P^2, P^3 and P^4 with zero, negative and rational
    coordinates."""
    rng = random.Random(17)
    values = [0, 0, 1, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3)]
    out = []
    for n in (2, 3, 4):
        for _ in range(3):
            coords = [rng.choice(values) for _ in range(n + 1)]
            if any(coords):
                out.append(tuple(coords))
    assert any(0 in c for c in out)
    assert any(x < 0 for c in out for x in c)
    assert any(Fraction(x).denominator > 1 for c in out for x in c)
    return out


# The three lanes of a point's rows: each field prime, and None for Q.
LANES, LANE_IDS = (*DEFAULT_PRIMES, None), (*PRIME_IDS, "rational")


def _lane_tables(sub, p):
    return AdaptedTablesQQ(sub) if p is None else AdaptedTablesModP(sub, p)


def _lane_rank_kernel(rows, p):
    """(rank, kernel as a list) of integer rows mod p, or over Q."""
    if p is None:
        return rank_kernel_rational(rows.tolist(), ncols=rows.shape[1])
    rank, kernel = rank_kernel_modp(rows, p)
    return rank, None if kernel is None else kernel.tolist()


@pytest.mark.parametrize("p", LANES, ids=LANE_IDS)
def test_hasse_rows_match_expansion_tables(p):
    """A point's closed-form Hasse rows and the rows read off its expansion
    table (built by ``_build_next``) have the same row space, mod p and
    over Q, so the same normalised kernel; also at kappa > d, where both
    are the identity on the degree-d monomials."""
    for coords in _seeded_points():
        sub = point_subspace(coords)
        n = sub.ambient_dim
        tables = _lane_tables(sub, p)
        for d in range(5):
            for kappa in range(1, d + 3):
                hasse = tables.block(d, kappa)
                expanded = tables.expanded_block(d, kappa)
                rows = condition_row_count(n, kappa, d, n)
                assert hasse.shape == expanded.shape == (
                    rows, len(monomial_basis(n + 1, d)))
                assert hasse.dtype == expanded.dtype
                rank, kernel = _lane_rank_kernel(hasse, p)
                assert rank == rows
                assert _lane_rank_kernel(np.vstack([hasse, expanded]),
                                         p)[0] == rank
                assert _lane_rank_kernel(expanded, p)[1] == kernel
        assert tables._degree == 4


@pytest.mark.parametrize("p", LANES, ids=LANE_IDS)
def test_modp_membership_at_points(p):
    """On Hasse rows, mod p and over Q, a power of a linear form through
    the point is in I^kappa and a nonzero form of degree < kappa is not."""
    rng = random.Random(5)
    field = "rational" if p is None else p
    for coords in _seeded_points():
        sub = point_subspace(coords)
        n = sub.ambient_dim
        for kappa in (1, 2, 3):
            scheme = FatFlatScheme(n, (FatComponent(sub, kappa),))
            member = form_product([(sub.forms[0], kappa)])
            if p is not None:
                member = Form.from_dict(n, kappa, {
                    m: c.numerator * pow(c.denominator, -1, p) % p
                    for m, c in member.terms()}, field=p)
            assert membership(member, scheme, 1)
            for d in range(kappa):
                low = Form.from_dict(n, d, {
                    m: rng.randrange(1, p or 100)
                    for m in monomial_basis(n + 1, d)}, field=field)
                assert not membership(low, scheme, 1)


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
        expanded = sum(c * _monomial_value(pt, e) for e, c in form.terms())
        assert direct == expanded


def test_form_from_dict_validation():
    with pytest.raises(ValidationError):
        Form.from_dict(2, 2, {(1, 0, 0): 1})  # degree mismatch
    with pytest.raises(ValidationError):
        Form.from_dict(2, 1, {(1, 0): 1})  # wrong arity
    with pytest.raises(ValidationError):
        Form.from_dict(2, 2, {(3, -1, 0): 1})  # negative exponent
    for n, d in ((-1, 0), (2, -1)):
        with pytest.raises(ValidationError):
            Form.from_dict(n, d, {})  # no monomial basis
    form = Form.from_dict(2, 1, {(1, 0, 0): 1, (0, 1, 0): 0})
    assert list(form.terms()) == [((1, 0, 0), 1)]  # zero coefficients dropped
    assert form.as_dict() == {(1, 0, 0): 1}
    # Numerators over one denominator, the lcm of the reduced ones: the
    # same form from Fractions and from integers over that denominator.
    half = Form.from_dict(2, 1, {(1, 0, 0): Fraction(1, 2),
                                 (0, 0, 1): Fraction(-2, 3)})
    assert half.coeffs == (3, 0, -4) and half.denominator == 6
    assert half == Form.from_values(2, 1, [Fraction(c, 6) for c in (3, 0, -4)])
    assert half.as_dict() == {(1, 0, 0): Fraction(1, 2),
                              (0, 0, 1): Fraction(-2, 3)}
    # The packed numerators read back exactly across byte boundaries.
    for values in ([127, -128, 0], [128, -129, 1], [2 ** 100, -(2 ** 63), 5]):
        assert Form.from_values(2, 1, values).coeffs == tuple(values)


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
    """The star product closes every k of S_2(2,5): in both lanes the
    witness is the same rational product, and no prime confirmed it."""
    scheme = star25
    for k in (1, 2, 3):
        modp = alpha_symbolic(scheme, k)
        rational = alpha_symbolic(scheme, k, mode="rational")
        assert modp.alpha == rational.alpha
        assert membership(modp.witness, scheme, k)
        assert membership(rational.witness, scheme, k)
        assert modp.witness == rational.witness
        assert modp.witness.field == "rational"
        assert modp.field_mode == "modp" and not modp.escalated
        assert modp.primes is None and rational.primes is None


def test_membership_detects_nonmembers(star25):
    scheme = star25
    star = scheme.star
    # One line of the configuration is not in I (vanishes on 4 of the 10
    # points only).
    single = form_product([(star.hyperplanes[0], 1)])
    assert not membership(single, scheme, 1)
    # The full product of the five lines is in I^(2) but not I^(3).
    product = form_product([(h, 1) for h in star.hyperplanes])
    assert membership(product, scheme, 2)
    assert not membership(product, scheme, 3)
    # So is a third of its primitive integer multiple, a form over the
    # denominator 3; moving one of its coefficients by 1/7 leaves I^(2).
    content = gcd(*product.coeffs)
    terms = {m: Fraction(c // content, 3)
             for m, c in Form.from_values(2, 5, product.coeffs).terms()}
    third = Form.from_dict(2, 5, terms)
    assert third.denominator == 3
    assert membership(third, scheme, 2)
    assert not membership(third, scheme, 3)
    m = next(iter(terms))
    moved = Form.from_dict(2, 5, {**terms, m: terms[m] + Fraction(1, 7)})
    assert moved.denominator % 21 == 0
    assert not membership(moved, scheme, 2)


def test_membership_input_validation(star25):
    scheme = star25
    form = form_product([(LinForm([1, 0, 0, 0]), 1)])
    with pytest.raises(ValidationError):
        membership(form, scheme, 1)  # ambient mismatch
    zero = Form.from_dict(2, 1, {})
    with pytest.raises(ValidationError):
        membership(zero, scheme, 1)


def test_cap_behavior(star25):
    scheme = star25
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


@pytest.mark.parametrize("q", DEFAULT_PRIMES, ids=PRIME_IDS)
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
    scheme = star25
    doubled = scale_multiplicities(scheme, 2)
    for k in (1, 2):
        assert require_alpha(alpha_symbolic(doubled, k)) == \
            require_alpha(alpha_symbolic(scheme, 2 * k))


def test_alpha_star_p3_table():
    """Independent sanity for the P^3 line star: products of s-e+1 = 3
    hyperplanes give alpha <= 3, and the engine confirms equality (no
    quadric through the six lines)."""
    scheme = star_configuration(3, 2, 4, seed=1)
    witness = form_product([(h, 1) for h in scheme.star.hyperplanes[:3]])
    assert membership(witness, scheme, 1)
    assert require_alpha(alpha_symbolic(scheme, 1)) == 3
    assert require_alpha(alpha_symbolic(scheme, 2)) == 4


def test_alpha_table_validation(star25):
    scheme = star25
    for ks in ([0, 1], [2, 2], [3, 1], [], range(3, 2)):
        with pytest.raises(ValidationError):
            alpha_table(scheme, ks)


@pytest.fixture
def search_log(monkeypatch):
    """([(p, d) per mod-p elimination], [(table, degree) per table degree
    built]), recorded while the test runs."""
    eliminated, built = [], []
    kernel_modp = interpolation._kernel_modp
    build_next = AdaptedTablesModP._build_next

    def recording(tables, orders, d):
        eliminated.append((tables[0].p, d))
        return kernel_modp(tables, orders, d)

    def counting(self):
        built.append((self, self._degree + 1))
        build_next(self)

    monkeypatch.setattr(interpolation, "_kernel_modp", recording)
    monkeypatch.setattr(AdaptedTablesModP, "_build_next", counting)
    return eliminated, built


def test_alpha_table_builds_each_table_once(star25, search_log):
    """S_2(2,5) for k <= 4: each k starts past the previous answer and at
    its star floor ceil(5k/2) (its star_core is (2, 5, 1)), and stops below
    its balanced line product, of degree 4, 5, 9, 10.  So the first prime
    eliminates only 3 | - | 8 | -, where it finds full rank, the products
    close every k, and the second prime eliminates nothing; the ten points
    take their rows in closed form and build no table degree.  The six
    lines of S_3(2,4) for k <= 4 (floor 2k, products of degree 3, 4, 7,
    8): the first prime eliminates 2 | - | 6 | -, and each line builds
    its first-prime table only, at degrees 1..6 in order.  A line and two
    points in P^3 for k <= 3 (no star_core): the line gets one table per
    prime, built upward one degree at a time up to the last degree that
    prime eliminates; the points build none."""
    scheme = star25
    eliminated, built = search_log
    table = alpha_table(scheme, range(1, 5))
    assert [r.alpha for r in table] == [4, 5, 9, 10]
    p1, p2 = DEFAULT_PRIMES
    assert eliminated == [(p1, 3), (p1, 8)]
    assert built == []

    eliminated.clear()
    table = alpha_table(star_configuration(3, 2, 4, seed=1), range(1, 5))
    assert [r.alpha for r in table] == [3, 4, 7, 8]
    assert eliminated == [(p1, 2), (p1, 6)]
    assert {t.p for t, _ in built} == {p1}
    lines = {id(t) for t, _ in built}
    assert len(lines) == 6
    for line in lines:
        assert [d for t, d in built if id(t) == line] == list(range(1, 7))

    line = Subspace(3, [LinForm([1, 2, -1, 3]), LinForm([0, 1, 4, -2])])
    scheme = FatFlatScheme(3, (
        FatComponent(line, 2),
        FatComponent(point_subspace((1, -2, 0, 1)), 1),
        FatComponent(point_subspace((3, 1, Fraction(1, 2), 1)), 2)))
    eliminated.clear()
    built.clear()
    table = alpha_table(scheme, (1, 2, 3))
    assert [r.alpha for r in table] == [3, 5, 8]
    assert [d for p, d in eliminated if p == p1] == list(range(2, 9))
    assert [d for p, d in eliminated if p == p2] == [3, 5, 8]
    assert all(t.point is None for t, _ in built)
    for p in DEFAULT_PRIMES:
        assert len({id(t) for t, _ in built if t.p == p}) == 1
        assert [d for t, d in built if t.p == p] == list(range(1, 9))


def test_a_true_star_floor_keeps_every_record(star25):
    """The star floor ceil(k*m*s/e) is proved, so it only skips degrees
    below the answer: the checked star, a weaker star that the scheme also
    contains, and no star give equal alpha tables.  The witnesses differ:
    where a star product closes k, it is the witness."""
    for scheme in (star25, star_configuration(3, 2, 4, seed=1)):
        n, hyps = scheme.ambient_dim, scheme.star.hyperplanes
        others = (FatFlatScheme(n, scheme.components),
                  FatFlatScheme(n, scheme.components, StarData(hyps[:3], 2)))
        for mode, k_max in (("modp", 4), ("rational", 2)):
            expected = [r.alpha for r in
                        alpha_table(scheme, range(1, k_max + 1), mode=mode)]
            for other in others:
                assert [r.alpha for r in alpha_table(
                    other, range(1, k_max + 1), mode=mode)] == expected

    scheme = scale_multiplicities(star_configuration(4, 4, 5, seed=1), 2)
    n, hyps = scheme.ambient_dim, scheme.star.hyperplanes
    expected = [r.alpha for r in alpha_table(scheme, range(1, 4))]
    assert expected == [3, 5, 8]
    for other in (FatFlatScheme(n, scheme.components),
                  FatFlatScheme(n, scheme.components, StarData(hyps, 4, 1))):
        assert [r.alpha for r in alpha_table(other, range(1, 4))] == expected


def test_rational_points_build_no_table(monkeypatch):
    """Over Q a point takes its Hasse rows too: the rational alpha table
    of Theorem B's case c and the exact membership of its witnesses build
    no table degree and no coordinate change.  A line in P^3 still
    expands its coordinate change, one table degree at a time."""
    built, changed = [], []
    build_next = AdaptedTablesQQ._build_next
    integral_change = interpolation._integral_change

    def counting(self):
        built.append((self, self._degree + 1))
        build_next(self)

    def recording(sub):
        changed.append(sub)
        return integral_change(sub)

    monkeypatch.setattr(AdaptedTablesQQ, "_build_next", counting)
    monkeypatch.setattr(interpolation, "_integral_change", recording)
    scheme = build_theorem_b_family("c").to_scheme()
    table = alpha_table(scheme, range(1, 4), mode="rational")
    assert [r.alpha for r in table] == [3, 5, 7]
    assert all(membership(r.witness, scheme, r.k) for r in table)
    assert built == [] and changed == []

    line = Subspace(3, [LinForm([1, 2, -1, 3]), LinForm([0, 1, 4, -2])])
    scheme = FatFlatScheme(3, (
        FatComponent(line, 2), FatComponent(point_subspace((1, -2, 0, 1)), 1)))
    (record,) = alpha_table(scheme, [1], mode="rational")
    assert membership(record.witness, scheme, 1)
    assert len(changed) == 2 and not any(sub.is_point for sub in changed)
    assert [d for _, d in built] == [1, 2] * 2
    assert not any(t.sub.is_point for t, _ in built)


def test_the_star_floor_proves_the_answer(search_log):
    """2*S_4(4,5) at k = 4 alone: max(orders) = 8, and the star floor
    ceil(4*2*5/4) = 10 proves alpha >= 10 without eliminating any lower
    degree.  The product (H_1...H_5)^2 vanishes to order 8 at each point,
    so it proves alpha <= 10: no elimination at all."""
    scheme = scale_multiplicities(star_configuration(4, 4, 5, seed=1), 2)
    eliminated, _ = search_log
    (record,) = alpha_table(scheme, [4])
    assert record.alpha == 10 and record.primes is None
    assert eliminated == []
    assert record.witness.degree == record.alpha
    assert record.witness.expand().denominator == 1


_PRODUCT_SCHEMES = {
    # name: (scheme, largest k mod p, largest k over Q).  The starless
    # search over Q eliminates by Bareiss at each degree it scans (slow at
    # high degree), so the doubled schemes stop earlier.
    "S_2(2,4)": (star_configuration(2, 2, 4, seed=1), 4, 2),
    "S_2(2,5)": (star_configuration(2, 2, 5, seed=1), 4, 2),
    "S_2(2,6)": (star_configuration(2, 2, 6, seed=1), 4, 2),
    "S_3(2,4)": (star_configuration(3, 2, 4, seed=1), 4, 2),
    "2*S_2(2,5)": (scale_multiplicities(star_configuration(2, 2, 5, seed=1),
                                        2), 4, 1),
    "theorem-a": (_theorem_a_instance(), 3, 1),
    "quasi-star-4": (build_quasi_star(4), 4, 1),
}


@pytest.mark.parametrize("name", sorted(_PRODUCT_SCHEMES))
def test_star_product_is_sound_and_tight(name):
    """The star product gives the alpha table of the same components
    without their star, which takes the search with no upper bracket, in
    both lanes.  Each product witness keeps its factors, expands to an
    integral form and passes exact membership (over Q, up to the rational
    lane's largest k; the mod-p lane's witness at such k is the same
    product)."""
    scheme, k_modp, k_rational = _PRODUCT_SCHEMES[name]
    starless = FatFlatScheme(scheme.ambient_dim, scheme.components)
    tables = {}
    for mode, k_max in (("modp", k_modp), ("rational", k_rational)):
        ks = range(1, k_max + 1)
        tables[mode] = alpha_table(scheme, ks, mode=mode)
        assert [r.alpha for r in tables[mode]] == \
            [r.alpha for r in alpha_table(starless, ks, mode=mode)]
        for r in tables[mode]:
            assert r.primes is None and not r.escalated
            assert r.field_mode == mode and r.witness.field == "rational"
            assert isinstance(r.witness, ProductWitness)
            assert r.witness.degree == r.alpha
            assert r.witness.expand().denominator == 1
    for modp, rational in zip(tables["modp"], tables["rational"]):
        assert modp.witness == rational.witness
        assert membership(rational.witness, scheme, rational.k)
@pytest.mark.parametrize("q", DEFAULT_PRIMES, ids=PRIME_IDS)
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


@pytest.mark.parametrize("name", sorted(_PRODUCT_SCHEMES))
def test_product_membership_matches_expansion(name):
    """Factored membership, which adds the factors' orders, agrees with
    exact membership of the expanded product: on each witness, a member
    of I^(k), whether or not it lies in I^(k+1) too, and on the witness
    with any one exponent lowered, a form of degree alpha - 1 and so
    never a member."""
    scheme, k_modp, _ = _PRODUCT_SCHEMES[name]
    for r in alpha_table(scheme, range(1, k_modp + 1)):
        w = r.witness
        assert membership(w, scheme, r.k) is True
        assert membership(w.expand(), scheme, r.k) is True
        assert membership(w, scheme, r.k + 1) == \
            membership(w.expand(), scheme, r.k + 1)
        for j, (coeffs, a) in enumerate(w.factors):
            lowered = w.factors[:j] + ((coeffs, a - 1),) * (a > 1) \
                + w.factors[j + 1:]
            lower = ProductWitness(w.ambient_dim, lowered)
            assert lower.degree == r.alpha - 1
            assert membership(lower, scheme, r.k) is False
            assert membership(lower.expand(), scheme, r.k) is False


def test_product_witness_validates_its_factors():
    ProductWitness(2, (((1, 0, 0), 2),))
    for factors in ((), (((1, 0), 1),), (((0, 0, 0), 1),),
                    (((1, 0, 0), 0),)):
        with pytest.raises(ValidationError):
            ProductWitness(2, factors)
    with pytest.raises(ValidationError, match="ambient dimension"):
        membership(ProductWitness(3, (((1, 0, 0, 0), 1),)),
                   star_configuration(2, 2, 4, seed=1), 1)
