import gc
import importlib.util
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from pathlib import Path

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
    monomial_eval,
    multiply_forms,
    require_alpha,
)
from fatflats.linalg import rank_kernel_modp, rank_kernel_rational
from fatflats.projective import (
    LinForm,
    Subspace,
    components_on,
    hyperplane_through,
    normalize_point,
    point_subspace,
)
from fatflats.scalars import DEFAULT_PRIMES
from fatflats.serialization import load_json, scheme_from_dict
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
    symbolic_multiplicities,
)
from fatflats.verification import _theorem_a_instance

DATA = Path(__file__).parent / "data"

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
    pts = [normalize_point(c.subspace.basis[0]) for c in scheme.components]
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


def test_integral_change_adapts_subspace():
    """The change's columns are the unit vectors at the pivots, then the
    flat's primitive points: the columns of the Fraction inverse of the
    forms completed by unit rows, each times the lcm of its denominators.
    A line of P^3 whose RREF has denominators 9 and 3, and a plane."""
    line = Subspace(3, [LinForm([-1, 4, -2, 1]), LinForm([3, -3, -4, 3])])
    assert _integral_change(line) == [[1, 0, 22, -5], [0, 1, 10, -2],
                                      [0, 0, 9, 0], [0, 0, 0, 3]]
    plane = Subspace(3, [LinForm([0, 4, -1, -1])])
    assert _integral_change(plane) == [[0, 1, 0, 0], [1, 0, 1, 1],
                                       [0, 0, 4, 0], [0, 0, 0, 4]]


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
        v1, v2 = (sum(c * x for c, x in zip(f.coeffs, pt)) for f in (f1, f2))
        direct = v1 ** 2 * v2
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
    assert record.witness is None
    assert record.primes == DEFAULT_PRIMES and record.field_mode == "modp"
    with pytest.raises(CapExceededError):
        require_alpha(record)
    record = alpha_symbolic(scheme, 1, mode="rational", degree_cap=3)
    assert record.degree_cap_hit and record.witness is None
    assert record.primes is None and record.field_mode == "rational"
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


# Five points of P^2 with no three collinear: alpha(I^(k)) = 2k (the conic
# to the k-th power), while a product of lines, each through at most two
# of them, needs degree 3 at k = 1.  No hyperplane product closes their k,
# so they keep the kernel search and its primes.
FIVE_POINTS = ((0, 0, 1), (1, 0, 1), (0, 1, 1), (2, 1, 1), (1, 3, 1))


def test_bad_prime_replacement():
    # The adapted coordinate change for (1, -p1, 0) has an entry with
    # denominator p1.  The mod-p tables reduce the integral change, so p1
    # itself still runs: no prime is replaced.
    p1 = DEFAULT_PRIMES[0]
    points = ((1, -p1, 0),) + FIVE_POINTS[1:]
    config = FatPointsP2(points, [1] * 5)
    scheme = config.to_scheme()
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 2
    assert record.primes == DEFAULT_PRIMES
    assert not record.escalated and record.field_mode == "modp"
    assert record.witness.field == p1
    assert membership(record.witness, scheme, 1)
    # The conic through the five points, with integer coefficients,
    # reduced mod p1: xy - xz - yz + z^2.
    rows = [[monomial_eval(pt, m) for m in monomial_basis(3, 2)]
            for pt in points]
    _, conic = rank_kernel_rational(rows)
    conic = [int(c * lcm(*(x.denominator for x in conic))) for c in conic]
    assert record.witness.as_dict() == {(1, 1, 0): 1, (1, 0, 1): p1 - 1,
                                        (0, 1, 1): p1 - 1, (0, 0, 2): 1}
    w, i = record.witness.coeffs, monomial_basis(3, 2).index((1, 1, 0))
    assert conic[i] % p1
    assert all((w[j] * conic[i] - conic[j] * w[i]) % p1 == 0
               for j in range(len(w)))


def _no_peel(monkeypatch):
    """Switch the peel off: alpha_table then eliminates at every degree it
    scans, as it did before the peel."""
    monkeypatch.setattr(interpolation, "_peels", lambda *args: False)


def _scaled_five_points(q):
    """FIVE_POINTS with y scaled by q: mod q the line y = 0 passes through
    the five points; over Q no three are collinear and alpha is 2, below
    their least line product, of degree 3."""
    return FatPointsP2([(x, q * y, z) for x, y, z in FIVE_POINTS],
                       [1] * 5).to_scheme()


def _count_rational_degrees(monkeypatch):
    """The degrees at which the Q lane eliminates, recorded from now on."""
    rational_degrees = []
    kernel_rational = interpolation._kernel_rational

    def counting(tables, orders, d):
        rational_degrees.append(d)
        return kernel_rational(tables, orders, d)

    monkeypatch.setattr(interpolation, "_kernel_rational", counting)
    return rational_degrees


@pytest.mark.parametrize("q", DEFAULT_PRIMES, ids=PRIME_IDS)
def test_second_prime_confirms_or_escalates(q, monkeypatch):
    # With the peel off, the first prime eliminates at degree 1, where a
    # bad prime errs (test_peel_removes_the_escalation has the peel on).
    scheme = _scaled_five_points(q)
    rational_degrees = _count_rational_degrees(monkeypatch)
    _no_peel(monkeypatch)
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
        # 2, where a conic exists mod q too (the points reduce to three on
        # one line).
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
    for ks in ([0, 1], [2, 2], [3, 1], [], range(3, 2), iter([])):
        with pytest.raises(ValidationError):
            alpha_table(scheme, ks)


def test_alpha_table_reads_an_iterator_once(star25):
    """ks may be an iterator: it gives the table of the same list."""
    table = alpha_table(star25, iter([1, 2]))
    assert [r.alpha for r in table] == [4, 5]
    assert table == alpha_table(star25, [1, 2])


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


def test_alpha_table_builds_each_table_once(star25, search_log,
                                            monkeypatch):
    """With the peel off (it proves every degree below these answers
    empty, and no table is made).  S_2(2,5) for k <= 4: each k starts
    past the previous answer and at its star floor ceil(5k/2) (its
    star_core is (2, 5, 1)), and stops below its balanced line product,
    of degree 4, 5, 9, 10.  So the first prime eliminates only
    3 | - | 8 | -, where it finds full rank, the products
    close every k, and the second prime eliminates nothing; the ten points
    take their rows in closed form and build no table degree.  The six
    lines of S_3(2,4) for k <= 4 (floor 2k, products of degree 3, 4, 7,
    8): the first prime eliminates 2 | - | 6 | -, and each line builds
    its first-prime table only, at degrees 1..6 in order.  A double line
    and six points in P^3 for k <= 3 (no star, and no hyperplane product
    closes any of these k): the line gets one table per prime, built
    upward one degree at a time up to the last degree that prime
    eliminates; the points build none."""
    scheme = star25
    eliminated, built = search_log
    _no_peel(monkeypatch)
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

    scheme = _line_and_six_points(2, (1, 2, 1, 2, 1, 2))
    eliminated.clear()
    built.clear()
    table = alpha_table(scheme, (1, 2, 3))
    assert [r.alpha for r in table] == [4, 8, 11]
    assert all(isinstance(r.witness, Form) for r in table)
    assert [d for p, d in eliminated if p == p1] == list(range(2, 12))
    assert [d for p, d in eliminated if p == p2] == [4, 8, 11]
    assert all(t.point is None for t, _ in built)
    for p in DEFAULT_PRIMES:
        assert len({id(t) for t, _ in built if t.p == p}) == 1
        assert [d for t, d in built if t.p == p] == list(range(1, 12))


def _line_and_six_points(line_multiplicity, multiplicities):
    """A line of P^3 with six points off it.  Its catalog planes each hold
    the line and one point, or three points, so at k = 1 with every
    multiplicity 1 a plane product has degree 3, above alpha = 2."""
    line = Subspace(3, [LinForm([1, 2, -1, 3]), LinForm([0, 1, 4, -2])])
    points = ((1, -2, 0, 1), (3, 1, Fraction(1, 2), 1), (2, 5, -3, 1),
              (-1, 4, 2, 1), (0, 3, 7, 1), (5, -2, 1, 1))
    return FatFlatScheme(3, (FatComponent(line, line_multiplicity),) + tuple(
        FatComponent(point_subspace(pt), mu)
        for pt, mu in zip(points, multiplicities)))


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
    of five points with no three collinear (eliminated at each degree,
    since no line product closes their k) and the exact membership of its
    witnesses build no table degree and no coordinate change.  A line in
    P^3 still expands its coordinate change, one table degree at a time."""
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
    scheme = FatPointsP2(FIVE_POINTS, [1] * 5).to_scheme()
    table = alpha_table(scheme, range(1, 4), mode="rational")
    assert [r.alpha for r in table] == [2, 4, 6]
    assert all(isinstance(r.witness, Form) for r in table)
    assert all(membership(r.witness, scheme, r.k) for r in table)
    assert built == [] and changed == []

    scheme = _line_and_six_points(1, [1] * 6)
    (record,) = alpha_table(scheme, [1], mode="rational")
    assert record.alpha == 2 and isinstance(record.witness, Form)
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
def test_star_product_is_sound_and_tight(name, monkeypatch):
    """The star product gives the alpha table of the same components
    without their star, which takes the search with no upper bracket (its
    catalog products are switched off here), in both lanes.  Each product
    witness keeps its factors, expands to an integral form and passes
    exact membership (over Q, up to the rational lane's largest k; the
    mod-p lane's witness at such k is the same product)."""
    scheme, k_modp, k_rational = _PRODUCT_SCHEMES[name]
    starless = FatFlatScheme(scheme.ambient_dim, scheme.components)
    monkeypatch.setattr(interpolation, "_least_cover", lambda *args: None)
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
def test_alpha_table_matches_one_k_searches(q, monkeypatch):
    """The table gives each k the record of its own search from max(orders),
    also when the second prime refutes every answer (q = p1: the points are
    collinear mod p1, and alpha is 2, 3, 5 over Q) and under a cap that
    leaves k = 3 unresolved.  The peel is off: it proves the degrees where
    p1 errs empty, and no answer would be refuted."""
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, q, 1)],
                         [1, 1, 1]).to_scheme()
    _no_peel(monkeypatch)
    for mode, cap in (("modp", None), ("rational", None), ("modp", 4)):
        table = alpha_table(scheme, (1, 2, 3), mode=mode, degree_cap=cap)
        single = [alpha_symbolic(scheme, k, mode=mode, degree_cap=cap)
                  for k in (1, 2, 3)]
        assert table == single
        expected = [2, 3, None] if cap else [2, 3, 5]
        assert [r.alpha for r in table] == expected
        if mode == "modp":
            assert all(r.escalated == (q == DEFAULT_PRIMES[0]) for r in table)


def test_a_refuted_kernel_can_close_by_its_product(monkeypatch):
    """The points of test_alpha_table_matches_one_k_searches at q = p1,
    peel off: mod p1 they are collinear, so the first prime finds a kernel
    below each k's line product, the second prime refutes it, and the
    rescan over Q closes k by the product.  Each record is escalated, with
    primes (p1, p2), and has that product as its witness, a member of
    I^(k)."""
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (0, DEFAULT_PRIMES[0], 1)],
                         [1, 1, 1]).to_scheme()
    _no_peel(monkeypatch)
    table = alpha_table(scheme, (1, 2, 3))
    assert [r.alpha for r in table] == [2, 3, 5]
    for r in table:
        assert isinstance(r.witness, ProductWitness)
        assert r.primes == DEFAULT_PRIMES and r.field_mode == "rational"
        assert r.escalated
        assert membership(r.witness, scheme, r.k)


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
                    (((1, 0, 0), 0),), (((Fraction(1, 2), 0, 0), 1),)):
        with pytest.raises(ValidationError):
            ProductWitness(2, factors)
    with pytest.raises(ValidationError, match="ambient dimension"):
        membership(ProductWitness(3, (((1, 0, 0, 0), 1),)),
                   star_configuration(2, 2, 4, seed=1), 1)


# -- hyperplane products without a star ---------------------------------------

def test_hyperplane_through_points():
    """N independent integer points of P^N span one hyperplane: primitive,
    with a positive leading entry, vanishing at each point; dependent
    points give None."""
    rng = random.Random(3)
    spanned = 0
    for n in (2, 3, 4):
        for _ in range(20):
            points = [tuple(rng.randint(-2, 2) for _ in range(n + 1))
                      for _ in range(n)]
            h = hyperplane_through(points)
            if rank_kernel_rational(points)[0] < n:
                assert h is None
                continue
            spanned += 1
            assert all(sum(x * y for x, y in zip(h, v)) == 0 for v in points)
            assert gcd(*h) == 1 and next(x for x in h if x) > 0
    assert spanned > 30
    assert hyperplane_through([(1, 2, 3), (-2, -4, -6)]) is None
    assert hyperplane_through([(1, 0, 0), (0, 1, 0)]) == (0, 0, 1)


def test_catalog_keeps_one_hyperplane_per_maximal_set():
    """Four points of P^2, the first three on the line y = 0: the catalog
    has that line once (three pairs span it) and one line through the
    fourth point and each other one; no line holds a set inside another's."""
    scheme = FatPointsP2([(0, 0, 1), (1, 0, 1), (3, 0, 1), (0, 2, 1)],
                         [1] * 4).to_scheme()
    spans = [c.subspace.spans for c in scheme.components]
    catalog = interpolation._hyperplane_catalog(spans, 2)
    assert sorted(on for _, on in catalog) == [(0, 1, 2), (0, 3), (1, 3),
                                               (2, 3)]
    for h, on in catalog:
        assert components_on(h, spans) == on
    assert dict((on, h) for h, on in catalog)[(0, 1, 2)] == (0, 1, 0)


def test_least_cover_is_least():
    """Against brute force over every multiset of sets: the least size of
    a cover, or None when some demanded component is on no set."""
    rng = random.Random(8)
    for _ in range(40):
        ncomp = rng.randint(2, 5)
        sets = sorted({tuple(sorted(rng.sample(range(ncomp),
                                               rng.randint(1, ncomp))))
                       for _ in range(rng.randint(1, 4))})
        demand = [rng.randint(0, 3) for _ in range(ncomp)]
        counts = interpolation._least_cover(sets, demand, 0, 9)
        least = next((t for t in range(10) for chosen in
                      combinations_with_replacement(range(len(sets)), t)
                      if all(sum(c in sets[j] for j in chosen) >= d
                             for c, d in enumerate(demand))), None)
        if least is None:
            assert counts is None
            continue
        assert sum(counts) == least
        assert all(sum(a for on, a in zip(sets, counts) if c in on) >= d
                   for c, d in enumerate(demand))


def test_least_cover_leaves_no_garbage():
    """The search's memo is freed when it returns: one call leaves
    nothing for the cycle collector."""
    gc.collect()
    gc.disable()
    try:
        counts = interpolation._least_cover(
            [(0, 1), (1, 2), (0, 2), (0,), (2,)], [3, 3, 3], 1, 20)
        assert sum(counts) == 5
        assert gc.collect() == 0
    finally:
        gc.enable()


def _seeded_flat_schemes():
    """Seeded schemes without a star: points of P^2 with small coordinates
    (so some lie on one line), and points and lines of P^3."""
    rng = random.Random(26)
    schemes = []
    while len(schemes) < 12:
        n = 2 if len(schemes) < 6 else 3
        lines = 0 if n == 2 else 1 + len(schemes) % 2
        comps = []
        try:
            for i in range(rng.randint(3, 7) if n == 2 else lines + 3):
                if i < lines:
                    sub = Subspace(3, [LinForm([rng.randint(-3, 3)
                                                for _ in range(4)])
                                       for _ in range(2)])
                else:
                    sub = point_subspace(tuple(rng.randint(-3, 3)
                                               for _ in range(n)) + (1,))
                comps.append(FatComponent(sub, rng.randint(1, 3 - n + 1)))
            schemes.append(FatFlatScheme(n, tuple(comps)))
        except (ValidationError, ValueError):
            continue
    return schemes


@pytest.mark.parametrize("mode,k_max", [("modp", 3), ("rational", 2)])
def test_catalog_products_match_the_plain_search(mode, k_max, monkeypatch):
    """On seeded starless schemes, alpha_table with its hyperplane
    products equals the search with no product (``_hyperplane_products``
    switched off): every alpha, and every record that a kernel closed,
    field, primes and witness included.  Each product witness passes
    membership, and at degree <= 6 its expansion passes Form membership
    too.  Some k close by a product, some by a kernel."""
    ks = range(1, k_max + 1)
    schemes = _seeded_flat_schemes()
    tables = [alpha_table(scheme, ks, mode=mode) for scheme in schemes]
    monkeypatch.setattr(interpolation, "_hyperplane_products",
                        lambda *args: {})
    kinds = set()
    for scheme, table in zip(schemes, tables):
        plain = alpha_table(scheme, ks, mode=mode)
        assert [r.alpha for r in table] == [r.alpha for r in plain]
        for r, q in zip(table, plain):
            kinds.add(type(r.witness))
            if isinstance(r.witness, Form):
                assert r == q
                continue
            assert r.primes is None and r.field_mode == mode
            assert r.witness.degree == r.alpha
            assert membership(r.witness, scheme, r.k)
            if r.alpha <= 6:
                assert membership(r.witness.expand(), scheme, r.k)
    assert kinds == {Form, ProductWitness}


def test_multiply_forms_across_witness_kinds():
    """Two products merge their factors unexpanded; a product times a Form
    is the expanded product times it, reduced mod p for a Form mod p, in
    either order."""
    p = DEFAULT_PRIMES[0]
    f = ProductWitness(2, (((1, 0, 0), 2), ((0, 1, -1), 1)))
    g = ProductWitness(2, (((0, 1, -1), 2), ((1, 1, 1), 1)))
    fg = multiply_forms(f, g)
    assert isinstance(fg, ProductWitness)
    assert fg.factors == (((1, 0, 0), 2), ((0, 1, -1), 3), ((1, 1, 1), 1))
    assert fg.expand() == multiply_forms(f.expand(), g.expand())

    h = Form.from_dict(2, 1, {(0, 0, 1): Fraction(1, 2), (1, 0, 0): -3})
    assert multiply_forms(f, h) == multiply_forms(h, f) == \
        multiply_forms(f.expand(), h)
    assert multiply_forms(f, h).denominator == 2

    h_p = Form.from_dict(2, 1, {(0, 0, 1): 3, (0, 1, 0): p - 2}, field=p)
    f_p = Form.from_values(2, 3, f.expand().coeffs, p)
    assert any(c < 0 for c in f.expand().coeffs)
    assert multiply_forms(f, h_p) == multiply_forms(h_p, f) == \
        multiply_forms(f_p, h_p)
    assert multiply_forms(f, h_p).field == p

    with pytest.raises(ValidationError):
        multiply_forms(f, ProductWitness(3, (((1, 0, 0, 0), 1),)))
    with pytest.raises(ValidationError):
        multiply_forms(h, h_p)


def test_alpha_table_makes_tables_on_first_use(monkeypatch):
    """Each prime's tables are made at its first elimination.  On
    ``star_2_2_5.json`` for k <= 4 with the peel off, the first prime
    eliminates at degrees 3 and 8 (see
    test_alpha_table_builds_each_table_once), so each of the ten points
    gets one first-prime table, and the star products close every k, so no
    second-prime table is made; with the peel on, it proves degrees 3 and
    8 empty, and no table is made.  On 2*S_4(4,5) for k <= 4 the products
    close every k at its star floor: no table at all, in either lane."""
    made = []
    for cls in (AdaptedTablesModP, AdaptedTablesQQ):
        init = cls.__init__

        def counting(self, *args, init=init):
            init(self, *args)
            made.append(self.p)

        monkeypatch.setattr(cls, "__init__", counting)
    scheme = scheme_from_dict(load_json(DATA / "star_2_2_5.json"))
    table = alpha_table(scheme, range(1, 5))
    assert [r.alpha for r in table] == [4, 5, 9, 10]
    assert made == []
    with monkeypatch.context() as patch:
        _no_peel(patch)
        table = alpha_table(scheme, range(1, 5))
    assert [r.alpha for r in table] == [4, 5, 9, 10]
    assert made == [DEFAULT_PRIMES[0]] * 10

    made.clear()
    target = build_rational_target(4, 10)
    for mode in ("modp", "rational"):
        table = alpha_table(target, range(1, 5), mode=mode)
        assert [r.alpha for r in table] == [3, 5, 8, 10]
    assert made == []


# -- Bézout peeling ------------------------------------------------------------

def _line_of_p3(*forms):
    return Subspace(3, [LinForm(f) for f in forms])


def _fat_scheme(n, *components):
    """The scheme of (subspace or point coordinates, multiplicity) pairs."""
    return FatFlatScheme(n, tuple(
        FatComponent(sub if isinstance(sub, Subspace) else
                     point_subspace(sub), mu) for sub, mu in components))


# name: a starless scheme whose peel reads each rule.
_PEEL_SCHEMES = {
    # Four points on y = 0: the line takes their orders' sum.
    "collinear points": FatPointsP2(
        [(0, 0, 1), (1, 0, 1), (2, 0, 1), (5, 0, 1), (0, 1, 1), (1, 2, 1)],
        [2, 1, 1, 2, 1, 1]).to_scheme(),
    # {x0 = x1 = 0} and {x0 = x2 = 0} meet at (0, 0, 0, 1); the plane
    # 7x0 + x1 - 3x2 = 0 through it holds the three points and neither
    # line, so on it both lines restrict to that one point.
    "two lines of P^3 meeting at a point": _fat_scheme(
        3, (_line_of_p3([1, 0, 0, 0], [0, 1, 0, 0]), 1),
        (_line_of_p3([1, 0, 0, 0], [0, 0, 1, 0]), 1),
        ((1, 2, 3, 1), 1), ((1, -1, 2, 3), 1), ((1, -7, 0, 5), 1)),
    # The line through (1, 1, 0, 0) and (1, 2, 3, 1) meets the plane
    # x3 = 0 of three points at a point on the line through two of them.
    "a point on a line": _fat_scheme(
        3, (_line_of_p3([1, -1, 0, 1], [0, 0, 1, -3]), 2),
        ((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((0, 0, 1, 0), 1),
        ((0, 1, 1, 1), 1)),
    # On the plane x3 = 0, the point (1, 1, 0) and the line through
    # (1, 0, 0) and (0, 1, 1) have one Plücker vector, (1, 1, 0): they are
    # two flats of that plane, not one.
    "a point and a line with one Plucker vector": _fat_scheme(
        3, (_line_of_p3([0, 1, -1, 0], [0, 0, 0, 1]), 1),
        ((1, 1, 0, 0), 2), ((2, -1, 5, 0), 2), ((1, 2, 3, 1), 1)),
    # The plane x3 = 0 holds the line x2 = x3 = 0 and three points: on it
    # the line is a divisor, taken to its order at once.
    "a plane holding a line and points": _fat_scheme(
        3, (_line_of_p3([0, 0, 1, 0], [0, 0, 0, 1]), 2),
        ((1, 2, 1, 0), 1), ((2, -1, 3, 0), 1), ((0, 1, -2, 0), 1),
        ((1, 1, 1, 1), 1)),
}


def _orders(scheme, k):
    return [kappa for _, kappa in symbolic_multiplicities(scheme, k)]


@pytest.mark.parametrize("name", sorted(_PEEL_SCHEMES))
def test_peel_proves_every_empty_degree_of_these_schemes(name):
    """On each named scheme, for k <= 3, the peel proves every degree
    below alpha empty, and each of them has full rank over Q; at alpha it
    proves nothing."""
    scheme = _PEEL_SCHEMES[name]
    geometry = interpolation._Geometry(scheme)
    for record in alpha_table(scheme, (1, 2, 3)):
        orders = _orders(scheme, record.k)
        tables = [AdaptedTablesQQ(c.subspace) for c in scheme.components]
        for d in range(record.alpha):
            assert geometry.peels(orders, d)
            assert interpolation._kernel_rational(tables, orders, d) is None
        assert not geometry.peels(orders, record.alpha)


def test_restrictions_that_coincide_are_one_flat():
    """The two meeting lines restrict to one point of the plane through
    their meeting point and the three points, and to two flats of every
    other catalog plane."""
    space = interpolation._Geometry(
        _PEEL_SCHEMES["two lines of P^3 meeting at a point"]).space
    images = [dict(pairs) for _, _, pairs in space.hyperplanes]
    assert sum(image[0] == image[1] for image in images) == 1


def test_peel_proves_only_full_rank_degrees():
    """On the seeded starless schemes of P^2 and P^3 (points, and lines
    of P^3 that may meet), every degree up to alpha that the peel proves
    empty has full rank over Q, and alpha is never one of them."""
    proved = 0
    for scheme in _seeded_flat_schemes():
        geometry = interpolation._Geometry(scheme)
        for record in alpha_table(scheme, (1, 2)):
            orders = _orders(scheme, record.k)
            tables = [AdaptedTablesQQ(c.subspace) for c in scheme.components]
            for d in range(record.alpha + 1):
                if geometry.peels(orders, d):
                    proved += 1
                    assert d < record.alpha
                    assert interpolation._kernel_rational(
                        tables, orders, d) is None
    assert proved > 50


@pytest.mark.parametrize("mode,k_max", [("modp", 3), ("rational", 2)])
def test_peel_keeps_every_record(mode, k_max, monkeypatch):
    """With the peel and with it switched off, alpha_table gives equal
    records (alpha, witness, field and primes) on the seeded and the
    named starless schemes, in both lanes."""
    ks = range(1, k_max + 1)
    schemes = _seeded_flat_schemes() + list(_PEEL_SCHEMES.values())
    tables = [alpha_table(scheme, ks, mode=mode) for scheme in schemes]
    _no_peel(monkeypatch)
    for scheme, table in zip(schemes, tables):
        assert table == alpha_table(scheme, ks, mode=mode)


def test_peel_removes_the_escalation(search_log, monkeypatch):
    """FIVE_POINTS with y scaled by p1, as in
    test_second_prime_confirms_or_escalates, with the peel on: the line
    through two of the points carries orders 2 > 1, so degree 1 is empty,
    and the first prime, which finds a line mod p1 there, eliminates only
    at degree 2.  alpha is 2 as before, with no escalation and no run over
    Q."""
    p1 = DEFAULT_PRIMES[0]
    scheme = _scaled_five_points(p1)
    rational_degrees = _count_rational_degrees(monkeypatch)
    assert interpolation._Geometry(scheme).peels([1] * 5, 1)
    record = alpha_symbolic(scheme, 1)
    assert record.alpha == 2 and membership(record.witness, scheme, 1)
    assert record.primes == DEFAULT_PRIMES
    assert not record.escalated and record.field_mode == "modp"
    assert search_log[0] == [(p1, 2), (DEFAULT_PRIMES[1], 2)]
    assert rational_degrees == []


def test_peel_geometry_is_made_on_first_use(monkeypatch):
    """The peel's space is made at the first degree that would otherwise
    be eliminated, once per scheme: never on 2*S_4(4,5), whose products
    close every k at its floor, and once on S_2(2,5) for k <= 4, whose
    first prime would eliminate at degrees 3 and 8; a second alpha_table
    call on the same star makes no space."""
    made = []
    space = interpolation._Space

    def recording(spans, n, catalog):
        made.append(n)
        return space(spans, n, catalog)

    monkeypatch.setattr(interpolation, "_Space", recording)
    target = build_rational_target(4, 10)
    for mode in ("modp", "rational"):
        assert [r.alpha for r in alpha_table(target, range(1, 5), mode=mode)] \
            == [3, 5, 8, 10]
    assert made == []
    star = scheme_from_dict(load_json(DATA / "star_2_2_5.json"))
    assert [r.alpha for r in alpha_table(star, range(1, 5))] == [4, 5, 9, 10]
    assert [n for n in made if n == 2] == [2]  # the lines' spaces are P^1
    made.clear()
    assert [r.alpha for r in alpha_table(star, range(1, 5))] == [4, 5, 9, 10]
    assert made == []


def test_one_geometry_per_scheme(monkeypatch):
    """alpha_symbolic for k = 1, 2, 3 on one starless scheme builds its
    catalog and its peel space once, for all three calls, and once more
    after ``_geometry.cache_clear()``."""
    scheme = _PEEL_SCHEMES["two lines of P^3 meeting at a point"]
    n, made = scheme.ambient_dim, []
    catalog, space = interpolation._hyperplane_catalog, interpolation._Space

    def catalog_recording(spans, dim):
        made.append(("catalog", dim))
        return catalog(spans, dim)

    def space_recording(spans, dim, planes):
        made.append(("space", dim))
        return space(spans, dim, planes)

    monkeypatch.setattr(interpolation, "_hyperplane_catalog",
                        catalog_recording)
    monkeypatch.setattr(interpolation, "_Space", space_recording)
    for _ in range(2):
        made.clear()
        assert [alpha_symbolic(scheme, k).alpha for k in (1, 2, 3)] == \
            [r.alpha for r in alpha_table(scheme, (1, 2, 3))]
        assert [m for m in made if m[1] == n] == [("catalog", n), ("space", n)]
        interpolation._geometry.cache_clear()


@pytest.mark.parametrize("mode", ["modp", "rational"])
def test_warm_geometry_keeps_every_record(mode):
    """A scheme's geometry, warmed by its k = 3 call, gives the records of
    a cold one for k = 1..3, on the seeded and the named starless schemes,
    in both lanes."""
    for scheme in _seeded_flat_schemes() + list(_PEEL_SCHEMES.values()):
        interpolation._geometry.cache_clear()
        cold = alpha_table(scheme, (1, 2, 3), mode=mode)
        interpolation._geometry.cache_clear()
        alpha_table(scheme, [3], mode=mode)
        assert alpha_table(scheme, (1, 2, 3), mode=mode) == cold


def test_geometry_memo_keeps_only_the_last_scheme():
    """A call on another scheme drops the first one's geometry."""
    second = _PEEL_SCHEMES["two lines of P^3 meeting at a point"]
    alpha_symbolic(_PEEL_SCHEMES["collinear points"], 1)
    alpha_symbolic(second, 1)
    assert len(interpolation._last) == 1
    assert interpolation._last[0].scheme is second


def test_the_harness_cache_clearing_empties_the_geometry_memo(monkeypatch):
    """perfbench/run.py's ``_clear_caches``, which starts each benchmark
    pass cold, runs without error and leaves no scheme geometry kept."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # run.py imports tracing
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    alpha_symbolic(_PEEL_SCHEMES["collinear points"], 2)
    assert interpolation._last
    run._clear_caches()
    assert not interpolation._last
