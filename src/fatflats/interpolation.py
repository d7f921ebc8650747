"""Vanishing-order conditions, exact ranks, and initial degrees.

A form F of degree d lies in I(L)^kappa iff, after the adapted coordinate
change that sends L to {w_0 = ... = w_{e-1} = 0}, every monomial of F
with degree < kappa in the first e adapted variables has coefficient
zero.  Each original monomial is expanded in adapted coordinates by
multinomial expansion; the expansions are built incrementally (degree by
degree, one linear multiplication each), which is what keeps the search
over candidate degrees cheap.

One degree search, over a table of k, serves two lanes that share nothing
but the pivot discipline: numpy int64 over F_p (default; one prime
searches, a second confirms only the answer degrees, and a k re-runs over
Q only when it refutes its degree) and Fraction/Bareiss over Q.  Each k
starts past the previous answer, so one set of tables per prime serves
every k.  The F_p tables expand through an integral coordinate change, so
each F_p condition matrix reduces an integer matrix whose rows span the
same space over Q as the Fraction conditions; its rank mod p is at most
its rank over Q, so full column rank mod p proves the lower bound.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import numpy as np

from .errors import CapExceededError, ValidationError
from .linalg import rank_kernel_modp, rank_kernel_rational
from .projective import Subspace, complete_basis
from .scalars import DEFAULT_PRIMES
from .schemes import FatFlatScheme, symbolic_multiplicities


# -- monomial bookkeeping ------------------------------------------------------

@lru_cache(maxsize=None)
def monomial_basis(nvars: int, degree: int):
    """Degree-d exponent tuples in graded-lex order (x_0 largest)."""
    def gen(n, d):
        if n == 1:
            yield (d,)
            return
        for first in range(d, -1, -1):
            for rest in gen(n - 1, d - first):
                yield (first,) + rest
    return tuple(gen(nvars, degree))


@lru_cache(maxsize=None)
def monomial_index(nvars: int, degree: int):
    return {m: i for i, m in enumerate(monomial_basis(nvars, degree))}


@lru_cache(maxsize=None)
def _shift_map(nvars: int, degree: int, var: int):
    """Index map: basis(d) position -> basis(d+1) position of exp + e_var."""
    idx = monomial_index(nvars, degree + 1)
    out = np.empty(len(monomial_basis(nvars, degree)), dtype=np.int64)
    for i, m in enumerate(monomial_basis(nvars, degree)):
        bumped = m[:var] + (m[var] + 1,) + m[var + 1:]
        out[i] = idx[bumped]
    return out


@lru_cache(maxsize=None)
def _parent_groups(nvars: int, degree: int):
    """Group degree-d monomials by first nonzero variable j; each entry is
    (j, row_indices_in_basis_d, parent_indices_in_basis_{d-1})."""
    idx_prev = monomial_index(nvars, degree - 1)
    groups = {}
    for i, m in enumerate(monomial_basis(nvars, degree)):
        j = next(v for v, exp in enumerate(m) if exp)
        parent = m[:j] + (m[j] - 1,) + m[j + 1:]
        groups.setdefault(j, ([], []))
        groups[j][0].append(i)
        groups[j][1].append(idx_prev[parent])
    return tuple((j, np.array(rows, dtype=np.int64), np.array(par, dtype=np.int64))
                 for j, (rows, par) in sorted(groups.items()))


def condition_row_count(e: int, kappa: int, d: int, N: int) -> int:
    """Closed-form number of order-kappa conditions in degree d."""
    return sum(comb(t + e - 1, e - 1) * comb(d - t + N - e, N - e)
               for t in range(min(kappa, d + 1)))


def _selected_betas(nvars, d, e, kappa):
    """Indices of adapted monomials with degree < kappa in the first e vars."""
    basis = monomial_basis(nvars, d)
    return [i for i, m in enumerate(basis) if sum(m[:e]) < kappa]


# -- adapted-coordinate expansion tables ---------------------------------------

def _integral_change(sub: Subspace):
    """``complete_basis(sub).inverse`` with column j times c_j, the lcm of
    its denominators.  Scaling column j by c_j multiplies condition row
    beta by prod c_j^beta_j != 0, so over Q the row space, rank and kernel
    are unchanged, and over F_p too when p divides no c_j."""
    inverse = complete_basis(sub).inverse
    scales = [lcm(*(x.denominator for x in col)) for col in zip(*inverse)]
    return [[int(x * c) for x, c in zip(row, scales)] for row in inverse]


class _NewestDegree:
    """Keeps the newest degree only; a request below it raises ValueError."""

    def table(self, d: int):
        if d < self._degree:
            raise ValueError(f"table is at degree {self._degree}, not {d}")
        while self._degree < d:
            self._build_next()
        return self._table


class AdaptedTablesModP(_NewestDegree):
    """Per-subspace expansion tables mod p: ``table(d)[i, j]`` is the
    coefficient of the j-th adapted monomial in the expansion of the i-th
    original degree-d monomial."""

    def __init__(self, sub: Subspace, p: int):
        self.p = p
        self.nvars = sub.ambient_dim + 1
        self.e = sub.codim
        self.B = np.array(
            [[x % p for x in row] for row in _integral_change(sub)],
            dtype=np.int64)
        self._degree, self._table = 0, np.ones((1, 1), dtype=np.int64)

    def _build_next(self):
        d, prev = self._degree + 1, self._table
        nv, p = self.nvars, self.p
        n_d = len(monomial_basis(nv, d))
        T = np.zeros((n_d, n_d), dtype=np.int64)
        for j, rows, parents in _parent_groups(nv, d):
            src = prev[parents]
            acc = np.zeros((len(rows), n_d), dtype=np.int64)
            for k in range(nv):
                c = int(self.B[j, k])
                if c:
                    sm = _shift_map(nv, d - 1, k)
                    acc[:, sm] = (acc[:, sm] + c * src % p) % p
            T[rows] = acc
        self._degree, self._table = d, T

    def block(self, d: int, kappa: int):
        """Condition rows annihilating exactly the degree-d part of I^kappa."""
        sel = _selected_betas(self.nvars, d, self.e, kappa)
        return np.ascontiguousarray(self.table(d)[:, sel].T)


class AdaptedTablesQQ(_NewestDegree):
    """Rational twin of :class:`AdaptedTablesModP` (sparse dicts)."""

    def __init__(self, sub: Subspace):
        self.nvars = sub.ambient_dim + 1
        self.e = sub.codim
        change = complete_basis(sub)
        self.B = [list(row) for row in change.inverse]
        zero = (0,) * self.nvars
        self._degree, self._table = 0, {zero: {zero: Fraction(1)}}

    def _build_next(self):
        d, prev = self._degree + 1, self._table
        nv = self.nvars
        out = {}
        for m in monomial_basis(nv, d):
            j = next(v for v, exp in enumerate(m) if exp)
            parent = m[:j] + (m[j] - 1,) + m[j + 1:]
            src = prev[parent]
            poly = {}
            for k in range(nv):
                c = self.B[j][k]
                if c == 0:
                    continue
                for beta, coeff in src.items():
                    bumped = beta[:k] + (beta[k] + 1,) + beta[k + 1:]
                    val = poly.get(bumped, Fraction(0)) + c * coeff
                    if val:
                        poly[bumped] = val
                    elif bumped in poly:
                        del poly[bumped]
            out[m] = poly
        self._degree, self._table = d, out

    def block(self, d: int, kappa: int):
        """Condition rows as dense Fraction lists (rows x monomials)."""
        basis = monomial_basis(self.nvars, d)
        sel = [basis[i] for i in _selected_betas(self.nvars, d, self.e, kappa)]
        tab = self.table(d)
        return [[tab[m].get(beta, Fraction(0)) for m in basis] for beta in sel]


# -- forms ---------------------------------------------------------------------

@dataclass(frozen=True)
class Form:
    """A homogeneous form as a sparse coefficient dict over the monomial
    basis.  ``field`` is 'rational' or the prime p of its coefficients."""

    ambient_dim: int
    degree: int
    coeffs: tuple  # sorted ((exponents, coeff), ...)
    field: object = "rational"

    @staticmethod
    def from_dict(ambient_dim, degree, coeffs, field="rational"):
        items = tuple(sorted((tuple(k), v) for k, v in coeffs.items() if v))
        for exps, _ in items:
            if len(exps) != ambient_dim + 1 or sum(exps) != degree:
                raise ValidationError("exponent tuple inconsistent with degree")
        return Form(ambient_dim, degree, items, field)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self):
        return dict(self.coeffs)

    def dense(self):
        """Coefficient vector over the graded-lex degree-d basis."""
        idx = monomial_index(self.ambient_dim + 1, self.degree)
        if self.field == "rational":
            vec = [Fraction(0)] * len(idx)
            for exps, c in self.coeffs:
                vec[idx[exps]] = Fraction(c)
            return vec
        vec = np.zeros(len(idx), dtype=np.int64)
        for exps, c in self.coeffs:
            vec[idx[exps]] = c % self.field
        return vec


def form_product(factors):
    """Exact expansion of a product of powers of linear forms."""
    factors = [(f, int(k)) for f, k in factors]
    if not factors:
        raise ValidationError("empty product")
    n = factors[0][0].ambient_dim
    if any(f.ambient_dim != n for f, _ in factors):
        raise ValidationError("ambient dimension mismatch")
    product = Form.from_dict(n, 0, {(0,) * (n + 1): Fraction(1)})
    units = [tuple(int(i == v) for i in range(n + 1)) for v in range(n + 1)]
    for f, k in factors:
        linear = Form.from_dict(n, 1, dict(zip(units, f.coeffs)))
        for _ in range(k):
            product = multiply_forms(product, linear)
    return product


def multiply_forms(f: Form, g: Form) -> Form:
    """Sparse product of two forms in the same field mode."""
    if f.ambient_dim != g.ambient_dim or f.field != g.field:
        raise ValidationError("form modes differ")
    out = {}
    for ea, ca in f.coeffs:
        for eb, cb in g.coeffs:
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    if f.field != "rational":
        out = {k: v % f.field for k, v in out.items()}
    return Form.from_dict(f.ambient_dim, f.degree + g.degree, out, f.field)


# -- alpha of symbolic powers --------------------------------------------------

@dataclass
class AlphaRecord:
    """alpha(I^(k)) with provenance: witness, field mode, cap status."""

    k: int
    alpha: int = None
    witness: Form = None
    field_mode: str = "modp"
    degree_cap: int = 0
    degree_cap_hit: bool = False
    primes: tuple = None
    escalated: bool = False

    @property
    def resolved(self) -> bool:
        return self.alpha is not None


def default_degree_cap(scheme: FatFlatScheme, k: int) -> int:
    """First d >= max(orders) with more monomials than order conditions,
    C(d+N, N) > sum_i condition_row_count(e_i, k*mu_i, d, N): then I^(k)
    has a nonzero form of degree d over every field, so a search resolves."""
    n = scheme.ambient_dim
    comps = symbolic_multiplicities(scheme, k)
    d = max(kappa for _, kappa in comps)
    while comb(d + n, n) <= sum(condition_row_count(sub.codim, kappa, d, n)
                                for sub, kappa in comps):
        d += 1
    return d


def _modp_apply(matrix, vector, p):
    """matrix @ vector mod p without int64 overflow: entries are < p < 2^31,
    so each product fits in int64 and the reduced products sum safely."""
    return (matrix * (vector[None, :] % p) % p).sum(axis=1) % p


def _stack_modp(tables, orders, d):
    return np.vstack([t.block(d, kappa) for t, kappa in zip(tables, orders)])


def _stack_rational(tables, orders, d):
    return [row for t, kappa in zip(tables, orders) for row in t.block(d, kappa)]


def _kernel_modp(tables, orders, d):
    """A kernel vector of the degree-d condition matrix mod p, or None at
    full column rank: then no form of degree d exists over Q either."""
    p = tables[0].p
    M = _stack_modp(tables, orders, d)
    _, kernel = rank_kernel_modp(M, p)
    if kernel is not None and (_modp_apply(M, kernel, p) != 0).any():
        raise AssertionError("kernel vector failed verification")
    return kernel


def _kernel_rational(tables, orders, d):
    """A kernel vector of the degree-d condition matrix over Q, or None."""
    ncols = len(monomial_basis(tables[0].nvars, d))
    return rank_kernel_rational(_stack_rational(tables, orders, d), ncols=ncols)[1]


def _first_kernels(tables, records, orders, floors, kernel_at):
    """{k: the least degree d <= cap with a kernel vector, and that vector,
    or (None, None)}, each k starting past the previous: see alpha_table."""
    found, j, b = {}, 0, 0  # alpha(I^(0)) = 0
    for record in records:
        k, cap = record.k, record.degree_cap
        start = max(floors[k], b + k - j)
        tried = ((d, kernel_at(tables, orders[k], d))
                 for d in range(start, cap + 1))
        found[k] = next((t for t in tried if t[1] is not None), (None, None))
        j, b = k, found[k][0] or max(start, cap + 1)
    return found


def alpha_table(scheme: FatFlatScheme, ks, mode: str = "modp",
                degree_cap: int = None, primes=DEFAULT_PRIMES) -> list:
    """One :class:`AlphaRecord` (alpha(I^(k)) with witness) per k of the
    strictly increasing sequence ``ks``.  modp mode: the first prime p1
    searches every k on one set of tables; the second, on its own tables,
    eliminates only at each answer d; full rank there re-runs that k over Q
    (``escalated``) from d + 1, as rational mode runs every k.

    k starts at max(max(orders), b + k - j), b the proved lower bound of the
    previous record j.  Proof: full rank mod p1 on [start, d - 1] proves
    alpha(I^(j)) >= d over Q, whatever p2 says (each F_p matrix reduces an
    integer matrix with the Q row space); an unresolved record proves
    alpha(I^(j)) > cap.  A form F != 0 in I^(k) has a first partial != 0
    (Euler), of order >= k*mu_i - 1 >= (k-1)*mu_i on each flat, so
    alpha(I^(k)) >= alpha(I^(k-1)) + 1 >= alpha(I^(j)) + k - j.
    """
    if any(j >= k for j, k in zip([0, *ks], ks)):
        raise ValidationError(f"need 1 <= k1 < k2 < ..., not {list(ks)}")
    if degree_cap is not None and degree_cap < 1:
        raise ValidationError("degree cap must be >= 1")
    if mode not in ("modp", "rational"):
        raise ValidationError(f"unknown mode {mode!r}")
    p1, p2 = primes
    if p1 == p2:
        raise ValidationError(f"the two primes must differ, not {p1} twice")
    records = [AlphaRecord(k=k, field_mode=mode, degree_cap=degree_cap or
                           default_degree_cap(scheme, k)) for k in ks]
    orders = {k: [kappa for _, kappa in symbolic_multiplicities(scheme, k)]
              for k in ks}
    floors = {k: max(kappas) for k, kappas in orders.items()}
    subs = [c.subspace for c in scheme.components]
    found = {}
    if mode == "modp":
        found = _first_kernels([AdaptedTablesModP(sub, p1) for sub in subs],
                               records, orders, floors, _kernel_modp)
        tables = [AdaptedTablesModP(sub, p2) for sub in subs]
        for record in records:
            k, d, record.primes = record.k, found[record.k][0], (p1, p2)
            if d is not None and _kernel_modp(tables, orders[k], d) is None:
                # Full rank mod p1 below d and mod p2 at d prove alpha > d.
                record.field_mode, record.escalated = "rational", True
                floors[k] = d + 1
    redo = [r for r in records if r.field_mode == "rational"]
    if redo:
        tables = [AdaptedTablesQQ(sub) for sub in subs]  # frees p2's
        found.update(_first_kernels(tables, redo, orders, floors,
                                    _kernel_rational))
    for record in records:
        d, kernel = found[record.k]
        record.degree_cap_hit = d is None
        if d is not None:
            field = p1 if record.field_mode == "modp" else "rational"
            basis = monomial_basis(scheme.ambient_dim + 1, d)
            coeffs = {basis[i]: v if field == "rational" else int(v)
                      for i, v in enumerate(kernel) if v}
            record.alpha, record.witness = d, Form.from_dict(
                scheme.ambient_dim, d, coeffs, field)
    return records


def alpha_symbolic(scheme: FatFlatScheme, k: int, mode: str = "modp",
                   degree_cap: int = None, primes=DEFAULT_PRIMES) -> AlphaRecord:
    """alpha(I^(k)) with witness: the one-k :func:`alpha_table`."""
    return alpha_table(scheme, [k], mode, degree_cap, primes)[0]


def require_alpha(record: AlphaRecord) -> int:
    if not record.resolved:
        raise CapExceededError(
            f"alpha(I^({record.k})) unresolved below degree cap {record.degree_cap}")
    return record.alpha


def membership(form: Form, scheme: FatFlatScheme, k: int) -> bool:
    """True iff every order-(k*mu_i) condition annihilates the form."""
    if form.ambient_dim != scheme.ambient_dim:
        raise ValidationError("ambient dimension mismatch")
    if form.is_zero:
        raise ValidationError("the zero form is not a membership witness")
    comps = symbolic_multiplicities(scheme, k)
    d = form.degree
    vec = form.dense()
    if form.field == "rational":
        for sub, kappa in comps:
            for row in AdaptedTablesQQ(sub).block(d, kappa):
                if sum(r * v for r, v in zip(row, vec) if v) != 0:
                    return False
        return True
    p = form.field
    for sub, kappa in comps:
        block = AdaptedTablesModP(sub, p).block(d, kappa)
        if block.size and (_modp_apply(block, vec, p) != 0).any():
            return False
    return True
