"""Vanishing-order conditions, exact ranks, and initial degrees.

A form F of degree d lies in I(L)^kappa iff, after the adapted coordinate
change that sends L to {w_0 = ... = w_{e-1} = 0}, every monomial of F
with degree < kappa in the first e adapted variables has coefficient
zero.  Each original monomial is expanded in adapted coordinates by
multinomial expansion; the expansions are built incrementally (degree by
degree, one linear multiplication each), which is what keeps the search
over candidate degrees cheap.  A point needs no expansion: in both lanes
its conditions are its Hasse derivatives of order min(kappa, d + 1) - 1,
whose entries are integers in closed form at any degree (see
:func:`_hasse_rows`).

One degree search, over a table of k, serves two lanes that share the
pivot discipline and one row path per component kind: a flat expands
one integral coordinate change, a point takes integral Hasse rows.
They run in int64 over F_p (default; one prime searches, a second
confirms only the kernel degrees, and a k re-runs over Q only when it
refutes its degree) and in Python ints with Bareiss over Q.  Each k
starts past the previous answer and only scans upward, so one set of
tables per prime serves every k, each table built once, and made at the
first elimination.  A product prod H_j^(a_j) of hyperplanes bounds the
scan from above by counting orders: along a component c it vanishes to
order sum_{H_j ⊇ c} a_j (order along a linear flat is a valuation, and
a hyperplane has order 1 along each flat it holds), so it lies in I^(k)
once that sum is >= k*mu_c for each c, and alpha(I^(k)) <= its degree.
The hyperplanes are the star's, with balanced exponents, on a scheme
with a star, and otherwise a catalog of the hyperplanes spanned by the
components' spanning points, with the least cover.  When every degree
below it is empty, the product is the answer's rational witness, and no
second prime runs.

Most empty degrees are proved by a Bézout peel, with no matrix at all
(Dumnicki 2006 for lines of P^2; Dumnicki–Harbourne–Szemberg–
Tutaj-Gasińska, Adv. Math. 252 (2014), for flats of P^N).  Lemma: let
F != 0 of degree d vanish to order kappa_c along each flat c, and let H
be a hyperplane on which the restricted system is empty in degree d.
Then H divides F, and F/H has degree d - 1 and order >= kappa_c - 1
along each c on H.  Proof: the restriction F|H has degree d and order
>= kappa_c along c for c in H, and along c ∩ H for c not in H (the
linear forms of I(c) restrict into I(c ∩ H)); where restrictions
coincide it owes the largest of their orders, never their sum.  The
system is empty, so F|H = 0, and H | F; order is a valuation, as above.
Emptiness on H is proved by the same rule one dimension down, where a
flat of codimension 1 in H is a hyperplane of H and so divides F|H to
its order; in P^1, where flats are points, that says the orders of
distinct points sum past d.  A peel ends, and proves the degree empty,
only when d < 0 or d < the largest order left: a nonzero form of degree
d has order <= d at every point.  Emptiness is monotone in d, as a form
of lower degree times a power of a linear form has degree d.  Nothing
else is ever taken as a proof of emptiness: no genericity argument
(random coordinates are not general position), no expected or virtual
dimension, and no curve that is not irreducible (only hyperplanes
peel).  A degree the peel does not prove is eliminated.

Each F_p condition matrix reduces an integer matrix whose rows span the
same space over Q as the adapted conditions, the matrix the Q lane
eliminates.  Its rank mod p is at most its rank over Q, so full column
rank mod p proves the lower bound.  A kernel witness is a :class:`Form`,
integer numerators over one denominator; a product witness is a
:class:`ProductWitness`, the product's factors, expanded only on demand.
Membership is exact for both: a Form's numerators meet the condition
rows, a product adds its factors' orders.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd, lcm

import numpy as np

from .errors import CapExceededError, ValidationError
from .linalg import rank_kernel_modp, rank_kernel_rational
from .projective import LinForm, Subspace, complete_basis
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


def monomial_eval(point, exponents):
    """The monomial with the given exponents at an exact point."""
    out = Fraction(1)
    for x, m in zip(point, exponents):
        out *= x ** m
    return out


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


def _mod(x, p):
    """x mod p, or x itself when there is no prime (Python ints over Q)."""
    return x if p is None else x % p


# -- points: Hasse rows in closed form -----------------------------------------

@lru_cache(maxsize=None)
def _exponents(nvars: int, degree: int):
    """``monomial_basis(nvars, degree)`` as an int64 array, one row each."""
    return np.array(monomial_basis(nvars, degree), dtype=np.int64)


def _primitive(v):
    """A rational vector with a coordinate 1 (a point's ``basis[0]``, a
    ``LinForm``'s coefficients) times the lcm of its denominators: a
    primitive integer vector."""
    scale = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (scale // x.denominator) for x in v)


def _primitive_point(sub: Subspace):
    """The point of a codim-N ``sub`` as a primitive integer vector."""
    return _primitive(sub.basis[0])


def _hasse_rows(point, d: int, kappa: int, p):
    """Order-r Hasse derivatives at ``point`` of the degree-d monomials,
    r = min(kappa, d + 1) - 1, mod p, or in Python ints (object arrays)
    when p is None: row beta (|beta| = r) and column m
    (``monomial_basis(N+1, d)``) hold prod C(m_i, beta_i) P_i^(m_i - beta_i),
    0 when some beta_i > m_i.

    Over Q these rows span the order-kappa conditions at P.  F vanishes to
    order kappa at P iff D^beta F(P) = 0 for |beta| < kappa (Taylor).
    D^beta F is a form of degree d - |beta|, and Euler's relation for it
    reads (d - |beta|) D^beta F(P) = sum_i (beta_i + 1) P_i D^(beta+e_i) F(P),
    so for |beta| < r <= d the order-r rows imply the lower ones.  At
    kappa > d, r = d and the rows are the identity: no nonzero form of
    degree < kappa vanishes to order kappa.  A fat point imposes
    independent conditions in degree d >= kappa - 1, so there are
    C(r + N, N) = ``condition_row_count(N, kappa, d, N)`` rows, as many
    as the adapted conditions, and the expanded rows of
    :meth:`_ExpansionTables.expanded_block` span the same space over Q:
    the two have one null space, one RREF and one normalised kernel.  The
    rows mod p reduce the integer rows (P is integral), so full column
    rank mod p proves full column rank over Q.

    One gather per variable from the (d+1) x (r+1) table
    C(a, b) P_i^(a - b), the Pascal table times the powers of P_i; mod p
    each product of two residues < p < 2^23 is below 2^46 and is reduced
    at once."""
    r = min(kappa, d + 1) - 1
    cols, rows = _exponents(len(point), d), _exponents(len(point), r)
    pascal, shift = _pascal_table(d, r, p)
    out = None
    for i, x in enumerate(point):
        x, powers = _mod(x, p), [1]
        for _ in range(d):
            powers.append(_mod(powers[-1] * x, p))
        table = _mod(pascal * np.array(powers, dtype=pascal.dtype)[shift], p)
        factor = table.T[rows[:, i]][:, cols[:, i]]
        out = factor if out is None else _mod(out * factor, p)
    return out


@lru_cache(maxsize=None)
def _pascal_table(d: int, r: int, p):
    """C(a, b) mod p (int64), or C(a, b) (Python ints) when p is None, for
    a <= d, b <= r (0 above the diagonal), and the int64 exponents
    max(a - b, 0) of the matching powers, as (d+1) x (r+1) arrays."""
    a, b = np.ogrid[:d + 1, :r + 1]
    pascal = np.array([[_mod(comb(i, j), p) for j in range(r + 1)]
                       for i in range(d + 1)],
                      dtype=object if p is None else np.int64)
    return pascal, np.maximum(a - b, 0)


class _ExpansionTables:
    """Per-subspace condition rows, in int64 mod ``self.p``, or in Python
    ints (object arrays) when p is None.  A point's rows are its
    :func:`_hasse_rows`, in closed form, and it builds no table.  A flat
    reads its rows off expansion tables through its ``_integral_change``
    ``B``: ``table(d)[i, j]`` is the coefficient of the j-th adapted
    monomial in the expansion of the i-th original degree-d monomial;
    only the newest d is kept, and a lower d raises ValueError.  Either
    way the rows reduce one integer matrix with the row space over Q of
    the adapted conditions, so full column rank mod p proves the lower
    bound, and the witness, the second prime and :func:`membership` all
    read the same rows.  Each lane names ``__init__``, ``_build_next``
    and ``block`` in its class body, for tracing."""

    def __init__(self, sub: Subspace, p):
        self.p = p
        self.sub = sub
        self.nvars = sub.ambient_dim + 1
        self.e = sub.codim
        self.point = _primitive_point(sub) if sub.is_point else None
        self._degree, self._table = 0, np.ones(
            (1, 1), dtype=object if p is None else np.int64)

    @cached_property
    def B(self):
        """``_integral_change``, mod p when there is a prime, made on the
        first table degree, so a point never makes it."""
        return [[_mod(x, self.p) for x in row]
                for row in _integral_change(self.sub)]

    def table(self, d: int):
        if d < self._degree:
            raise ValueError(f"table is at degree {self._degree}, not {d}")
        while self._degree < d:
            self._build_next()
        return self._table

    def _build_next(self):
        """One degree up: a degree-d monomial is x_j times its parent,
        j its first variable, and x_j = sum_k B[j][k] w_k, so its row is
        the sum over k of the parent's row shifted by w_k, times B[j][k]."""
        d, prev, nv, p = self._degree + 1, self._table, self.nvars, self.p
        n_d = len(monomial_basis(nv, d))
        T = np.zeros((n_d, n_d), dtype=prev.dtype)
        for j, rows, parents in _parent_groups(nv, d):
            src = prev[parents]
            acc = np.zeros((len(rows), n_d), dtype=prev.dtype)
            for k, c in enumerate(self.B[j]):
                if c:
                    # Mod p: at most N + 1 terms, each below p^2 < 2^46.
                    acc[:, _shift_map(nv, d - 1, k)] += c * src
            T[rows] = _mod(acc, p)
        self._degree, self._table = d, T

    def expanded_block(self, d: int, kappa: int):
        """Condition rows annihilating exactly the degree-d part of
        I^kappa, read off the expansion table; valid for every subspace."""
        sel = _selected_betas(self.nvars, d, self.e, kappa)
        return np.ascontiguousarray(self.table(d)[:, sel].T)

    def block(self, d: int, kappa: int):
        """Condition rows annihilating exactly the degree-d part of I^kappa."""
        if self.point is not None:
            return _hasse_rows(self.point, d, kappa, self.p)
        return self.expanded_block(d, kappa)


class AdaptedTablesModP(_ExpansionTables):
    """Per-subspace condition rows mod p, a prime below 2^23."""

    __init__ = _ExpansionTables.__init__
    _build_next = _ExpansionTables._build_next
    block = _ExpansionTables.block


class AdaptedTablesQQ(_ExpansionTables):
    """Per-subspace condition rows over Q, as integer rows: those of
    :class:`AdaptedTablesModP` before the reduction mod p."""

    def __init__(self, sub: Subspace):
        super().__init__(sub, None)

    _build_next = _ExpansionTables._build_next
    block = _ExpansionTables.block


# -- forms ---------------------------------------------------------------------

def _pack(nums) -> bytes:
    """Integers, each in as many bytes (little-endian two's complement) as
    the largest needs."""
    width = max(c.bit_length() // 8 + 1 for c in nums)
    return b"".join(c.to_bytes(width, "little", signed=True) for c in nums)


def _unpack(packed: bytes, count: int) -> tuple:
    """The ``count`` integers that :func:`_pack` wrote."""
    width = len(packed) // count
    return tuple(int.from_bytes(packed[i:i + width], "little", signed=True)
                 for i in range(0, len(packed), width))


@dataclass(frozen=True, slots=True)
class Form:
    """A homogeneous form of degree d in N + 1 variables: integer
    numerators over ``monomial_basis(N + 1, d)``, in that order, and
    ``denominator``, the lcm of its coefficients' reduced denominators,
    so equal forms are equal records.  ``field`` is 'rational' or the
    prime p of its coefficients, residues in [0, p) over denominator 1.
    ``packed`` holds the numerators (:func:`_pack`), and ``coeffs`` reads
    them out: a record keeps its dense witness, at a third or less of the
    memory of a tuple of ints."""

    ambient_dim: int
    degree: int
    packed: bytes
    denominator: int = 1
    field: object = "rational"

    @staticmethod
    def from_values(ambient_dim, degree, values, field="rational"):
        """The form with coefficients ``values`` over the basis, a kernel
        vector included: ints or Fractions over Q, ints reduced mod p."""
        if field != "rational":
            den, nums = 1, [int(v) % field for v in values]
        else:
            den = lcm(*(v.denominator for v in values))
            nums = [v.numerator * (den // v.denominator) for v in values]
        return Form(ambient_dim, degree, _pack(nums), den, field)

    @staticmethod
    def from_dict(ambient_dim, degree, coeffs, field="rational"):
        """The form with ``coeffs[exponents]`` at those monomials, 0 at the
        others."""
        if ambient_dim < 0 or degree < 0:
            raise ValidationError(
                f"no form of degree {degree} in {ambient_dim + 1} variables")
        index = monomial_index(ambient_dim + 1, degree)
        values = [0] * len(index)
        for exps, v in coeffs.items():
            i = index.get(tuple(exps))
            if i is None:
                raise ValidationError(
                    f"exponent tuple {tuple(exps)} is not a monomial of "
                    f"degree {degree} in {ambient_dim + 1} variables")
            values[i] = v
        return Form.from_values(ambient_dim, degree, values, field)

    @property
    def coeffs(self):
        """The numerators, a tuple over the basis."""
        n = self.ambient_dim
        return _unpack(self.packed, comb(self.degree + n, n))

    def terms(self):
        """The nonzero (exponents, coefficient) pairs, in basis order; a
        rational coefficient is an int when the denominator is 1."""
        den = self.denominator
        for exps, c in zip(monomial_basis(self.ambient_dim + 1, self.degree),
                           self.coeffs):
            if c:
                yield exps, c if den == 1 else Fraction(c, den)

    def as_dict(self):
        return dict(self.terms())


def form_product(factors):
    """Exact expansion of a product of powers of linear forms, each a
    ``LinForm`` or its N+1 coefficients; integer coefficients give an
    integral product."""
    factors = [(f.coeffs if isinstance(f, LinForm) else tuple(f), int(k))
               for f, k in factors]
    if not factors:
        raise ValidationError("empty product")
    n = len(factors[0][0]) - 1
    if any(len(f) != n + 1 for f, _ in factors):
        raise ValidationError("ambient dimension mismatch")
    product = Form.from_values(n, 0, [1])
    for f, k in factors:
        linear = Form.from_values(n, 1, f)  # the degree-1 basis is x_0..x_n
        for _ in range(k):
            product = multiply_forms(product, linear)
    return product


def multiply_forms(f, g):
    """Product of two witnesses: two :class:`Form` in the same field mode,
    or two :class:`ProductWitness`, whose factors merge unexpanded (equal
    coefficients add their exponents).  A ProductWitness times a Form is
    first expanded, and reduced mod p when the Form is mod p."""
    if f.ambient_dim != g.ambient_dim:
        raise ValidationError("form modes differ")
    if isinstance(f, ProductWitness) and isinstance(g, ProductWitness):
        merged = {}
        for coeffs, a in f.factors + g.factors:
            merged[coeffs] = merged.get(coeffs, 0) + a
        return ProductWitness(f.ambient_dim, tuple(merged.items()))
    f, g = _expanded(f, g.field), _expanded(g, f.field)
    if f.field != g.field:
        raise ValidationError("form modes differ")
    out, g_terms = {}, list(g.terms())
    for ea, ca in f.terms():
        for eb, cb in g_terms:
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return Form.from_dict(f.ambient_dim, f.degree + g.degree, out, f.field)


@dataclass(frozen=True, init=False, repr=False, slots=True)
class ProductWitness:
    """A product prod H_j^(a_j) of linear forms, kept as its factors:
    ``ProductWitness(ambient_dim, factors)``, ``factors`` ((integer
    coefficients of H_j, a_j), ...), each H_j nonzero and each a_j >= 1.
    It is an integral form over Q of degree sum a_j; :meth:`expand` writes
    it out as a :class:`Form`, whose terms a product of high degree has
    millions of.  A record keeps it as a Form keeps its numerators: the
    exponents, and every coefficient in ``packed`` (:func:`_pack`), which
    ``factors`` reads out.  The witness of a k that a hyperplane product
    closes is one, its factors in :attr:`_Geometry.hyperplanes` order."""

    ambient_dim: int
    exponents: tuple
    packed: bytes
    field = "rational"

    def __init__(self, ambient_dim, factors):
        if not factors:
            raise ValidationError("a product needs at least one factor")
        for coeffs, a in factors:
            if len(coeffs) != ambient_dim + 1:
                raise ValidationError(
                    f"factor {list(coeffs)} is not a linear form in "
                    f"{ambient_dim + 1} variables")
            if not all(isinstance(x, int) for x in coeffs):
                raise ValidationError(
                    f"factor {list(coeffs)} has a non-integer coefficient")
            if not any(coeffs):
                raise ValidationError("a factor is the zero form")
            if a < 1:
                raise ValidationError(f"factor exponent {a} is below 1")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "exponents", tuple(a for _, a in factors))
        object.__setattr__(self, "packed", _pack(
            [x for coeffs, _ in factors for x in coeffs]))

    def __repr__(self):
        return f"ProductWitness({self.ambient_dim}, {self.factors})"

    @property
    def factors(self) -> tuple:
        """((coefficients of H_j, a_j), ...), as given."""
        n, exponents = self.ambient_dim + 1, self.exponents
        coeffs = _unpack(self.packed, n * len(exponents))
        return tuple((coeffs[n * j:n * j + n], a)
                     for j, a in enumerate(exponents))

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def expand(self) -> Form:
        return form_product(self.factors)


def _expanded(form, field):
    """A :class:`ProductWitness` as a :class:`Form` in ``field``: its
    integral expansion, reduced mod p when ``field`` is a prime p.  A Form
    is returned as it is."""
    if not isinstance(form, ProductWitness):
        return form
    out = form.expand()
    if field == "rational":
        return out
    return Form.from_values(out.ambient_dim, out.degree, out.coeffs, field)


# -- alpha of symbolic powers --------------------------------------------------

@dataclass(slots=True)
class AlphaRecord:
    """alpha(I^(k)) with provenance: witness, field mode, cap status.

    ``field_mode`` is the lane that answered ("modp", or "rational" for
    the rational lane and for an escalated k), and ``primes`` the mod-p
    lane's primes when they ran on this k.  The witness of a searched k is
    its kernel :class:`Form`, mod the first prime or over Q.  A k that a
    hyperplane product closes has that product as its witness, a
    :class:`ProductWitness` (rational and integral, never expanded unless
    asked).  If the call's own scan closed it, it keeps the call's lane,
    and ``primes`` None: no prime confirmed it.  If the second prime
    refuted its first-prime kernel and the rescan over Q then closed it,
    it reads "rational" with ``primes`` (p1, p2): ``escalated``."""

    k: int
    alpha: int = None
    witness: object = None
    field_mode: str = "modp"
    degree_cap: int = 0
    primes: tuple = None

    @property
    def resolved(self) -> bool:
        return self.alpha is not None

    @property
    def degree_cap_hit(self) -> bool:
        """No form of degree <= degree_cap: the search is unresolved."""
        return self.alpha is None

    @property
    def escalated(self) -> bool:
        """A modp search whose second prime sent the answer to Q."""
        return self.primes is not None and self.field_mode == "rational"


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
    """matrix @ vector mod p without int64 overflow: entries are < p < 2^23,
    so each product is below 2^46 and the reduced products sum safely for
    any column count."""
    return (matrix * (vector[None, :] % p) % p).sum(axis=1) % p


def _stack_modp(tables, orders, d):
    return np.vstack([t.block(d, kappa) for t, kappa in zip(tables, orders)])


def _stack_rational(tables, orders, d):
    return [row for t, kappa in zip(tables, orders)
            for row in t.block(d, kappa).tolist()]


def _kernel_modp(tables, orders, d):
    """A kernel vector of the degree-d condition matrix mod p, or None at
    full column rank: then no form of degree d exists over Q either."""
    p = tables[0].p
    M = _stack_modp(tables, orders, d)
    kernel = rank_kernel_modp(M, p)[1]
    if kernel is not None and (_modp_apply(M, kernel, p) != 0).any():
        raise AssertionError("kernel vector failed verification")
    return kernel


def _kernel_rational(tables, orders, d):
    """A kernel vector of the degree-d condition matrix over Q, or None."""
    ncols = len(monomial_basis(tables[0].nvars, d))
    return rank_kernel_rational(_stack_rational(tables, orders, d),
                                ncols=ncols)[1]


# -- hyperplane products: upper bounds by counting orders ----------------------

# Past this many N-subsets of spanning points a scheme gets no catalog.
_CATALOG_SUBSETS = 4000
# Search nodes per k before the least-product search gives that k up.
_PRODUCT_NODES = 2000


def _spanning_points(scheme: FatFlatScheme):
    """Each component's spanning points, as primitive integer vectors."""
    return [[_primitive(v) for v in c.subspace.basis]
            for c in scheme.components]


def _components_on(h, spans):
    """The indices of the components that the hyperplane with integer
    coefficients ``h`` contains: h vanishes at each of their spanning
    points, in Python ints."""
    return tuple(i for i, points in enumerate(spans)
                 if not any(sum(x * y for x, y in zip(h, v)) for v in points))


def _wedge(points):
    """{column r-subset: minor}, the maximal minors of r integer vectors
    (the coordinates of v_1 ∧ ... ∧ v_r), built one row at a time by
    Laplace expansion along the newest row; all 0 iff the v_i are
    dependent."""
    n = len(points[0])
    minors = {(): 1}
    for r, v in enumerate(points):
        wedge = {}
        for cols in combinations(range(n), r + 1):
            total, sign = 0, 1 - 2 * (r & 1)  # (-1)^(r + i) from i = 0
            for i, j in enumerate(cols):
                total += sign * v[j] * minors[cols[:i] + cols[i + 1:]]
                sign = -sign
            wedge[cols] = total
        minors = wedge
    return minors


def _normalized(v):
    """An integer vector divided by its gcd, signed so that its first
    nonzero entry is positive; None for the zero vector."""
    g = gcd(*v)
    if not g:
        return None
    sign = 1 if next(x for x in v if x) > 0 else -1
    return tuple(sign * x // g for x in v)


def _hyperplane_through(points):
    """The hyperplane det(x, v_1, ..., v_N) = 0 through N integer points
    of P^N, as primitive integer coefficients with a positive leading
    entry, or None when the points are dependent.  Expanded along x, its
    coefficients are the signed maximal minors of the v_i."""
    n = len(points[0])
    minors = _wedge(points)
    return _normalized([(1 - 2 * (i & 1))
                        * minors[tuple(c for c in range(n) if c != i)]
                        for i in range(n)])


def _hyperplane_catalog(spans, n):
    """[(h, on)]: one hyperplane h through N independent spanning points
    per maximal set ``on`` of the components it contains, the first found
    in ``combinations`` order; [] when there are more than
    ``_CATALOG_SUBSETS`` N-subsets.  A hyperplane whose set lies in
    another's is left out: swapping it for that one keeps any product
    covered."""
    vectors = [v for points in spans for v in points]
    if comb(len(vectors), n) > _CATALOG_SUBSETS:
        return []
    found = {}
    for chosen in combinations(vectors, n):
        h = _hyperplane_through(chosen)
        if h is not None:
            found.setdefault(_components_on(h, spans), h)
    sets = [set(on) for on in found]
    return [(h, on) for (on, h), held in zip(found.items(), sets)
            if on and not any(held < other for other in sets)]


def _least_cover(sets, demand, low, cap):
    """Counts a_j of the least multiset of ``sets`` (tuples of component
    indices) that holds each component c at least demand[c] times, of
    size in [low, cap]; None when there is none, or when the search has
    spent ``_PRODUCT_NODES`` nodes without finding one.

    Iterative deepening on the size t, a depth-first search at each t.  It
    branches on the component of largest unmet demand, over the sets that
    hold it (each cover has one), trying first the sets that hold the most
    components still short, then the most unmet demand.  It prunes a
    residual r when r failed with as many sets before, or when a lower
    bound on its size exceeds the sets left: max(r), and ceil(sum_c r_c /
    w_c), w_c the most components still short on one set through c (the
    LP dual y_c = 1/w_c is feasible, as a set holds at most w_c short
    components)."""
    through = [[j for j, on in enumerate(sets) if c in on]
               for c in range(len(demand))]
    if any(d and not through[c] for c, d in enumerate(demand)):
        return None
    scale = lcm(*range(1, max(len(on) for on in sets) + 1))
    failed, nodes = {}, 0

    def cover(residual, t):
        nonlocal nodes
        if not any(residual):
            return []
        if failed.get(residual, -1) >= t or nodes >= _PRODUCT_NODES:
            return None
        short = [sum(residual[i] > 0 for i in on) for on in sets]
        dual = sum(r * (scale // max(short[j] for j in through[c]))
                   for c, r in enumerate(residual) if r)
        if max(max(residual), -(-dual // scale)) > t:
            failed[residual] = t
            return None
        nodes += 1
        c = max(range(len(residual)), key=residual.__getitem__)
        for j in sorted(through[c], key=lambda j: (
                -short[j], -sum(residual[i] for i in sets[j]))):
            rest = list(residual)
            for i in sets[j]:
                rest[i] -= rest[i] > 0
            chosen = cover(tuple(rest), t - 1)
            if chosen is not None:
                return chosen + [j]
        failed[residual] = t  # past the budget, the whole search fails
        return None

    demand, chosen = tuple(demand), None
    for t in range(low, cap + 1):
        chosen = cover(demand, t)
        if chosen is not None or nodes >= _PRODUCT_NODES:
            break
    del cover  # it refers to itself: free it and its memo now
    if chosen is None:
        return None
    return [chosen.count(j) for j in range(len(sets))]


def _balanced_cover(sets, demand, low, cap):
    """Counts a_j = q + (j < r) of the least total T = q*s + r in [low,
    cap] that hold each component c at least demand[c] times, the s
    ``sets`` in their order; None when there is none.  Each a_j only grows
    with T, so the first covered T is the least.  For the pure star
    m*S_N(e, s) that is the least degree of any star product, since for a
    fixed total the e smallest entries sum highest when the entries differ
    by at most one."""
    for total in range(low, cap + 1):
        q, r = divmod(total, len(sets))
        counts = [q + (j < r) for j in range(len(sets))]
        if all(sum(a for a, on in zip(counts, sets) if c in on) >= need
               for c, need in enumerate(demand)):
            return counts
    return None


def _hyperplane_products(geometry, records, orders, floors):
    """{k: the product of ``geometry.hyperplanes`` whose exponents their
    rule finds, a :class:`ProductWitness` in I^(k) by the module
    docstring's count}, for the ks it covers at a degree from floors[k]
    to the cap."""
    planes, sets, rule = geometry.hyperplanes
    if len(set().union(*sets)) < len(geometry.spans):
        return {}  # a component on no hyperplane: no product
    products = {}
    for record in records:
        k = record.k
        counts = rule(sets, orders[k], floors[k], record.degree_cap)
        if counts is not None:
            products[k] = ProductWitness(geometry.n, tuple(
                (h, a) for h, a in zip(planes, counts) if a))
    return products


# -- Bézout peeling: empty degrees without elimination -------------------------

def _meet(points, h):
    """Independent integer vectors spanning span(points) ∩ {h = 0}, for
    independent ``points`` not all on h: with a_i = h(v_i) != 0, the
    a_i v_j - a_j v_i for j != i.  [] for a point off h."""
    values = [sum(x * y for x, y in zip(h, v)) for v in points]
    i = next(i for i, a in enumerate(values) if a)
    return [tuple(values[i] * x - a * y for x, y in zip(v, points[i]))
            for j, (a, v) in enumerate(zip(values, points)) if j != i]


class _Space:
    """The flats of a P^n, each as independent integer spanning vectors,
    with the geometry :func:`_peels` reads, all in Python ints:

    - ``divisors``: each flat g of codimension 1, with the other flats
      inside it;
    - ``hyperplanes``: for each hyperplane H of ``catalog``, the flats on
      H, the space of H ≅ P^(n-1) (see :func:`_restrict`), and the pairs
      (flat, flat of H it restricts to, None for all of H)."""

    def __init__(self, spans, n, catalog):
        self.size = len(spans)
        self.divisors = []
        for g, points in enumerate(spans):
            if len(points) == n:  # in P^1 a point, which holds no other
                on = _components_on(_hyperplane_through(points), spans) \
                    if n > 1 else ()
                self.divisors.append((g, [i for i in on if i != g]))
        self.hyperplanes = [(on, *_restrict(spans, n, h, on))
                            for h, on in catalog]


def _restrict(spans, n, h, on):
    """(space of H, pairs) for the hyperplane H = {h = 0} of P^n holding
    the flats ``on``.  A flat on H is itself; a flat c off H gives c ∩ H,
    one dimension less (:func:`_meet`), and nothing for a point off H.
    Coordinates on H drop the first coordinate where h is nonzero, which h
    determines from the others.  Restrictions that coincide, by their
    dimension and primitive Plücker vector (:func:`_wedge`; a point and a
    line of P^2 can share one), are one flat of H.  H's own catalog is
    that of its flats, in P^2 and up; in P^1 every flat is a divisor."""
    c = next(i for i, x in enumerate(h) if x)
    held, keys, flats, pairs = set(on), {}, [], []
    for i, points in enumerate(spans):
        cut = points if i in held else _meet(points, h)
        if not cut:
            continue
        cut = [_normalized(v[:c] + v[c + 1:]) for v in cut]
        if len(cut) == n:
            pairs.append((i, None))
            continue
        key = len(cut), _normalized(list(_wedge(cut).values()))
        j = keys.setdefault(key, len(flats))
        if j == len(flats):
            flats.append(cut)
        pairs.append((i, j))
    catalog = _hyperplane_catalog(flats, n - 1) if n > 2 else []
    return _Space(flats, n - 1, catalog), pairs


def _peels(space, orders, d) -> bool:
    """True when peeling proves that no nonzero form of degree d on the
    space vanishes to order orders[i] along each flat i; False when it
    stalls, which proves nothing (the lemma and its proof are in the
    module docstring).

    Each flat g of codimension 1 divides first, to its order a: d drops
    by a, and each flat inside g loses a.  Then, while d >= every order,
    it divides by a catalog hyperplane H whose restricted system is
    empty in degree d, asked of H's space recursively: d drops by 1, and
    each flat on H loses 1.  The restricted system gives each flat of H
    the largest order of the flats restricting to it; a flat that is all
    of H with order > 0 makes it empty at once.  It ends, proving d
    empty, when d < the largest order (d < 0 included)."""
    orders = list(orders)
    for g, inside in space.divisors:
        a, orders[g] = orders[g], 0
        d -= a
        for i in inside:
            orders[i] = max(orders[i] - a, 0)
    hyperplanes, j, stale = space.hyperplanes, 0, 0
    while d >= max(orders, default=0):
        if stale == len(hyperplanes):
            return False
        on, sub, pairs = hyperplanes[j]
        restricted, whole = [0] * sub.size, False
        for i, r in pairs:
            if r is None:
                whole = whole or orders[i] > 0
            elif orders[i] > restricted[r]:
                restricted[r] = orders[i]
        if whole or _peels(sub, restricted, d):
            d, stale = d - 1, 0
            for i in on:
                orders[i] = max(orders[i] - 1, 0)
        else:
            j, stale = (j + 1) % len(hyperplanes), stale + 1
    return True


class _Geometry:
    """A scheme's brackets, the same for every k: its components' spanning
    points, the floor of each k, the hyperplanes its products are made of,
    its catalog and the peel's space, each made on first use.  One serves
    the back-to-back alpha_table calls on the scheme (see
    :func:`_geometry`)."""

    def __init__(self, scheme: FatFlatScheme):
        self.scheme = scheme
        self.n = scheme.ambient_dim
        self.spans = _spanning_points(scheme)

    def floor(self, k, orders) -> int:
        """A proved lower bound on alpha(I^(k)), ``orders`` its k*mu_i:
        max(orders), as no form of degree < kappa vanishes to order kappa
        along a flat, and ceil(k*m*s/e) on a W with a checked star (e, s,
        m): W contains m*S_N(e, s), so alpha(I(W)^(k)) >= k*m*s/e = k *
        alpha-hat(m*S_N(e, s)), the bound ``star_core_lower`` certifies."""
        e, s, m = self.scheme.star_core or (1, 0, 0)
        return max(*orders, -(-k * m * s // e))

    @cached_property
    def hyperplanes(self):
        """(hyperplanes, the components on each, exponent rule) of the
        products: the star's hyperplanes, primitive and in their order,
        with :func:`_balanced_cover` on a scheme with a star, and otherwise
        the catalog's (leading entry positive) with :func:`_least_cover`."""
        star = self.scheme.star
        if star is None:
            return ([h for h, _ in self.catalog],
                    [on for _, on in self.catalog], _least_cover)
        planes = [_primitive(h.coeffs) for h in star.hyperplanes]
        return (planes, [_components_on(h, self.spans) for h in planes],
                _balanced_cover)

    @cached_property
    def catalog(self):
        return _hyperplane_catalog(self.spans, self.n)

    @cached_property
    def space(self):
        return _Space(self.spans, self.n, self.catalog)

    def peels(self, orders, d) -> bool:
        """True when peeling proves I^(k) empty in degree d, for
        ``orders`` the components' orders k*mu_i."""
        return _peels(self.space, orders, d)


_last = []  # the geometry of the scheme alpha_table last ran on, if any


def _geometry(scheme: FatFlatScheme) -> _Geometry:
    """The scheme's :class:`_Geometry`, shared by alpha_table calls on it
    until one on another scheme or ``_geometry.cache_clear()``.  Every
    caller asks for one scheme's k back to back, so only the last is kept;
    it is matched by identity, as hashing a scheme reads each Fraction."""
    if not _last or _last[0].scheme is not scheme:
        _last[:] = [_Geometry(scheme)]
    return _last[0]


_geometry.cache_clear = _last.clear


def _scan(records, orders, floors, products, geometry, make_tables,
          kernel_at, field):
    """Write each record's alpha and witness: one upward scan per k from
    its proved lower bound, each k past the previous (see alpha_table), so
    the degrees asked of the tables only grow.  ``make_tables()`` makes
    them at the first elimination, so a scan that eliminates nothing makes
    none.  The first kernel vector, at d, gives alpha = d and its
    :class:`Form` in ``field``.  The scan stops below the degree u of k's
    product, which closes k when every degree below is empty, and with no
    product past the cap, leaving the record unresolved.

    ``geometry.peels`` proves a degree empty with no elimination.  As
    emptiness is monotone in d, with a product one peel at u - 1 proves
    every degree below; otherwise the peel is asked before each
    elimination."""
    j, b, tables = 0, 0, None  # alpha(I^(0)) = 0
    for record in records:
        k, product = record.k, products.get(record.k)
        top = product.degree if product else record.degree_cap + 1
        d = max(floors[k], b + k - j)  # proved: alpha(I^(k)) >= d
        if product and d < top and geometry.peels(orders[k], top - 1):
            d = top
        while d < top:
            if not geometry.peels(orders[k], d):
                tables = tables or make_tables()
                kernel = kernel_at(tables, orders[k], d)
                if kernel is not None:
                    record.alpha, record.witness = d, Form.from_values(
                        geometry.n, d, kernel, field)
                    break
            d += 1  # an empty degree d proves alpha(I^(k)) > d
        else:
            if product:
                record.alpha, record.witness = d, product
        j, b = k, d


def alpha_table(scheme: FatFlatScheme, ks, mode: str = "modp",
                degree_cap: int = None) -> list:
    """One :class:`AlphaRecord` (alpha(I^(k)) with witness) per k of the
    strictly increasing sequence ``ks``.  modp mode: of ``DEFAULT_PRIMES``,
    p1 searches every k on one set of tables; p2, on its own tables,
    eliminates only at each kernel degree d; full rank there re-runs that
    k over Q (``escalated``) from d + 1, as rational mode runs every k.

    Each k's answer is its first degree with a kernel vector, or the
    degree u of its hyperplane product (:func:`_hyperplane_products`) when
    every degree below u is empty, and then the product is its witness,
    with no second prime and no run over Q.  :func:`_scan` proves each
    degree it passes empty over Q, whatever p2 says: by a Bézout peel (see
    the module docstring), or by full rank, as each F_p matrix reduces an
    integer matrix with the Q row space.  It begins k at
    max(floor, b + k - j), b the proved lower bound of the previous record
    j (an unresolved one proves alpha(I^(j)) > cap), by two facts:

    - The floor (:meth:`_Geometry.floor`): the largest order, and a
      configuration m*S_N(e, s) that the scheme is checked to contain.
    - The chain lemma.  A form F != 0 in I^(k) has a first partial != 0
      (Euler), of order >= k*mu_i - 1 >= (k-1)*mu_i on each flat, so
      alpha(I^(k)) >= alpha(I^(k-1)) + 1 >= alpha(I^(j)) + k - j.

    Degrees only go up, so each flat's table is built once per prime,
    and each prime's tables are made at its first elimination: a call
    whose every k its products and peels close makes none.
    """
    ks = list(ks)
    if not ks or any(j >= k for j, k in zip([0, *ks], ks)):
        raise ValidationError(f"need 1 <= k1 < k2 < ..., not {ks}")
    if degree_cap is not None and degree_cap < 1:
        raise ValidationError("degree cap must be >= 1")
    if mode not in ("modp", "rational"):
        raise ValidationError(f"unknown mode {mode!r}")
    p1, p2 = DEFAULT_PRIMES
    records = [AlphaRecord(k=k, field_mode=mode, degree_cap=degree_cap or
                           default_degree_cap(scheme, k)) for k in ks]
    orders = {k: [kappa for _, kappa in symbolic_multiplicities(scheme, k)]
              for k in ks}
    geometry = _geometry(scheme)
    floors = {k: geometry.floor(k, orders[k]) for k in ks}
    products = _hyperplane_products(geometry, records, orders, floors)
    subs = [c.subspace for c in scheme.components]
    if mode == "modp":
        _scan(records, orders, floors, products, geometry,
              lambda: [AdaptedTablesModP(sub, p1) for sub in subs],
              _kernel_modp, p1)
        tables = None
        for record in records:
            if isinstance(record.witness, ProductWitness):
                continue  # the product proves alpha; no prime confirms it
            record.primes = (p1, p2)
            if record.witness is None:
                continue  # unresolved below the cap
            tables = tables or [AdaptedTablesModP(sub, p2) for sub in subs]
            if _kernel_modp(tables, orders[record.k], record.alpha) is None:
                # Full rank mod p2 at this proved bound proves alpha above it.
                floors[record.k] = record.alpha + 1
                record.field_mode, record.alpha, record.witness = \
                    "rational", None, None
        del tables
    redo = [r for r in records if r.field_mode == "rational"]
    if redo:
        _scan(redo, orders, floors, products, geometry,
              lambda: [AdaptedTablesQQ(sub) for sub in subs],
              _kernel_rational, "rational")
    return records


def alpha_symbolic(scheme: FatFlatScheme, k: int, mode: str = "modp",
                   degree_cap: int = None) -> AlphaRecord:
    """alpha(I^(k)) with witness: the one-k :func:`alpha_table`."""
    return alpha_table(scheme, [k], mode, degree_cap)[0]


def _product_order(product: ProductWitness, sub: Subspace) -> int:
    """ord_L(prod H_j^(a_j)) = sum_j a_j ord_L(H_j) along L = ``sub``: H_j
    has order 1 when appending it to L's defining forms leaves their rank
    unchanged, and 0 otherwise.  The forms are in reduced echelon form, so
    as integer rows each is nonzero at its own pivot and 0 at the others':
    clearing H_j's entry at each pivot, fraction-free, leaves 0 exactly
    when H_j lies in their span."""
    rows = [(_primitive(f.coeffs), p) for f, p in zip(sub.forms, sub.pivots)]
    order = 0
    for h, a in product.factors:
        for row, p in rows:
            h = [row[p] * x - h[p] * y for x, y in zip(h, row)]
        order += a * (not any(h))
    return order


def require_alpha(record: AlphaRecord) -> int:
    if not record.resolved:
        raise CapExceededError(
            f"alpha(I^({record.k})) unresolved below degree cap {record.degree_cap}")
    return record.alpha


def membership(form, scheme: FatFlatScheme, k: int) -> bool:
    """True iff the form lies in I^(k).  A :class:`Form` is in it iff
    every order-(k*mu_i) condition annihilates it: each integer row times
    its numerators is 0, exactly over Q, mod p in the F_p lane.

    A :class:`ProductWitness` is never expanded.  Along a linear flat L
    the order ord_L(F) = max{kappa : F in I(L)^kappa} is a valuation (in
    adapted coordinates it is the least degree in w_0..w_{e-1} of F's
    terms), so the product is in I(L)^kappa iff sum_j a_j ord_L(H_j) >=
    kappa.  A nonzero linear form has order 1 along L when it lies in the
    span of L's defining forms, and 0 otherwise (:func:`_product_order`):
    an exact test on L's own forms, not the search's test of which
    hyperplanes hold a component's spanning points."""
    if form.ambient_dim != scheme.ambient_dim:
        raise ValidationError("ambient dimension mismatch")
    if isinstance(form, ProductWitness):
        return all(_product_order(form, sub) >= kappa
                   for sub, kappa in symbolic_multiplicities(scheme, k))
    if not any(form.packed):
        raise ValidationError("the zero form is not a membership witness")
    d, p = form.degree, form.field
    if p == "rational":
        vec = np.array(form.coeffs, dtype=object)
        return not any(AdaptedTablesQQ(sub).block(d, kappa).dot(vec).any()
                       for sub, kappa in symbolic_multiplicities(scheme, k))
    vec = np.array(form.coeffs, dtype=np.int64)
    return not any(_modp_apply(AdaptedTablesModP(sub, p).block(d, kappa),
                               vec, p).any()
                   for sub, kappa in symbolic_multiplicities(scheme, k))
