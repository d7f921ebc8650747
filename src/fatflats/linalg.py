"""Exact elimination kernels.

Two independent routes are kept on purpose: fraction-free (Bareiss)
elimination over the integers for the rational lane, and blocked
elimination over F_p for the fast lane.  Pivot order is deterministic
(leftmost column, topmost row) so kernel vectors are reproducible.

The F_p kernel works on int64 residues of a prime p < 2^31.  Its block
products run as float64 BLAS matrix products on integers: each product
has at most 64 terms, each below (p - 1) * (2^16 - 1) because the right
operand is split into 16-bit limbs, so every partial sum stays below
2^53 and is exact.  The sums are converted back to int64 and reduced
mod p; no rounded value is ever used.
"""

from fractions import Fraction
from math import gcd

import numpy as np


def rref_fractions(rows):
    """Reduced row echelon form over Q.

    Returns (rref_rows, pivot_cols).  Input rows are not modified.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def matrix_rank(rows) -> int:
    return len(rref_fractions(rows)[1])


def invert_matrix(rows):
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    red, pivots = rref_fractions(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def _clear_row_denominators(row):
    den = 1
    for x in row:
        den = den * x.denominator // gcd(den, x.denominator)
    return [int(x * den) for x in row]


def bareiss_echelon(rows):
    """Fraction-free forward elimination on rational rows.

    Returns (echelon_int_rows, pivot_cols).  Entries stay integral
    throughout (Bareiss), so no intermediate fraction blow-up.
    """
    m = [_clear_row_denominators([Fraction(x) for x in row]) for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, len(m)):
            mi, mr = m[i], m[r]
            f = mi[c]
            for j in range(c, ncols):
                mi[j] = (piv * mi[j] - f * mr[j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank_kernel_rational(rows, ncols=None):
    """Exact rank and one deterministic kernel vector over Q.

    Returns (rank, kernel) where kernel is a list of Fractions or None
    when the matrix has full column rank.  The kernel vector sets the
    first free column to 1 and all other free columns to 0.
    """
    if not rows:
        if ncols is None:
            raise ValueError("empty matrix needs explicit ncols")
        kernel = [Fraction(0)] * ncols
        kernel[0] = Fraction(1)
        return 0, kernel
    ncols = len(rows[0])
    ech, pivots = bareiss_echelon(rows)
    rank = len(pivots)
    if rank == ncols:
        return rank, None
    pivot_set = set(pivots)
    free = next(c for c in range(ncols) if c not in pivot_set)
    kernel = [Fraction(0)] * ncols
    kernel[free] = Fraction(1)
    # Back-substitute through the integer echelon rows.
    for i in range(rank - 1, -1, -1):
        c = pivots[i]
        s = sum(Fraction(ech[i][j]) * kernel[j] for j in range(c + 1, ncols)
                if kernel[j] != 0)
        kernel[c] = Fraction(-s, ech[i][c])
    return rank, kernel


# The exactness bound of rank_kernel_modp's block products:
# _PANEL * (p - 1) * (2^_LIMB_BITS - 1) < 2^6 * 2^31 * 2^16 = 2^53 for
# every p < _PRIME_BOUND, whatever the summation order.  The trailing
# update runs in strips of _STRIP columns to bound its temporaries.
_PANEL = 64
_STRIP = 256
_LIMB_BITS = 16
_PRIME_BOUND = 1 << 31


def _matmul_modp(a, b, p):
    """``a @ b mod p`` exactly: ``a`` is float64 with at most _PANEL
    columns and integral entries in [0, p), ``b`` is int64 in [0, p)."""
    lo = (b & ((1 << _LIMB_BITS) - 1)).astype(np.float64)
    hi = (b >> _LIMB_BITS).astype(np.float64)
    return ((a @ hi).astype(np.int64) % p * (1 << _LIMB_BITS)
            + (a @ lo).astype(np.int64)) % p


def _unit_lower_inverse(low, p):
    """Inverse mod p of the unit lower triangular matrix whose strictly
    lower part is that of the square int64 matrix ``low``."""
    k = low.shape[0]
    inv = np.eye(k, dtype=np.int64)
    for j in range(k - 1):
        inv[j + 1:] = (inv[j + 1:] - low[j + 1:, j, None] * inv[j]) % p
    return inv


def _trailing_update(T, L, p):
    """Apply a panel's row operations to its trailing columns ``T`` (a view
    from the panel's first row down), in place.  ``L`` holds the panel's
    multipliers: k pivot columns, rows aligned with ``T``."""
    k = L.shape[1]
    top_inv = _unit_lower_inverse(L[:k], p).astype(np.float64)
    bottom = L[k:].astype(np.float64)
    for s in range(0, T.shape[1], _STRIP):
        X = _matmul_modp(top_inv, T[:k, s:s + _STRIP], p)
        T[:k, s:s + _STRIP] = X
        if bottom.size:
            T[k:, s:s + _STRIP] = (T[k:, s:s + _STRIP]
                                   - _matmul_modp(bottom, X, p)) % p


def rank_kernel_modp(mat, p):
    """Rank and one deterministic kernel vector over F_p.

    ``mat`` is a 2D integer array (copied, not modified) and ``p`` a prime
    below 2^31, the bound on which the exactness of the float64 block
    products rests.  Returns (rank, kernel) with kernel an int64 array, or
    None at full column rank.  The kernel vector sets the first free
    column to 1 and all other free columns to 0, so it is unique.

    Forward elimination is blocked: each panel of _PANEL columns is
    eliminated pivot by pivot (leftmost column, topmost nonzero row; rows
    are swapped whole, and the multipliers are stored in place of the
    entries they eliminate).  The trailing columns then get two float64
    BLAS products, ``X = L_top^-1 @ T_top`` and ``T_bot -= L_bot @ X``,
    on 16-bit limbs of the right operand: every partial sum is below
    64 * (p - 1) * (2^16 - 1) < 2^53, so it is exact, and it is reduced in
    int64.  The pivot columns are the column rank profile of ``mat``;
    back-substitution runs over the pivots left of the first free column
    only.
    """
    if not 2 <= p < _PRIME_BOUND:
        raise ValueError(f"modulus {p} is outside [2, 2^31)")
    M = np.array(mat, dtype=np.int64) % p
    nrows, ncols = M.shape
    pivots, inverses = [], []
    r = 0
    for c0 in range(0, ncols, _PANEL):
        if r >= nrows:
            break
        c1 = min(c0 + _PANEL, ncols)
        r0, k0 = r, len(pivots)
        for c in range(c0, c1):
            if r >= nrows:
                break
            nz = np.flatnonzero(M[r:, c])
            if nz.size == 0:
                continue
            i = r + int(nz[0])
            if i != r:
                M[[r, i]] = M[[i, r]]
            inv = pow(int(M[r, c]), p - 2, p)
            # The multipliers overwrite the entries they eliminate, so the
            # row swaps carry them along and the panel's pivot columns
            # below its first row form its L block.
            fac = M[r + 1:, c] * inv % p
            M[r + 1:, c] = fac
            M[r + 1:, c + 1:c1] = (M[r + 1:, c + 1:c1]
                                   - fac[:, None] * M[r, c + 1:c1]) % p
            pivots.append(c)
            inverses.append(inv)
            r += 1
        if r > r0 and c1 < ncols:
            _trailing_update(M[r0:, c1:], M[r0:, pivots[k0:]], p)
    rank = r
    if rank == ncols:
        return rank, None
    # Columns left of the first free one are all pivots, pivot i in row i;
    # only the upper triangle of M[:free, :free + 1] is read.
    free = next((i for i, c in enumerate(pivots) if i != c), rank)
    kernel = np.zeros(ncols, dtype=np.int64)
    kernel[free] = 1
    rhs = -M[:free, free] % p
    for i in range(free - 1, -1, -1):
        x = int(rhs[i]) * inverses[i] % p
        kernel[i] = x
        rhs[:i] -= M[:i, i] * x
        rhs[:i] %= p
    return rank, kernel
