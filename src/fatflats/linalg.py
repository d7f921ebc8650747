"""Exact elimination kernels.

One eliminator per field, independent on purpose: fraction-free (Bareiss)
elimination over the integers for Q, whose echelon form gives the RREF,
rank, inverse and kernel by one back-substitution, and elimination over
F_p blocked on two levels for the fast lane.  Pivot order is deterministic
(leftmost column, topmost nonzero row) so kernel vectors are reproducible.

The F_p kernel works on int64 residues of a prime p < _PRIME_BOUND.  A
block's pivot rows take its row operations by forward substitution in
int64, each row a sum of at most _PANEL - 1 products below p^2 < 2^46, so
below 2^52.  The rows below take them as one float64 BLAS matrix product
on integers, whose partial sums stay below 2^53 and so are exact; it is
converted back to int64 and reduced mod p, and no rounded value is ever
used.
"""

from bisect import bisect_right
from fractions import Fraction
from math import lcm

import numpy as np


def _clear_row_denominators(row):
    """A row of ints or Fractions times the lcm of its denominators, as
    Python ints: numpy integers would overflow in Bareiss."""
    den = lcm(*(x.denominator for x in row))
    return [int(x * den) for x in row]


def bareiss_echelon(rows):
    """Fraction-free forward elimination on rows of ints or Fractions.

    Returns (echelon_int_rows, pivot_cols).  Entries stay integral
    throughout (Bareiss), so no intermediate fraction blow-up.
    """
    m = [_clear_row_denominators(row) for row in rows]
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


def _solve_pivots(ech, pivots, k, col):
    """Solve the upper triangle of the first k pivot columns of the
    echelon rows against their column ``col``, as Fractions.  By Cramer's
    rule d * x is integral, d the k-th Bareiss pivot, so back-substitution
    runs on the integers d * x with exact divisions."""
    if not k:
        return []
    d = ech[k - 1][pivots[k - 1]]
    y = [0] * k
    for i in range(k - 1, -1, -1):
        row = ech[i]
        s = d * row[col] - sum(row[pivots[l]] * y[l] for l in range(i + 1, k))
        y[i] = s // row[pivots[i]]
    return [Fraction(v, d) for v in y]


def rref_fractions(rows):
    """Reduced row echelon form over Q: (rref_rows, pivot_cols), entries
    Fractions; input rows are not modified.  Column c of the RREF solves
    the pivot columns at or left of c against column c of the Bareiss
    echelon rows."""
    ech, pivots = bareiss_echelon(rows)
    red = [[Fraction(0)] * len(row) for row in ech]
    for c in range(len(ech[0]) if ech else 0):
        for row, x in zip(red, _solve_pivots(ech, pivots,
                                             bisect_right(pivots, c), c)):
            row[c] = x
    return red, pivots


def matrix_rank(rows) -> int:
    return len(bareiss_echelon(rows)[1])


def invert_matrix(rows):
    """Exact inverse of a square rational matrix, or None if singular:
    the right half of the RREF of ``[M | I]``."""
    n = len(rows)
    red, pivots = rref_fractions([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red]


def rank_kernel_rational(rows, ncols=None):
    """Exact rank and one deterministic kernel vector over Q.

    Returns (rank, kernel) where kernel is a list of Fractions or None
    when the matrix has full column rank.  The kernel vector sets the
    first free column to 1 and all other free columns to 0.  The columns
    left of it are the Bareiss pivots 0..free-1, and its entry at pivot i
    is -x_i, x their upper triangle solved against the free column.
    """
    if rows:
        ncols = len(rows[0])
    elif ncols is None:
        raise ValueError("empty matrix needs explicit ncols")
    ech, pivots = bareiss_echelon(rows)
    rank = len(pivots)
    if rank == ncols:
        return rank, None
    free = next((i for i, c in enumerate(pivots) if i != c), rank)
    kernel = [-x for x in _solve_pivots(ech, pivots, free, free)]
    kernel += [Fraction(1)] + [Fraction(0)] * (ncols - free - 1)
    return rank, kernel


# Each panel of _PANEL columns is eliminated in sub-panels of _SUB
# columns, so every block product has at most _PANEL terms, and every
# forward-substitution sum at most _PANEL - 1.  The trailing update runs
# in strips of _STRIP columns to bound its temporaries.
_PANEL = 64
_SUB = 16
_STRIP = 256
# The exactness bound of the block products: for every p < _PRIME_BOUND,
# _PANEL * (p - 1)^2 < 2^6 * 2^46 = 2^52 < 2^53, so each partial sum of a
# product of residues is an exact float64 integer, whatever the order, and
# a forward-substitution row stays below 2^52 < 2^63 in int64.
_PRIME_BOUND = 1 << 23


def _matmul_lift(a, b, p):
    """``a @ b`` as an int64 matrix, exactly: ``a`` is float64 with at most
    _PANEL columns and integral entries in [0, p), ``b`` is int64 in
    [0, p), so the entries lie in [0, 2^52)."""
    return (a @ b.astype(np.float64)).astype(np.int64)


def _trailing_update(T, L, p):
    """Apply a block's row operations to its trailing columns ``T`` (a view
    from the block's first row down), in place.  ``L`` holds the block's
    multipliers: k <= _PANEL pivot columns, rows aligned with ``T``.  The
    k pivot rows take them by forward substitution in int64, row i after
    rows 0..i-1 as in one unblocked elimination; the rows below take one
    float64 product per strip."""
    k = L.shape[1]
    for i in range(1, k):
        # At most _PANEL - 1 products below p^2 < 2^46: the sum is < 2^52.
        T[i] = (T[i] - L[i, :i] @ T[:i]) % p
    bottom = L[k:].astype(np.float64)
    for s in range(0, T.shape[1], _STRIP):
        # T - lift lies in (-2^52, p), so one reduction serves.
        T[k:, s:s + _STRIP] = (T[k:, s:s + _STRIP]
                               - _matmul_lift(bottom, T[:k, s:s + _STRIP],
                                              p)) % p


def _eliminate(M, c0, c1, r, widths, pivots, inverses, p):
    """Eliminate columns c0..c1 - 1 of ``M`` from row r down, in place,
    and return the next pivot row.  The columns go in blocks of
    ``widths[0]`` columns, each eliminated by the next level; the block's
    row operations then reach the rest of c0..c1 - 1 in one
    :func:`_trailing_update`.  With no widths left, each column takes one
    pivot step, whose int64 update spans only the columns left in the
    block."""
    nrows = M.shape[0]
    if not widths:
        for c in range(c0, c1):
            if r >= nrows:
                break
            nz = M[r:, c].nonzero()[0]
            if not nz.size:
                continue
            i = r + int(nz[0])
            if i != r:
                M[[r, i]] = M[[i, r]]
            inv = pow(int(M[r, c]), -1, p)
            # The multipliers overwrite the entries they eliminate, so the
            # row swaps carry them along and a block's pivot columns below
            # its first row form its L block.
            fac = M[r + 1:, c] * inv % p
            M[r + 1:, c] = fac
            M[r + 1:, c + 1:c1] = (M[r + 1:, c + 1:c1]
                                   - fac[:, None] * M[r, c + 1:c1]) % p
            pivots.append(c)
            inverses.append(inv)
            r += 1
        return r
    for b0 in range(c0, c1, widths[0]):
        if r >= nrows:
            break
        b1 = min(b0 + widths[0], c1)
        r0, k0 = r, len(pivots)
        r = _eliminate(M, b0, b1, r, widths[1:], pivots, inverses, p)
        if r > r0 and b1 < c1:
            _trailing_update(M[r0:, b1:c1], M[r0:, pivots[k0:]], p)
    return r


def rank_kernel_modp(mat, p):
    """Rank and one deterministic kernel vector over F_p.

    ``mat`` is a 2D integer array (copied, not modified) and ``p`` a prime
    below _PRIME_BOUND, the bound on which the exactness of the float64
    block products rests.  Returns (rank, kernel) with kernel an int64
    array, or None at full column rank.  The kernel vector sets the first
    free column to 1 and all other free columns to 0, so it is unique.

    Forward elimination is blocked on two levels, panels of _PANEL
    columns split into sub-panels of _SUB.  Each sub-panel is eliminated
    pivot by pivot (leftmost column, topmost nonzero row; rows are swapped
    whole, and the multipliers are stored in place of the entries they
    eliminate), with int64 updates across the sub-panel only.  The rest
    of the panel, and after the panel the trailing columns, then take the
    block's multipliers L.  The block's k <= _PANEL pivot rows take them
    by int64 forward substitution, ``T[i] -= L[i, :i] @ T[:i]`` mod p for
    i = 1..k-1, each sum below (_PANEL - 1) * p^2 < 2^52; the rows below
    take one float64 BLAS product per strip, ``T_bot -= L_bot @ T_top``,
    exact since its k terms stay below 2^53, reduced in int64.  The
    arithmetic is that of one unblocked elimination in another order, so
    the pivots, the multipliers and the result do not depend on the block
    sizes.  The pivot columns are the column rank profile of ``mat``;
    back-substitution runs over the pivots left of the first free column
    only.
    """
    if not 2 <= p < _PRIME_BOUND:
        raise ValueError(f"modulus {p} is outside [2, {_PRIME_BOUND})")
    M = np.array(mat, dtype=np.int64) % p
    ncols = M.shape[1]
    pivots, inverses = [], []
    rank = _eliminate(M, 0, ncols, 0, (_PANEL, _SUB), pivots, inverses, p)
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
