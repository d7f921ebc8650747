"""Exact elimination kernels.

One eliminator per field, independent on purpose: fraction-free (Bareiss)
elimination over the integers for Q, whose echelon form gives the RREF,
rank, inverse and kernel by one back-substitution, and elimination over
F_p in panels of columns for the fast lane.  Pivot order is deterministic
(leftmost column, topmost nonzero row) so kernel vectors are reproducible.

The F_p kernel works in int64 on residues of a prime p < _PRIME_BOUND,
in one level of panels of _PANEL columns; no code here uses floating point.
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


# A panel's row operations reach the columns right of it as int64 sums of
# at most _PANEL products of residues: for every p < _PRIME_BOUND each sum
# is below _PANEL * (p - 1)^2 < 2^5 * 2^46 = 2^51 < 2^63.
_PANEL = 32
_PRIME_BOUND = 1 << 23


def _pivot_steps(M, c0, c1, r, pivots, inverses, p):
    """Eliminate columns c0..c1 - 1 of ``M`` from row r down, one pivot
    per column, in place, and return the next pivot row.  Each step's
    int64 update spans only the columns left in c0..c1 - 1."""
    nrows = M.shape[0]
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
        # The multipliers overwrite the entries they eliminate, so the row
        # swaps carry them along and a panel's pivot columns below its
        # first row hold its multipliers L.
        fac = M[r + 1:, c] * inv % p
        M[r + 1:, c] = fac
        M[r + 1:, c + 1:c1] = (M[r + 1:, c + 1:c1]
                               - fac[:, None] * M[r, c + 1:c1]) % p
        pivots.append(c)
        inverses.append(inv)
        r += 1
    return r


def rank_kernel_modp(mat, p):
    """Rank and one deterministic kernel vector over F_p.

    ``mat`` is a 2D integer array (copied, not modified) and ``p`` a prime
    below _PRIME_BOUND, the bound that keeps every int64 sum exact.
    Returns (rank, kernel) with kernel an int64 array, or None at full
    column rank.  The kernel vector sets the first free column to 1 and
    all other free columns to 0, so it is unique.

    Forward elimination runs in panels of _PANEL columns.  Each panel is
    eliminated pivot by pivot (leftmost column, topmost nonzero row; rows
    are swapped whole, and the multipliers are stored in place of the
    entries they eliminate), with int64 updates across the panel only.
    The columns right of the panel, ``T`` from the panel's first row
    down, then take its k pivots' multipliers L: the pivot rows by
    forward substitution, ``T[i] -= L[i, :i] @ T[:i]`` mod p for
    i = 1..k-1, and the rows below by one product,
    ``T[k:] -= L[k:] @ T[:k]`` mod p.  Each sum has at most _PANEL
    products below p^2, so it stays below 2^51.  The arithmetic is that of
    one unblocked elimination in another order, so the pivots, the
    multipliers and the result do not depend on the panel width.  The
    pivot columns are the column rank profile of ``mat``;
    back-substitution runs over the pivots left of the first free column
    only.
    """
    if not 2 <= p < _PRIME_BOUND:
        raise ValueError(f"modulus {p} is outside [2, {_PRIME_BOUND})")
    M = np.array(mat, dtype=np.int64) % p
    nrows, ncols = M.shape
    pivots, inverses = [], []
    rank = 0
    for c0 in range(0, ncols, _PANEL):
        if rank >= nrows:
            break
        c1 = min(c0 + _PANEL, ncols)
        r0, k0 = rank, len(pivots)
        rank = _pivot_steps(M, c0, c1, rank, pivots, inverses, p)
        k = rank - r0
        if k and c1 < ncols:
            T, L = M[r0:, c1:], M[r0:, pivots[k0:]]
            for i in range(1, k):
                T[i] = (T[i] - L[i, :i] @ T[:i]) % p
            T[k:] = (T[k:] - L[k:] @ T[:k]) % p
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
