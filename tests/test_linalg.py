import random
from fractions import Fraction

import numpy as np
import pytest

from fatflats.linalg import (
    _PANEL,
    _matmul_modp,
    bareiss_echelon,
    invert_matrix,
    matrix_rank,
    rank_kernel_modp,
    rank_kernel_rational,
    rref_fractions,
)
from fatflats.scalars import DEFAULT_PRIMES

# Smallest prime the field-prime check accepts (2^30 + 3).
SMALL_FIELD_PRIME = 1073741827


def _reference_gauss_jordan(mat, p):
    """The former kernel of ``rank_kernel_modp``: unblocked Gauss-Jordan
    that updates every row and column at each pivot.  Same pivot rule and
    kernel normalisation, so results must agree exactly."""
    M = np.array(mat, dtype=np.int64) % p
    nrows, ncols = M.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = M[r] * inv % p
        fac = M[:, c].copy()
        fac[r] = 0
        hit = np.nonzero(fac)[0]
        if hit.size:
            M[hit] = (M[hit] - fac[hit, None] * M[r][None, :]) % p
        pivots.append(c)
        r += 1
    rank = r
    if rank == ncols:
        return rank, None
    pivot_set = set(pivots)
    free = next(c for c in range(ncols) if c not in pivot_set)
    kernel = np.zeros(ncols, dtype=np.int64)
    kernel[free] = 1
    for i, c in enumerate(pivots):
        kernel[c] = (-int(M[i, free])) % p
    return rank, kernel


def test_rref_identity():
    rows = [[2, 0, 0], [0, 3, 0], [0, 0, -1]]
    red, pivots = rref_fractions(rows)
    assert pivots == [0, 1, 2]
    assert red == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_rref_dependent_rows():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    red, pivots = rref_fractions(rows)
    assert len(pivots) == 2
    assert matrix_rank(rows) == 2


def test_rref_does_not_modify_input():
    rows = [[1, 2], [3, 4]]
    rref_fractions(rows)
    assert rows == [[1, 2], [3, 4]]


def test_invert_matrix_exact():
    m = [[2, 1], [7, 4]]
    inv = invert_matrix(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert prod == [[1, 0], [0, 1]]


def test_invert_matrix_singular():
    assert invert_matrix([[1, 2], [2, 4]]) is None


def test_bareiss_entries_are_integers_and_rank_matches():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(5)] for _ in range(4)]
        ech, pivots = bareiss_echelon(rows)
        assert all(isinstance(x, int) for row in ech for x in row)
        assert len(pivots) == matrix_rank(rows)


def test_rank_kernel_rational_kernel_annihilates():
    rng = random.Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(nrows)]
        rank, kernel = rank_kernel_rational(rows)
        assert rank == matrix_rank(rows)
        if kernel is None:
            assert rank == ncols
        else:
            assert any(kernel)
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, kernel)) == 0


def test_rank_kernel_rational_full_rank():
    rank, kernel = rank_kernel_rational([[1, 0], [0, 1]])
    assert rank == 2 and kernel is None


def test_rank_kernel_rational_empty_needs_ncols():
    with pytest.raises(ValueError):
        rank_kernel_rational([])
    rank, kernel = rank_kernel_rational([], ncols=3)
    assert rank == 0 and kernel[0] == 1


def test_rank_kernel_rational_kernel_holds_only_fractions():
    # A pivot with no nonzero kernel entry after it back-substitutes an
    # empty sum; that entry must still be exact.
    for rows, expected in (([[1, 0, 0], [0, 0, 1]], [0, 1, 0]),
                           ([[0, 1, 1]], [1, 0, 0])):
        kernel = rank_kernel_rational(rows)[1]
        assert kernel == expected
        assert all(type(x) is Fraction for x in kernel)


def test_rank_kernel_rational_deterministic():
    rows = [[1, 2, 3, 4], [0, 1, 1, 1]]
    k1 = rank_kernel_rational(rows)[1]
    k2 = rank_kernel_rational(list(rows))[1]
    assert k1 == k2


def test_rank_kernel_modp_agrees_with_rational():
    rng = random.Random(11)
    p = DEFAULT_PRIMES[0]
    for _ in range(25):
        nrows, ncols = rng.randint(1, 6), rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(nrows)]
        rank_q, _ = rank_kernel_rational(rows)
        mat = np.array(rows, dtype=np.int64)
        rank_p, kernel = rank_kernel_modp(mat, p)
        # Small integer matrices: rank mod a 31-bit prime equals the
        # rational rank unless a minor is divisible by p, impossible here.
        assert rank_p == rank_q
        if kernel is not None:
            assert (mat % p @ kernel % p == 0).all()


def test_rank_kernel_modp_does_not_modify_input():
    mat = np.array([[1, 2], [2, 4]], dtype=np.int64)
    rank_kernel_modp(mat, DEFAULT_PRIMES[0])
    assert (mat == np.array([[1, 2], [2, 4]])).all()


def _blocked_cases(p):
    """Seeded matrices spanning several 64-column panels of the kernel."""
    rng = np.random.default_rng(20081)

    def rand(nrows, ncols):
        return rng.integers(0, p, size=(nrows, ncols), dtype=np.int64)

    low = (rng.integers(-3, 4, size=(200, 90))
           @ rng.integers(-3, 4, size=(90, 150)))
    zeros = rand(120, 150)
    zeros[[0, 64, 119]] = 0
    zeros[:, [70, 149]] = 0
    dependent = rand(200, 150)
    dependent[:, 130] = (dependent[:, 5] + 3 * dependent[:, 40]) % p
    corner = np.full((150, 140), p - 1, dtype=np.int64)
    np.fill_diagonal(corner, 0)
    single_row = rand(1, 130)
    single_row[0, 0] = 0
    return {
        "tall": rand(200, 150),
        "wide": rand(100, 200),
        "wide-rows-end-at-panel": rand(128, 200),
        "tall-low-rank": low,
        "one-row": rand(1, 130),
        "one-row-leading-zero": single_row,
        "one-column": rand(150, 1),
        "zero-rows-and-columns": zeros,
        "depends-on-earlier-panel": dependent,
        "all-p-minus-1": np.full((150, 140), p - 1, dtype=np.int64),
        "p-minus-1-off-diagonal": corner,
    }


@pytest.mark.parametrize("p", [*DEFAULT_PRIMES, SMALL_FIELD_PRIME])
def test_rank_kernel_modp_matches_reference(p):
    for name, mat in _blocked_cases(p).items():
        rank, kernel = rank_kernel_modp(mat, p)
        ref_rank, ref_kernel = _reference_gauss_jordan(mat, p)
        assert rank == ref_rank, name
        if ref_kernel is None:
            assert kernel is None, name
        else:
            assert kernel.dtype == np.int64, name
            assert (kernel == ref_kernel).all(), name
            assert ((mat % p).astype(object) @ kernel.astype(object)
                    % p == 0).all(), name


def test_rank_kernel_modp_dependent_column_kernel():
    p = DEFAULT_PRIMES[0]
    rank, kernel = rank_kernel_modp(
        _blocked_cases(p)["depends-on-earlier-panel"], p)
    expected = np.zeros(150, dtype=np.int64)
    expected[[5, 40, 130]] = [p - 1, p - 3, 1]
    assert rank == 149
    assert (kernel == expected).all()


@pytest.mark.parametrize("p", [*DEFAULT_PRIMES, SMALL_FIELD_PRIME])
def test_block_product_exact_near_the_bound(p):
    # Entries from the top of [0, p) bring the partial sums of a
    # _PANEL-term product close to 2^53; with 96 terms they round.
    rng = np.random.default_rng(53)
    a = rng.integers(p - (1 << 15), p, size=(40, _PANEL), dtype=np.int64)
    b = rng.integers(p - (1 << 15), p, size=(_PANEL, 30), dtype=np.int64)
    exact = a.astype(object) @ b.astype(object) % p
    assert (_matmul_modp(a.astype(np.float64), b, p) == exact).all()


@pytest.mark.parametrize("p", [1, 1 << 31])
def test_rank_kernel_modp_rejects_modulus_out_of_range(p):
    with pytest.raises(ValueError):
        rank_kernel_modp(np.eye(2, dtype=np.int64), p)
