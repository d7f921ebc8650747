import random
from fractions import Fraction

import numpy as np
import pytest

from fatflats import linalg
from fatflats.linalg import (
    _PANEL,
    _PRIME_BOUND,
    bareiss_echelon,
    invert_matrix,
    matrix_rank,
    rank_kernel_modp,
    rank_kernel_rational,
    rref_fractions,
)
from fatflats.scalars import DEFAULT_PRIMES

# A field prime well below the default ones (the largest below 2^22).
SMALL_FIELD_PRIME = 4194301
# Test ids by the prime's role, so a change of the primes renames no test.
FIELD_PRIME_IDS = ("first-prime", "second-prime", "small-field-prime")


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


def _reference_rref(rows):
    """The former ``rref_fractions``: Fraction Gauss-Jordan that clears
    each pivot column above and below.  Same pivot rule (leftmost column,
    topmost nonzero row), and the RREF is unique, so results must agree
    exactly."""
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


def _reference_kernel(rows, ncols):
    """Rank and normalised kernel vector (first free column 1, the other
    free columns 0) read off ``_reference_rref``."""
    red, pivots = _reference_rref(rows)
    if len(pivots) == ncols:
        return len(pivots), None
    free = next(c for c in range(ncols) if c not in pivots)
    kernel = [Fraction(0)] * ncols
    kernel[free] = Fraction(1)
    for row, c in zip(red, pivots):
        kernel[c] = -row[free]
    return len(pivots), kernel


def _rational_cases():
    """Named and seeded rational matrices for the Bareiss read-outs."""
    rng = random.Random(1968)
    cases = {
        "empty": [],
        "no-columns": [[], []],
        "zero-rows": [[0, 0, 0], [0, 0, 0]],
        "zero-row-and-columns": [[0, 0, 2, 0, 1], [0, 0, 0, 0, 0],
                                 [0, 0, 4, 0, 3]],
        "dependent-rows": [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
        "negative-pivots": [[-2, 1, 3], [1, -3, 1], [4, 1, -5]],
        "fractions": [[Fraction(1, 2), Fraction(-2, 3), 1],
                      [Fraction(3, 4), Fraction(5, 6), Fraction(-7, 9)]],
        "one-row": [[0, 0, 3, -1]],
        "one-column": [[0], [0], [Fraction(-5, 3)], [2]],
    }
    for t in range(240):
        nrows, ncols = rng.choice([(3, 7), (7, 3), (5, 5), (4, 6), (6, 2)])
        rows = [[Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))
                 if rng.random() < 0.7 else 0 for _ in range(ncols)]
                for _ in range(nrows)]
        if t % 3 == 0 and nrows > 1:
            # A combination of the other rows: rank deficient.
            rows[rng.randrange(nrows)] = [
                sum(rng.randint(-2, 2) * row[j] for row in rows)
                for j in range(ncols)]
        cases[f"random-{t}-{nrows}x{ncols}"] = rows
    return cases


def test_rational_readouts_match_reference():
    negative_pivots = 0
    for name, rows in _rational_cases().items():
        ref_red, ref_pivots = _reference_rref(rows)
        red, pivots = rref_fractions(rows)
        assert (red, pivots) == (ref_red, ref_pivots), name
        assert all(type(x) is Fraction for row in red for x in row), name
        assert matrix_rank(rows) == len(ref_pivots), name
        ncols = len(rows[0]) if rows else 3
        rank, kernel = rank_kernel_rational(rows, ncols=ncols)
        assert (rank, kernel) == _reference_kernel(rows, ncols), name
        assert kernel is None or all(type(x) is Fraction for x in kernel)
        if len(rows) == ncols:
            aug = [list(row) + [int(i == j) for j in range(ncols)]
                   for i, row in enumerate(rows)]
            ref_aug, aug_pivots = _reference_rref(aug)
            expected = ([row[ncols:] for row in ref_aug]
                        if aug_pivots[:ncols] == list(range(ncols)) else None)
            assert invert_matrix(rows) == expected, name
        ech, pivots = bareiss_echelon(rows)
        negative_pivots += any(row[c] < 0 for row, c in zip(ech, pivots))
    # The exact divisions must hold for negative Bareiss pivots too.
    assert negative_pivots >= 20


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
        assert len(pivots) == len(_reference_rref(rows)[1])


def test_bareiss_makes_no_fraction_from_integer_rows(monkeypatch):
    made = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            made.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(linalg, "Fraction", CountingFraction)
    ech, pivots = bareiss_echelon([[2, 1, 0], [4, 3, 5], [1, 0, 7]])
    assert made == []
    assert pivots == [0, 1, 2]


def test_bareiss_numpy_int64_rows_match_python_ints():
    # Entries near 2^40: the echelon's later rows pass 2^63, so int64
    # entries would wrap.
    rng = np.random.default_rng(40)
    rows = rng.integers(1 << 40, 1 << 41, size=(4, 5), dtype=np.int64)
    ech, pivots = bareiss_echelon(rows)
    assert (ech, pivots) == bareiss_echelon(rows.tolist())
    assert all(type(x) is int for row in ech for x in row)


def test_rank_kernel_rational_kernel_annihilates():
    rng = random.Random(3)
    for _ in range(25):
        nrows, ncols = rng.randint(1, 5), rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)]
                for _ in range(nrows)]
        rank, kernel = rank_kernel_rational(rows)
        assert rank == len(_reference_rref(rows)[1])
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
        # Small integer matrices: by Hadamard every minor is at most
        # (5 * 6^(1/2))^6 < 2^22 < p in absolute value, so rank mod p
        # equals the rational rank.
        assert rank_p == rank_q
        if kernel is not None:
            assert (mat % p @ kernel % p == 0).all()


def test_rank_kernel_modp_does_not_modify_input():
    mat = np.array([[1, 2], [2, 4]], dtype=np.int64)
    rank_kernel_modp(mat, DEFAULT_PRIMES[0])
    assert (mat == np.array([[1, 2], [2, 4]])).all()


def _blocked_cases(p):
    """Seeded matrices spanning several 32-column panels of the kernel,
    with zero and dependent columns on both sides of panel boundaries and
    rows that run out inside a panel or at its end."""
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
    # Zero and dependent columns on both sides of panel boundaries
    # (columns 31/32, and 15/16 and 63/64 inside and between panels).
    boundary_zeros = rand(200, 150)
    boundary_zeros[:, [15, 16, 31, 32, 63, 64]] = 0
    across_sub = rand(200, 150)
    across_sub[:, 16] = (across_sub[:, 15] + 5 * across_sub[:, 2]) % p
    across_sub[:, 64] = (2 * across_sub[:, 63] + across_sub[:, 17]) % p
    across_panel = rand(200, 150)
    across_panel[:, 64] = (across_panel[:, 63] + 3 * across_panel[:, 16]
                           + across_panel[:, 40]) % p
    # The first free column on the first panel boundary, and the only
    # column right of that panel: column 32 depends on 31 and on 7.
    across_first_panel = rand(200, 33)
    across_first_panel[:, 32] = (4 * across_first_panel[:, 31]
                                 + across_first_panel[:, 7]) % p
    # As tall as star's matrices (rows ~ 1.6 x columns) and rank deficient.
    star_like = (rng.integers(-2, 3, size=(240, 110))
                 @ rng.integers(-2, 3, size=(110, 150)))
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
        "zero-columns-at-boundaries": boundary_zeros,
        "depends-across-sub-panel": across_sub,
        "depends-across-panel": across_panel,
        "depends-across-first-panel": across_first_panel,
        "rows-end-inside-sub-panel": rand(40, 150),
        "rows-end-inside-second-panel": rand(71, 150),
        "rows-end-at-sub-panel": rand(16, 40),
        "rows-end-at-first-panel": rand(32, 100),
        "star-like-tall-low-rank": star_like,
        # Entries from the top of the field, over several panels: each
        # sum of a panel's row operations has up to 32 products below p^2.
        "entries-near-p": rng.integers(p - (1 << 15), p, size=(200, 150),
                                       dtype=np.int64),
    }


@pytest.mark.parametrize("p", [*DEFAULT_PRIMES, SMALL_FIELD_PRIME],
                         ids=FIELD_PRIME_IDS)
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


def test_panel_sums_fit_in_int64():
    # Each sum of a panel's row operations has at most _PANEL products of
    # residues below _PRIME_BOUND, so it cannot wrap in int64.
    assert _PANEL * (_PRIME_BOUND - 1) ** 2 < 2 ** 63


@pytest.mark.parametrize("p", [1, _PRIME_BOUND, 1 << 31])
def test_rank_kernel_modp_rejects_modulus_out_of_range(p):
    with pytest.raises(ValueError):
        rank_kernel_modp(np.eye(2, dtype=np.int64), p)
