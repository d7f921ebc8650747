from fractions import Fraction

import pytest

from fatflats.errors import ValidationError
from fatflats.linalg import _PRIME_BOUND
from fatflats.scalars import DEFAULT_PRIMES, encode_scalar, parse_scalar


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond 2**31."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_default_primes_are_distinct_primes_below_the_bound():
    p1, p2 = DEFAULT_PRIMES
    assert p1 != p2
    for p in (p1, p2):
        assert 1 << 22 <= p < _PRIME_BOUND and is_prime(p)
    # The first is the largest prime the kernel accepts.
    assert not any(is_prime(n) for n in range(p1 + 1, _PRIME_BOUND))


@pytest.mark.parametrize("n,expected", [
    (1, False), (2, True), (3, True), (4, False), (561, False),
    (2147483647, True), (2147483629, True), (2**31 - 2, False),
])
def test_is_prime(n, expected):
    assert is_prime(n) is expected


@pytest.mark.parametrize("value,expected", [
    (3, Fraction(3)), (-7, Fraction(-7)),
    ("5/2", Fraction(5, 2)), ("-9/4", Fraction(-9, 4)), ("12", Fraction(12)),
])
def test_parse_scalar(value, expected):
    assert parse_scalar(value) == expected


@pytest.mark.parametrize("bad", [True, None, 1.5, "a/b", "1/0", [1]])
def test_parse_scalar_rejects_garbage(bad):
    with pytest.raises(ValidationError):
        parse_scalar(bad)


def test_encode_scalar_roundtrip():
    for q in (Fraction(4), Fraction(5, 2), Fraction(-7, 3), Fraction(0)):
        assert parse_scalar(encode_scalar(q)) == q
    assert encode_scalar(Fraction(4)) == 4  # integral stays an int
