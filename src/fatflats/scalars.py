"""Exact scalars: arbitrary-precision rationals and 31-bit prime fields.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator).  Prime-field elements are ints in ``[0, p)`` with the prime
carried alongside, and only integers are ever reduced mod p; the two
representations never mix silently.
"""

from fractions import Fraction

from .errors import ValidationError

# Two fixed 31-bit primes so runs are reproducible without a flag.
DEFAULT_PRIMES = (2147483647, 2147483629)

_PRIME_FLOOR = 1 << 30
_PRIME_CEIL = 1 << 31


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


def check_field_prime(p: int) -> int:
    if not (_PRIME_FLOOR <= p < _PRIME_CEIL) or not is_prime(p):
        raise ValidationError(f"{p} is not a prime in [2^30, 2^31)")
    return p


def parse_scalar(value) -> Fraction:
    """Decode the JSON scalar encoding: int, or 'num/den' string."""
    if isinstance(value, bool):
        raise ValidationError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad scalar {value!r}") from exc
    raise ValidationError(f"bad scalar {value!r}")


def encode_scalar(q: Fraction):
    """Encode a rational as int when integral, else 'num/den'."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"
