"""Exact scalars: arbitrary-precision rationals and the mod-p lane's two
fixed prime fields, of primes below 2^23.

Rationals are plain ``fractions.Fraction`` (always reduced, positive
denominator).  Prime-field elements are ints in ``[0, p)`` with the prime
carried alongside, and only integers are ever reduced mod p; the two
representations never mix silently.
"""

from fractions import Fraction

from .errors import ValidationError

# The search's two primes, the largest below linalg._PRIME_BOUND = 2^23,
# under which a product of two residues is below 2^46 and each sum of at
# most 32 of them in the F_p kernel below 2^51, exact in int64.  The first
# searches, the second confirms each kernel it finds.  A k that a
# hyperplane product closes needs neither to confirm it (see
# interpolation.alpha_table).
DEFAULT_PRIMES = (8388593, 8388587)


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


def require_int(value, what):
    """An integer: a bool, float or string is an error, not something to
    cast."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    return value


def encode_scalar(q: Fraction):
    """Encode a rational as int when integral, else 'num/den'."""
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return f"{q.numerator}/{q.denominator}"
