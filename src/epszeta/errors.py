"""Exception types shared across the library, and what the checks that raise them share.

One definition of "k is a finite real number" serves every check of a
modulus, `Modulus` (extended.py) and `jacobi._kernel` alike: `_real`
takes a k that is not a float as float(k) if it is a `numbers.Real`
(numpy's float64, float32 or int64, a Fraction) and refuses a bool, what
is not a `numbers.Real` (numpy's bool, a complex number, numpy's complex
scalars included, a string, bytes, a Decimal) and what float() cannot
convert with `_not_real`, which also names a k that is not finite;
`_magnitude` is |k| of that float.
"""

import math
import numbers

# The largest float: |v| <= _MAX_FLOAT fails for nan, an infinity and an int
# past the float range, where math.isfinite would raise OverflowError.
_MAX_FLOAT = math.nextafter(math.inf, 0.0)


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative scheme hit its hard limit before reaching tolerance."""


def _shown(v):
    # repr(v) for a message; an int past the int-to-str digit limit has none
    try:
        return repr(v)
    except Exception:
        return f"<{type(v).__name__} without a repr>"


def _not_real(k):
    return DomainError(f"modulus must be a finite real number, got k={_shown(k)}")


def _real(k):
    # k as a float, of a real number that is not one (numpy's float32, an
    # int64, a Fraction); float() would also take a bool, parse a string and
    # take the real part of a numpy complex scalar
    if isinstance(k, numbers.Real) and type(k) is not bool:
        try:
            return float(k)
        except (TypeError, ValueError, OverflowError):
            pass
    raise _not_real(k)


def _magnitude(k):
    return abs(_real(k))
