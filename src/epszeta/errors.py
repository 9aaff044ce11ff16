"""Exception types shared across the library, and what the checks that raise them share.

One definition of "a finite real number" serves every check of a
modulus, `Modulus` (extended.py) and `jacobi._kernel` alike, and of an
argument x (or phi, u, rf's y and z) where a public routine takes it:
`_real` takes an argument that is not a float as float(v) if it is a
`numbers.Real` (numpy's float64, float32 or int64, a Fraction, an int)
and refuses a bool, what is not a `numbers.Real` (numpy's bool, a
complex number, numpy's complex scalars included, a string, bytes, a
Decimal, None) and what float() cannot convert (an int past the float
range), naming the argument: a k with `_not_real`, which also names a k that is not finite,
any other as not a finite float; `_magnitude` is |k| of that float.
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


def _real(v, name="k"):
    # v as a float, of a real number that is not one (numpy's float32, an
    # int64, a Fraction, an int); float() would also take a bool, parse a
    # string and take the real part of a numpy complex scalar
    if isinstance(v, numbers.Real) and type(v) is not bool:
        try:
            return float(v)
        except (TypeError, ValueError, OverflowError):
            pass
    raise _not_real(v) if name == "k" else DomainError(f"{name}={_shown(v)} is not a finite float")


def _magnitude(k):
    return abs(_real(k))
