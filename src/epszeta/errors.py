"""Exception types shared across the library, and what the checks that raise them share."""

import math

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
