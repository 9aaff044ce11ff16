"""Adaptive integration on a closed 8-panel Newton-Cotes base rule.

The 9-point rule is exact through degree 9.  Adaptive bisection compares
each interval against its two halves and accepts once the Richardson
estimate |delta|/1023 meets the local tolerance (the rule's local error
scales as h^11, so halving the step gains a factor of 2^10).
"""

from collections import namedtuple
from collections.abc import Callable

from .errors import _MAX_FLOAT, ConvergenceError, DomainError
from .extended import Modulus, _failed, _rule

# closed Newton-Cotes weights on 9 equally spaced points, times 14175/(4h)
_NC8_W = (989.0, 5888.0, -928.0, 10496.0, -4540.0, 10496.0, -928.0, 5888.0, 989.0)

_MAX_DEPTH = 48  # interval widths hit the machine-epsilon scale well before this


QuadratureResult = namedtuple("QuadratureResult", "value err_estimate")


def newton_cotes_8(f: Callable[[float], float], a: float, b: float) -> float:
    """One application of the 9-point closed Newton-Cotes rule on [a, b]."""
    h = (b - a) / 8.0
    total = 0.0
    for i, w in enumerate(_NC8_W):
        total += w * f(a + i * h)
    return total * h * (4.0 / 14175.0)


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> QuadratureResult:
    """Integral of f over [a, b] with adaptive bisection.

    err_estimate sums the Richardson estimates |delta|/1023 of the
    accepted intervals.  It bounds the error only where f is smooth
    enough on each interval that halving the step gains the factor 2^10
    the estimate assumes; where f is not, the true error can exceed
    both tol and err_estimate by orders of magnitude.  Raises
    ConvergenceError if 48 subdivision levels do not reach tol.
    """
    if not -_MAX_FLOAT <= a <= b <= _MAX_FLOAT:
        raise DomainError("integrate requires finite a <= b")
    if not tol > 0.0:
        raise DomainError("integrate requires tol > 0")
    if a == b:
        return QuadratureResult(0.0, 0.0)
    value, err = _bisect(f, a, b, newton_cotes_8(f, a, b), tol, _MAX_DEPTH)
    return QuadratureResult(value, err)


def _bisect(f, a, b, whole, tol, depth):
    mid = 0.5 * (a + b)
    left = newton_cotes_8(f, a, mid)
    right = newton_cotes_8(f, mid, b)
    est = abs(left + right - whole) / 1023.0
    if est <= tol:
        return left + right, est
    if depth == 0:
        raise ConvergenceError(
            f"no convergence to tol={tol:g} on [{a:g}, {b:g}] after {_MAX_DEPTH} subdivisions")
    lv, le = _bisect(f, a, mid, left, 0.5 * tol, depth - 1)
    rv, re = _bisect(f, mid, b, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re


def regime_integrand(m: Modulus) -> Callable[[float], float]:
    """The real integrand whose integral from 0 to x gives epsilon(x, m).

    Standard: dn^2(t,k).  Real k > 1: cn^2(kt, 1/k).  Imaginary i*k:
    1/dn^2(t/k1p, k1).  It is the `integrand()` of the modulus's regime
    rule (extended.py), which builds the AGM kernel of the standard-range
    modulus once, so each evaluation is one amplitude-only descent
    (`_Agm.cos_phase`, no King's sum) and the square formed from its cos
    am; at k = 1 it stays sech^2.
    """
    return _rule(m).integrand()


def epsilon_by_quadrature(x: float, m: Modulus, tol: float = 1e-10) -> float:
    """epsilon(x, m) by direct quadrature of the regime integrand.

    The slow, independent route used to validate the transformation
    formulas.  Every regime integrand is even in t, so negative x is
    folded through the origin and the result is exactly odd in x.
    """
    f = regime_integrand(m)
    try:
        value = integrate(f, 0.0, abs(x), tol).value
    except (DomainError, ConvergenceError) as exc:
        # the integrand sees kt or t/k1p and the bisection its own interval, not the caller's x
        raise _failed("epsilon_by_quadrature", x, m, exc) from exc
    return value if x >= 0.0 else -value
