"""Adaptive integration on a closed 8-panel Newton-Cotes base rule.

The 9-point rule is exact through degree 9; `newton_cotes_8` sums its
nine weighted nodes in one expression, in the order of the nodes.
Adaptive bisection compares
each interval against its two halves and accepts once the Richardson
estimate |delta|/1023 meets the local tolerance (the rule's local error
scales as h^11, so halving the step gains a factor of 2^10).

`epsilon_by_quadrature`, the oracle that checks the regime transforms,
integrates a regime's integrand (extended.py) from 0 to |x|.  It folds
|x| by the integrand's half period H: the q whole half periods in |x|
each hold the same integral J, which the periodic trapezoidal rule
gives to a few ulps, and the rest of |x| is one adaptive integration on
[0, H] (its docstring).  So an interval of many periods costs no more
than one, cannot alias under its first 9-node panel, and keeps its
relative precision however many half periods it spans.  Its half period and
integrand come from the rule that the `Modulus` built (extended.py), so
an oracle call and an `epsilon_any` call on one `Modulus` descend one
AGM kernel between them and build none.  It takes x as `epsilon_any`
does, a float as it is and any other real number as float(x)
(`errors._real`), and names a refused x, the regime and k.
"""

from collections import namedtuple
from collections.abc import Callable

from .errors import _MAX_FLOAT, ConvergenceError, DomainError, _real
from .extended import Modulus, _failed

_MAX_DEPTH = 48  # interval widths hit the machine-epsilon scale well before this
_MAX_NODES = 2 ** 12  # intervals of [0, H]; k next to 1 and i*k near 2^26 need 128


QuadratureResult = namedtuple("QuadratureResult", "value err_estimate")


def newton_cotes_8(f: Callable[[float], float], a: float, b: float) -> float:
    """One application of the 9-point closed Newton-Cotes rule on [a, b]."""
    h = (b - a) / 8.0
    # the weights times 14175/(4h) at the nodes a + i h, i = 0 to 8 in order,
    # summed from 0.0 (i h is exact for a float i as for an int one)
    return (0.0 + 989.0 * f(a + 0.0 * h) + 5888.0 * f(a + h) - 928.0 * f(a + 2.0 * h)
            + 10496.0 * f(a + 3.0 * h) - 4540.0 * f(a + 4.0 * h) + 10496.0 * f(a + 5.0 * h)
            - 928.0 * f(a + 6.0 * h) + 5888.0 * f(a + 7.0 * h) + 989.0 * f(a + 8.0 * h)
            ) * h * (4.0 / 14175.0)


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
            f"no convergence to tol={tol:g} on [{a!r}, {b!r}] after {_MAX_DEPTH} subdivisions")
    lv, le = _bisect(f, a, mid, left, 0.5 * tol, depth - 1)
    rv, re = _bisect(f, mid, b, right, 0.5 * tol, depth - 1)
    return lv + rv, le + re


def regime_integrand(m: Modulus) -> Callable[[float], float]:
    """The real integrand whose integral from 0 to x gives epsilon(x, m).

    Standard: dn^2(t,k).  Real k > 1: cn^2(kt, 1/k).  Imaginary i*k:
    1/dn^2(t/k1p, k1).  It is the `integrand()` of the rule that the
    `Modulus` built with the AGM kernel of its standard-range modulus
    (extended.py), so each evaluation is one amplitude-only descent
    (`_Agm.cos_phase`, no King's sum) and the square formed from its cos
    am; at k = 1 it stays sech^2.
    """
    return m._rule.integrand()


def epsilon_by_quadrature(x: float, m: Modulus, tol: float = 1e-10) -> float:
    """epsilon(x, m) by direct quadrature of the regime integrand.

    The slow, independent route used to validate the transformation
    formulas.  Every regime integrand is even in t, so negative x is
    folded through the origin and the result is exactly odd in x.

    Each integrand f has period 2H and is even about H as about 0, with
    H = K(k), K(1/k)/k or K(k1) k1p (the rule's `half`), so each half
    period holds the same integral J.  With |x| = q H + r and 0 <= r < H
    (q = 0 below H, and always at k = 1, where H = inf), the result is
    q J + R for even q and q J + J - R for odd q, with R the integral over
    [0, r] or over [0, H - r].  R is one adaptive integration, to tol
    where q = 0 and to tol/2 where q > 0.  J is the trapezoidal rule on
    [0, H] (`_half_period`), which converges geometrically for a periodic
    analytic f, so q J keeps a relative error of a few ulps whatever q
    is, and no node lies past H.  This assumes only the period and
    symmetry of dn^2, cn^2 and 1/dn^2, not the transforms under test.
    Real k = 5 at x = 3 took 567 integrand evaluations as one
    integration and takes 36.
    """
    half = m._rule.half
    f = regime_integrand(m)
    try:
        x = x if type(x) is float else _real(x, "x")
        q, r = divmod(abs(x), half)  # r = |x| - q H exactly
        odd = q % 2.0
        j = _half_period(f, half) if q else 0.0
        rest = integrate(f, 0.0, half - r if odd else r, 0.5 * tol if q else tol).value
        value = q * j + (j - rest if odd else rest)
    except (DomainError, ConvergenceError) as exc:
        # the bisection names its own interval and the trapezoidal rule its
        # half period, not the caller's x
        raise _failed("epsilon_by_quadrature", x, m, exc) from exc
    return value if x >= 0.0 else -value


def _half_period(f, half):
    # J, the integral of f over [0, H], by the trapezoidal rule with halved
    # end weights: half the rule over a full period 2H, whose error falls
    # geometrically with the node count for a periodic analytic f (Trefethen
    # and Weideman, SIAM Review 56, 2014).  Each level halves the step and
    # adds the new midpoints to the sum; once two levels agree to 1.5e-8 J,
    # about the root of the float epsilon, the finer one is good to about
    # its square
    n, step = 4, 0.25 * half
    total = 0.5 * (f(0.0) + f(half)) + f(step) + f(2.0 * step) + f(3.0 * step)
    value = total * step
    while n < _MAX_NODES:
        n, step = 2 * n, 0.5 * step
        for i in range(1, n, 2):
            total += f(i * step)
        last, value = value, total * step
        if abs(value - last) <= 1.5e-8 * value:
            return value
    raise ConvergenceError(f"no convergence on [0, {half!r}] after {n} trapezoidal intervals")
