"""Adaptive integration on a closed 8-panel Newton-Cotes base rule.

The 9-point rule is exact through degree 9; `newton_cotes_8` sums its
nine weighted nodes in one expression, in the order of the nodes.
Adaptive bisection compares
each interval against its two halves and accepts once the Richardson
estimate |delta|/1023 meets the local tolerance (the rule's local error
scales as h^11, so halving the step gains a factor of 2^10).

`epsilon_by_quadrature`, the oracle that checks the regime transforms,
integrates a regime's integrand (extended.py) from 0 to |x|.  Once |x|
spans one of the integrand's half periods it folds by them: it
integrates one half period once, in two pieces split where the rest
ends, and weights each piece by how often it recurs in [0, |x|] (its
docstring), so an interval of many periods costs no more than one and
cannot alias under its first 9-node panel.  Its half period and
integrand come from the rule that the `Modulus` built (extended.py), so
an oracle call and an `epsilon_any` call on one `Modulus` descend one
AGM kernel between them and build none.
"""

from collections import namedtuple
from collections.abc import Callable

from .errors import _MAX_FLOAT, ConvergenceError, DomainError
from .extended import Modulus, _failed
from .jacobi import _MAX_PERIODS

_MAX_DEPTH = 48  # interval widths hit the machine-epsilon scale well before this


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
    period holds the same integral J.  Where H <= |x| <= 2^50 H, with
    |x| = q H + r and 0 <= r < H, the result is q J + R, with R the
    integral over [0, r] for even q or over [H - r, H] for odd q.  [0, H]
    is integrated once, in two pieces split at p = r (q even) or
    p = H - r (q odd): A over [0, p] and B over [p, H].  Then J = A + B,
    R is A (q even) or B (q odd), and q J + R = n_A A + n_B B with
    n_A = q + [q even] and n_B = q + [q odd].  Each piece is integrated
    to tol/(2n) for its weight n, so the weighted errors still sum to
    tol; at r = 0 one piece is empty.  This assumes only the period and
    symmetry of dn^2, cn^2 and 1/dn^2, not the transforms under test.
    Real k = 5 at x = 3 took 567 integrand evaluations as one
    integration, 90 folded from 2H on, and takes 54.  The fold fails
    long before 2^50 H: once a piece's absolute tolerance tol/(2n) is
    below the rounding error of a piece of size about H, its bisection
    raises ConvergenceError, at tol 1e-11 from about 1.3 2^24 H at i*1.5,
    1.3 2^26 H at real 0.5 and real 0.05, and 1.3 2^28 H at real 5.
    Below H, past 2^50 H, and always at k = 1 (H = inf), it is one
    integration of [0, |x|] to tol.  Past 2^50 H that integration fails:
    up to 2^51 H its bisection meets no tolerance on a tiny interval
    (ConvergenceError), and beyond, its last node meets the descent's
    refusal of x past 2^51 H (DomainError).
    """
    half = m._rule.half
    f = regime_integrand(m)
    ax = abs(x)
    try:
        if half <= ax <= _MAX_PERIODS * half:
            q, r = divmod(ax, half)  # r = |x| - q H exactly
            p, n_a, n_b = (half - r, q, q + 1.0) if q % 2 else (r, q + 1.0, q)
            value = (n_a * integrate(f, 0.0, p, tol / (2.0 * n_a)).value
                     + n_b * integrate(f, p, half, tol / (2.0 * n_b)).value)
        else:
            value = integrate(f, 0.0, ax, tol).value
    except (DomainError, ConvergenceError) as exc:
        # the integrand sees kt or t/k1p and the bisection its own interval, not the caller's x
        raise _failed("epsilon_by_quadrature", x, m, exc) from exc
    return value if x >= 0.0 else -value
