"""Jacobi's epsilon and zeta functions on the standard modulus range |k| <= 1.

epsilon(x,k) = integral 0..x dn^2(t,k) dt grows linearly with a periodic
wobble; zeta is the wobble alone.  Both are odd in x and even in k.
Each routine is a call of the standard rule (extended.py) on the
`Modulus` of |k|, which checks k as every `Modulus` does: epsilon is
`epsilon_any`, where epsilon = Z + (E/K) x and its linear term past the
reduction bound are written, and zeta the rule's periodic part Z, King's
sum of one descent, at x taken as `epsilon_any` takes it (a float as it
is, any other real number as float(x) by `errors._real`).
"""

from .errors import _magnitude, _real
from .extended import _STANDARD, Modulus, epsilon_any
from .jacobi import amplitude  # noqa: F401 (a lookup site bench/tests traces)


def epsilon(x: float, k: float) -> float:
    """epsilon(x,k) = E(am(x,k), k), evaluated as Z + (E/K) x.

    Past the reduction bound |x| = 2^51 K, where Z keeps no correct digit
    but |Z| < 1 is below 2^-51 of (E/K) x, it is the linear term (E/K) x.
    """
    return epsilon_any(x, Modulus(_STANDARD, _magnitude(k)))


def zeta(x: float, k: float) -> float:
    """Periodic part of epsilon: Z = epsilon - (E/K) x, period 2K.

    At |k| = 1 the slope E/K vanishes (K diverges) and Z coincides with
    epsilon, i.e. tanh.
    """
    return Modulus(_STANDARD, _magnitude(k))._rule.periodic(
        x if type(x) is float else _real(x, "x"))
