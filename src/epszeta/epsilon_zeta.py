"""Jacobi's epsilon and zeta functions on the standard modulus range |k| <= 1.

epsilon(x,k) = integral 0..x dn^2(t,k) dt grows linearly with a periodic
wobble; zeta is the wobble alone.  Both are odd in x and even in k.
One descent of the modulus's AGM kernel (jacobi.py) gives Z by King's
sum, and epsilon = Z + (E/K) x.
"""

import math

from .errors import DomainError
from .jacobi import _Agm, amplitude  # noqa: F401 (a lookup site bench/tests traces)


def epsilon(x: float, k: float) -> float:
    """epsilon(x,k) = E(am(x,k), k), evaluated as Z + (E/K) x."""
    k = abs(k)
    if not k <= 1.0:
        raise DomainError("epsilon: moduli beyond 1 belong to the extended-modulus routines")
    if not math.isfinite(x):
        raise DomainError("epsilon requires finite x")
    if k == 0.0:
        return float(x)
    if k == 1.0:
        return math.tanh(x)
    agm = _Agm(k)
    return agm.phase(x)[2] + agm.ek * x


def zeta(x: float, k: float) -> float:
    """Periodic part of epsilon: Z = epsilon - (E/K) x, period 2K.

    At |k| = 1 the slope E/K vanishes (K diverges) and Z coincides with
    epsilon, i.e. tanh.
    """
    k = abs(k)
    if not k <= 1.0:
        raise DomainError("zeta: moduli beyond 1 belong to the extended-modulus routines")
    if not math.isfinite(x):
        raise DomainError("zeta requires finite x")
    if k == 0.0:
        return 0.0
    if k == 1.0:
        return math.tanh(x)
    return _Agm(k).phase(x)[2]


def zeta_shift_quarter_period(x: float, k: float) -> float:
    """Z(x + K, k) computed without leaving the primary cell:
    Z(x + K) = Z(x) - k^2 sn(x) cn(x) / dn(x)."""
    k = abs(k)
    if not k < 1.0:
        raise DomainError("zeta_shift_quarter_period requires |k| < 1 (K diverges at 1)")
    if not math.isfinite(x):
        raise DomainError("zeta_shift_quarter_period requires finite x")
    return _zeta_shifted(_Agm(k), x)


def _zeta_shifted(agm, x):
    # Z(x + K) from one descent at x
    sn, cn, dn, z = agm.jacobi(x)
    return z - agm.k * agm.k * sn * cn / dn
