"""Jacobi's epsilon and zeta functions on the standard modulus range |k| <= 1.

epsilon(x,k) = integral 0..x dn^2(t,k) dt grows linearly with a periodic
wobble; zeta is the wobble alone.  Both are odd in x and even in k.
Each routine takes the modulus's AGM kernel from `jacobi._kernel`, which
checks k and gives the k = 1 limit, and descends it once at x: King's
sum gives Z, and epsilon = Z + (E/K) x.
"""

from .errors import _MAX_FLOAT, DomainError
from .jacobi import _kernel, amplitude  # noqa: F401 (a lookup site bench/tests traces)


def epsilon(x: float, k: float) -> float:
    """epsilon(x,k) = E(am(x,k), k), evaluated as Z + (E/K) x.

    Past the reduction bound |x| = 2^51 K, where Z keeps no correct digit
    but |Z| < 1 is below 2^-51 of (E/K) x, it is the linear term (E/K) x.
    """
    agm = _kernel(k)
    try:
        z = agm.phase(x)[2]
    except DomainError:
        if not abs(x) <= _MAX_FLOAT:
            raise
        return agm.ek * x
    return z + agm.ek * x


def zeta(x: float, k: float) -> float:
    """Periodic part of epsilon: Z = epsilon - (E/K) x, period 2K.

    At |k| = 1 the slope E/K vanishes (K diverges) and Z coincides with
    epsilon, i.e. tanh.
    """
    return _kernel(k).phase(x)[2]
