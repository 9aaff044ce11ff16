"""Carlson's symmetric elliptic integral of the first kind, RF.

RF uses the duplication theorem: every pass pulls the arguments toward
their mean four times faster, and a short Taylor series about the mean
finishes the job (Carlson, "Computing elliptic integrals by
duplication", Numer. Math. 33, 1979; series constants from the 1994
revision, arXiv math/9409227).  It gives the incomplete integral
F(phi, k) of the first kind (DLMF 19.25(i)), from which `incomplete_e`
descends the AGM kernel (jacobi.py).
"""

import math

from .errors import _MAX_FLOAT, DomainError, _real

# Duplication stops once the normalized deviations |X|, |Y|, |Z| drop
# below this cutoff: the remainder of the degree-7 series is below
# t**8/4, under 1e-16 at t = 1.1e-2.
_RF_CUT = 1.1e-2


def rf(x: float, y: float, z: float) -> float:
    """Carlson RF(x,y,z) = (1/2) * integral 0..inf dt / sqrt((t+x)(t+y)(t+z)).

    Fully symmetric; at most one argument may be zero.  Arguments are
    sorted on entry so all six orderings give bit-identical results.  Each
    is taken as a public routine takes its x: a float as it is, any other
    real number as its float (`errors._real`), which refuses what is not
    one, naming it.
    """
    x, y, z = (x if type(x) is float else _real(x, "x"), y if type(y) is float else _real(y, "y"),
               z if type(z) is float else _real(z, "z"))
    if not all(0.0 <= v <= _MAX_FLOAT for v in (x, y, z)):
        raise DomainError(
            f"rf arguments must be finite and non-negative, got ({x!r}, {y!r}, {z!r})")
    if (x == 0.0) + (y == 0.0) + (z == 0.0) > 1:
        raise DomainError("rf diverges when two or more arguments are zero")
    x, y, z = sorted((x, y, z))
    mean = mean0 = (x + y + z) / 3.0
    dev = max(mean0 - x, z - mean0)
    xn, yn, zn, scale = x, y, z, 1.0
    while dev > _RF_CUT * scale * mean:
        sx, sy, sz = math.sqrt(xn), math.sqrt(yn), math.sqrt(zn)
        lam = sx * (sy + sz) + sy * sz
        xn, yn, zn = (xn + lam) / 4.0, (yn + lam) / 4.0, (zn + lam) / 4.0
        mean = (mean + lam) / 4.0
        scale *= 4.0
    dx = (mean0 - x) / (scale * mean)
    dy = (mean0 - y) / (scale * mean)
    dz = -(dx + dy)
    e2 = dx * dy - dz * dz
    e3 = dx * dy * dz
    series = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0
              - 3.0 * e2 * e3 / 44.0 - 5.0 * e2 ** 3 / 208.0
              + 3.0 * e3 * e3 / 104.0 + e2 * e2 * e3 / 16.0)
    return series / math.sqrt(mean)
