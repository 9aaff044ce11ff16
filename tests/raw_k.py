"""Raw-k forms of the extended-modulus routines, for the tests.

The library validates a modulus only in `Modulus` and evaluates it only
through the dispatchers.  These adapters keep the tests' call sites in
the (x, k) form of the paper: each builds `Modulus(regime, k)`, so a
bad k raises DomainError exactly as the library does, and calls the
dispatcher.  The last three forms exist only as independent cross-checks.
"""

import math

from epszeta import (Modulus, Regime, complete_e, complete_k, ek_ratio,
                     epsilon_any, k_e_continued as _k_e_continued, zeta,
                     zeta_any)


def _large(k):
    return Modulus(Regime.LARGE_REAL, k)


def _imaginary(k):
    return Modulus(Regime.PURE_IMAGINARY, k)


def epsilon_large_real(x, k):
    return epsilon_any(x, _large(k))


def zeta_large_real(x, k, branch="lower"):
    return zeta_any(x, _large(k), branch)


def ek_ratio_large_real(k, branch="lower"):
    return ek_ratio(_large(k), branch)


def k_e_continued(k, branch="lower"):
    return _k_e_continued(_large(k), branch)


def epsilon_imaginary(x, k):
    return epsilon_any(x, _imaginary(k))


def zeta_imaginary(x, k):
    return zeta_any(x, _imaginary(k)).real


def imaginary_submoduli(k):
    """k1 = k/sqrt(1+k^2) and k1p = 1/sqrt(1+k^2) of the modulus i*k, from hypot."""
    _imaginary(k)
    h = math.hypot(1.0, k)
    return k / h, 1.0 / h


def epsilon_large_real_via_zeta(x, k):
    """epsilon for real k > 1 split into the linear trend plus a scaled
    standard zeta; exercises the E/K ratio of the reciprocal modulus."""
    _large(k)
    kr = 1.0 / k
    slope = k * k * complete_e(kr) / complete_k(kr) + 1.0 - k * k
    return slope * x + k * zeta(k * x, kr)


def reciprocal_companion(k):
    """k' = k/sqrt(k^2-1) for k > 1; 1/k' is the complementary modulus of 1/k."""
    _large(k)
    return k / math.sqrt((k - 1.0) * (k + 1.0))
