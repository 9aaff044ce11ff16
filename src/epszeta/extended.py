"""Epsilon and zeta continued to real moduli beyond 1 and to pure imaginary moduli.

A `Modulus` is the one place where a modulus is validated, its range
included; the dispatchers `epsilon_any`, `zeta_any` and `ek_ratio` are
the entry points, and each regime rule below is written once.
Everything reduces to the standard-range AGM kernel (jacobi.py), built
once per modulus, either of the reciprocal modulus 1/k (real k > 1; DLMF
22.17.14 and 19.7.3) or of the descending pair k1 = k/sqrt(1+k^2), k1p =
1/sqrt(1+k^2) (modulus i*k; DLMF 22.17.8 and 19.7.2).  Signs of moduli
are stripped up front: epsilon and zeta are even in the modulus.

For real k > 1, by Legendre's relation E K' + E' K - K K' = pi/2 (DLMF
19.7.1), K, 1 - E/K and Z of 1/k and K', the K of its complement
sqrt(1 - 1/k^2), give everything.  With s the branch sign, slope =
1 - k^2 (1 - E/K), which tends to 1/2 without cancellation, and half =
(pi/2) k^2 / (K^2 + K'^2):

    epsilon(x, k) = x slope + k Z(kx, 1/k)
    Z(x, k)       = k Z(kx, 1/k) + half (K'/K) x + i s half x
    E/K of k      = slope - half K'/K - i s half
    K(k)          = (K + i s K')/k
    E(k)          = k (K (1/k^2 - (1 - E/K)) - i s (pi/(2K) + K' ((1 - E/K) - 1/k^2)))

The two branches are complex conjugates; the default "lower" one makes
Im Z(x,k) negative for x > 0.  epsilon stays real in every regime.

`Modulus` raises DomainError naming k outside the ranges: standard
0 <= k <= 1; large-real from 1 + 1e-12 while k^2 is finite (to 1.34e154);
pure-imaginary 0 < k < 2^26 (6.7e7), from where k1 rounds to 1.  A
dispatcher names its x, regime and k when its result is not finite or
its descent at kx or x/k1p fails.
"""

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .epsilon_zeta import _zeta_shifted, epsilon, zeta
from .errors import DomainError
from .jacobi import EllipticPair, _Agm, _kernel

# Below this, 1 - 1/k^2 has no correct digits left and the reciprocal
# reduction is numerically meaningless.
_MIN_LARGE = 1.0 + 1e-12


class Regime(enum.Enum):
    STANDARD = "standard"
    LARGE_REAL = "large_real"
    PURE_IMAGINARY = "pure_imaginary"


@dataclass(frozen=True)
class Modulus:
    """Modulus magnitude tagged with its regime (signs are always stripped)."""
    regime: Regime
    k: float

    def __post_init__(self):
        if isinstance(self.k, bool) or not (
                isinstance(self.k, (int, float)) and math.isfinite(self.k)):
            raise DomainError("modulus must be a finite real number")
        if self.regime is Regime.STANDARD:
            if not 0.0 <= self.k <= 1.0:
                raise DomainError("standard regime requires k in [0, 1]")
        elif self.regime is Regime.LARGE_REAL:
            if not self.k >= _MIN_LARGE:
                raise DomainError(
                    "large-real regime requires k > 1; moduli in (1, 1 + 1e-12) are "
                    "numerically meaningless and rejected")
            if not math.isfinite(self.k * self.k):
                raise DomainError(f"the large-real rule has no finite value for the large_real "
                                  f"modulus k={self.k!r}: its k^2 overflows from k = 1.34e154 on")
        else:
            if not self.k > 0.0:
                raise DomainError("pure-imaginary regime requires k > 0")
            if self.k / math.hypot(1.0, self.k) == 1.0:
                raise DomainError(f"pure_imaginary modulus k={self.k!r}: k1 = k/sqrt(1+k^2) "
                                  "rounds to 1 from k = 2^26 on, where K(k1) diverges")

    @classmethod
    def real(cls, k: float) -> "Modulus":
        """Real modulus: |k| <= 1 is standard, |k| > 1 large-real."""
        k = abs(float(k))
        if k <= 1.0:
            return cls(Regime.STANDARD, k)
        return cls(Regime.LARGE_REAL, k)

    @classmethod
    def imaginary(cls, k: float) -> "Modulus":
        """Imaginary modulus i*k; k = 0 collapses to the standard regime."""
        k = abs(float(k))
        if k == 0.0:
            return cls(Regime.STANDARD, 0.0)
        return cls(Regime.PURE_IMAGINARY, k)


class DerivedModuli(NamedTuple):
    """Descending pair for an imaginary modulus i*k; k1^2 + k1p^2 = 1."""
    k1: float
    k1p: float


def imaginary_submoduli(m: Modulus) -> DerivedModuli:
    """k1 = k/sqrt(1+k^2) and k1p = 1/sqrt(1+k^2) of the modulus i*k, both in (0, 1)."""
    if m.regime is not Regime.PURE_IMAGINARY:
        raise DomainError(
            f"imaginary_submoduli requires a pure-imaginary modulus, got {m.regime.value}")
    h = math.hypot(1.0, m.k)
    return DerivedModuli(m.k / h, 1.0 / h)


class _LargeReal:
    # the rule for real k > 1 (module docstring), built once per modulus on
    # the kernel of 1/k; at(x, fn) gives epsilon(x, k), dn(kx, 1/k) and
    # k Z(kx, 1/k) from one descent at kx, or an error naming fn, x and k
    __slots__ = ("m", "rec", "slope")

    def __init__(self, m):
        k = m.k
        self.m = m
        # the complement sqrt(1 - 1/k^2) of 1/k, formed without cancellation
        self.rec = _Agm(1.0 / k, math.sqrt((k - 1.0) * (k + 1.0)) / k)
        self.slope = 1.0 - k * k * self.rec.one_minus_ek

    def legendre(self):
        # (K', half, half K'/K), which epsilon and dn do not need; from k = 9.5e7
        # on the complement of 1/k rounds to 1, and its kernel takes kp = 1/k.
        # k^2 is scaled by a factor below 1, as (pi/2) k^2 can overflow
        rec, k = self.rec, self.m.k
        k_comp = _Agm(rec.kp, rec.k).K
        half = k * k * (0.5 * math.pi / (rec.K * rec.K + k_comp * k_comp))
        return k_comp, half, half * k_comp / rec.K

    def at(self, x, fn):
        k = self.m.k
        try:
            _, _, dn, z = self.rec.jacobi(k * x)
        except DomainError as exc:
            raise _failed(fn, x, self.m, exc) from exc
        z *= k
        return x * self.slope + z, dn, z


def _imaginary(m):
    # the kernel of k1 for the modulus i*k, built on the exact k1p, and the
    # modulus's E/K = E(k1)/(k1p^2 K(k1))
    k1, k1p = imaginary_submoduli(m)
    agm = _Agm(k1, k1p)
    return agm, agm.ek / agm.kp2


def _imaginary_zeta(fn, x, m, agm):
    # Z(x) of the modulus i*k = Z(x/k1p + K(k1), k1)/k1p, one descent at x/k1p
    try:
        return _zeta_shifted(agm, x / agm.kp) / agm.kp
    except DomainError as exc:
        raise _failed(fn, x, m, exc) from exc


def _branch_sign(branch):
    # s = sign of the imaginary part of the continued K(k)
    if branch == "lower":
        return -1.0
    if branch == "upper":
        return 1.0
    raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")


def _failed(fn, x, m, exc):
    # a descent names the kx or x/k1p and the 1/k or k1 it saw, not the caller's x and k
    return DomainError(f"{fn}(x={x!r}) fails for the {m.regime.value} modulus k={m.k!r}: {exc}")


def _finite(fn, x, m, value):
    if not cmath.isfinite(value):
        raise DomainError(
            f"{fn}(x={x!r}) has no finite value for the {m.regime.value} modulus k={m.k!r}")
    return value


def ek_ratio(m: Modulus, branch: str = "lower") -> complex:
    """E/K of the modulus, the slope in Z = epsilon - (E/K) x.

    Real except for real k > 1 (module docstring), where the default
    branch makes Im E/K positive and so Im Z negative for x > 0.  At
    k = 1 the ratio vanishes (K diverges).
    """
    s = _branch_sign(branch)
    if m.regime is Regime.STANDARD:
        return complex(_kernel(m.k).ek, 0.0)
    if m.regime is Regime.LARGE_REAL:
        rule = _LargeReal(m)
        _, half, drift = rule.legendre()
        return complex(rule.slope - drift, -s * half)
    return complex(_imaginary(m)[1], 0.0)


def k_e_continued(m: Modulus, branch: str = "lower") -> EllipticPair:
    """Complete pair (K(k), E(k)) continued to a large-real modulus k > 1 (DLMF 19.7.3).

    Both entries are complex; the branches are conjugates, and the ratio
    E/K of the returned pair matches ek_ratio on the same branch.  Against
    mpmath, |error| <= 3.1e-15 |K| and |E| from k = 1 + 1e-11 to 1e150;
    Im E, which vanishes as k -> 1+, keeps fewer digits of its own there.
    """
    s = _branch_sign(branch)
    if m.regime is not Regime.LARGE_REAL:
        raise DomainError(f"k_e_continued requires a large-real modulus, got {m.regime.value}")
    rule = _LargeReal(m)
    rec, k_comp = rule.rec, rule.legendre()[0]
    # Re E/k = E(1/k) - (1 - 1/k^2) K(1/k) without its cancellation, and
    # Im E/k = E' - K'/k^2 with E' from Legendre's relation
    r2, q = rec.k * rec.k, rec.one_minus_ek
    big_k = complex(rec.K, s * k_comp) / m.k
    big_e = m.k * complex(rec.K * (r2 - q), -s * (0.5 * math.pi / rec.K + k_comp * (q - r2)))
    return EllipticPair(big_k, big_e)


def epsilon_any(x: float, m: Modulus) -> float:
    """epsilon(x, .) dispatched on the modulus regime; real and odd in x in every regime.

    Real k > 1: epsilon(x,k) = k epsilon(kx, 1/k) + (1 - k^2) x, summed
    as in the module docstring.  Imaginary i*k: epsilon = Z + (E/K) x.
    """
    if not math.isfinite(x):
        raise DomainError("epsilon_any requires finite x")
    if m.regime is Regime.STANDARD:
        value = epsilon(x, m.k)
    elif m.regime is Regime.LARGE_REAL:
        value = _LargeReal(m).at(x, "epsilon_any")[0]
    else:
        agm, ek = _imaginary(m)
        value = ek * x + _imaginary_zeta("epsilon_any", x, m, agm)
    return _finite("epsilon_any", x, m, value)


def zeta_any(x: float, m: Modulus, branch: str = "lower") -> complex:
    """Z(x, .) dispatched on the modulus regime.

    The imaginary part is zero except for real k > 1, where it is linear
    in x and the real part is k Z(kx, 1/k) plus a drift linear in x.
    Imaginary i*k: Z(x/k1p + K(k1), k1)/k1p, shifted inside the primary cell.
    """
    s = _branch_sign(branch)
    if not math.isfinite(x):
        raise DomainError("zeta_any requires finite x")
    if m.regime is Regime.STANDARD:
        value = complex(zeta(x, m.k), 0.0)
    elif m.regime is Regime.LARGE_REAL:
        rule = _LargeReal(m)
        _, half, drift = rule.legendre()
        value = complex(rule.at(x, "zeta_any")[2] + drift * x, s * half * x)
    else:
        value = complex(_imaginary_zeta("zeta_any", x, m, _imaginary(m)[0]), 0.0)
    return _finite("zeta_any", x, m, value)
