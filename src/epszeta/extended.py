"""Epsilon and zeta continued to real moduli beyond 1 and to pure imaginary moduli.

A `Modulus` is the one place where a modulus is validated; the
dispatchers `epsilon_any`, `zeta_any` and `ek_ratio` are the entry
points, and each regime rule below is written once.  Everything reduces
to the standard-range routines, either through the reciprocal modulus
1/k (real k > 1; DLMF 22.17.14 and 19.7.3) or through the descending
pair k1 = k/sqrt(1+k^2), k1p = 1/sqrt(1+k^2) (modulus i*k; DLMF 22.17.8
and 19.7.2).  Each rule builds the AGM kernel (jacobi.py) of every
standard-range modulus it needs once and takes K, E, E/K and Z from it.
Signs of real or imaginary moduli are stripped up front: epsilon and
zeta are even in the modulus.

For real k > 1 the complete integrals, and with them zeta, acquire an
imaginary part, and the two boundary values of the continuation are
complex conjugates.  The default "lower" branch is the convention that
makes Im Z(x,k) negative for x > 0; "upper" is its conjugate.  epsilon
stays real in every regime.  A dispatcher whose result is not finite
raises DomainError instead of returning it.
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
        else:
            if not self.k > 0.0:
                raise DomainError("pure-imaginary regime requires k > 0")

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
    k1 = m.k / h
    if k1 == 1.0:
        raise DomainError(
            "imaginary modulus i*k too large: from k = 2^26 (about 6.7e7) on, "
            "k1 = k/sqrt(1+k^2) rounds to 1, where K(k1) diverges")
    return DerivedModuli(k1, 1.0 / h)


def _reciprocal(k):
    # the kernel of 1/k, given its complementary modulus sqrt(1 - 1/k^2)
    # formed without cancellation as sqrt((k-1)(k+1))/k.  It rounds to 1
    # from k = 9.5e7 on, so from 2^27 on it is taken as 1 and (k-1)(k+1),
    # which overflows from k = 1.3e154, is not formed
    kp = math.sqrt((k - 1.0) * (k + 1.0)) / k if k < 2.0 ** 27 else 1.0
    return _Agm(1.0 / k, kp)


def _reciprocal_integrals(k):
    # the kernels of 1/k and of its complementary modulus, each the
    # complement of the other
    rec = _reciprocal(k)
    if not rec.kp < 1.0:
        raise DomainError(
            f"real modulus k={k!r} too large: beyond about k = 7e7 (always from 9.5e7 on) "
            "the complementary modulus sqrt(1 - 1/k^2) of 1/k rounds to 1, where K diverges")
    return rec, _Agm(rec.kp, rec.k)


class _LargeRealEpsilon:
    # the rule for real k > 1, built once per modulus around the kernel of
    # 1/k: its at(x) gives epsilon(x, k) and dn(kx, 1/k) from one
    # descent at kx.  epsilon(x, k) = k epsilon(kx, 1/k) + (1 - k^2) x
    #   = x (1 - k^2 (1 - E/K)) + k Z(kx, 1/k);
    # k^2 (1 - E/K) tends to 1/2, so no two terms of size k^2 x cancel
    __slots__ = ("m", "fn", "rec", "slope")

    def __init__(self, m, fn):
        self.m, self.fn = m, fn
        self.rec = _reciprocal(m.k)
        self.slope = 1.0 - m.k * m.k * self.rec.one_minus_ek

    def at(self, x):
        # from k = 1.3e154 on k^2 overflows, and epsilon with it, whatever
        # the kernel would make of kx
        slope = self.slope
        if not math.isfinite(slope):
            raise _no_finite_value(self.fn, x, self.m)
        k = self.m.k
        _, _, dn, z = self.rec.jacobi(k * x)
        return x * slope + k * z, dn


def _imaginary(m):
    # the kernel of k1 for the modulus i*k, built on the exact k1p
    k1, k1p = imaginary_submoduli(m)
    return _Agm(k1, k1p)


def _imaginary_parts(agm, x):
    # E/K and Z(x) of the modulus i*k from the kernel of k1, agm = _imaginary(m):
    # E/K = E(k1)/(k1p^2 K(k1)) and Z(x) = Z(x/k1p + K(k1), k1)/k1p
    return agm.ek / agm.kp2, _zeta_shifted(agm, x / agm.kp) / agm.kp


def _branch_sign(branch):
    # s = sign of the imaginary part of the continued K(k)
    if branch == "lower":
        return -1.0
    if branch == "upper":
        return 1.0
    raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")


def _no_finite_value(fn, x, m):
    return DomainError(
        f"{fn}(x={x!r}) has no finite value for the {m.regime.value} modulus k={m.k!r}")


def _finite(fn, x, m, value):
    if not cmath.isfinite(value):
        raise _no_finite_value(fn, x, m)
    return value


def ek_ratio(m: Modulus, branch: str = "lower") -> complex:
    """E/K of the modulus, the slope in Z = epsilon - (E/K) x.

    Real except for real k > 1, where, by the Legendre relation, the
    imaginary part equals +/- k^2 (pi/2) / (K^2(1/k) + K^2(1/k')); the
    default branch takes the plus sign, which is what makes Im Z
    negative for x > 0.  At k = 1 the ratio vanishes (K diverges).
    """
    s = _branch_sign(branch)
    if m.regime is Regime.STANDARD:
        return complex(_kernel(m.k).ek, 0.0)
    if m.regime is Regime.LARGE_REAL:
        k = m.k
        rec, comp = _reciprocal_integrals(k)
        k_rec, e_rec, k_comp, e_comp = rec.K, rec.E, comp.K, comp.E
        denom = k_rec * k_rec + k_comp * k_comp
        re = 1.0 + k * k * (k_rec * (e_rec - k_rec) - e_comp * k_comp) / denom
        im = -s * k * k * (k_comp * (e_rec - k_rec) + e_comp * k_rec) / denom
        return complex(re, im)
    agm = _imaginary(m)
    return complex(agm.ek / agm.kp2, 0.0)


def k_e_continued(m: Modulus, branch: str = "lower") -> EllipticPair:
    """Complete pair (K(k), E(k)) continued to a large-real modulus k > 1 (DLMF 19.7.3).

    Both entries are complex; the branches are conjugates, and the ratio
    E/K of the returned pair matches ek_ratio on the same branch.
    Accuracy degrades as k -> 1+ where K(1/k) diverges.
    """
    s = _branch_sign(branch)
    if m.regime is not Regime.LARGE_REAL:
        raise DomainError(f"k_e_continued requires a large-real modulus, got {m.regime.value}")
    k = m.k
    rec, comp = _reciprocal_integrals(k)
    big_k = complex(rec.K, s * comp.K) / k
    # Re E/k = E(1/k) - (1 - 1/k^2) K(1/k) cancels to 1/(2k^2) of its terms;
    # K(1/k) (1/k^2 - (1 - E/K)) is the same value with no cancellation
    big_e = k * complex(rec.K * (rec.k * rec.k - rec.one_minus_ek),
                        -s * (comp.E - comp.kp2 * comp.K))
    return EllipticPair(big_k, big_e)


def epsilon_any(x: float, m: Modulus) -> float:
    """epsilon(x, .) dispatched on the modulus regime; real and odd in x in every regime.

    Real k > 1: epsilon(x,k) = k epsilon(kx, 1/k) + (1 - k^2) x, summed as
    x (1 - k^2 (1 - E/K)) + k Z(kx, 1/k) with E, K of 1/k.
    Imaginary i*k: epsilon = Z + (E/K) x.
    """
    if not math.isfinite(x):
        raise DomainError("epsilon_any requires finite x")
    if m.regime is Regime.STANDARD:
        value = epsilon(x, m.k)
    elif m.regime is Regime.LARGE_REAL:
        value = _LargeRealEpsilon(m, "epsilon_any").at(x)[0]
    else:
        ek, z = _imaginary_parts(_imaginary(m), x)
        value = ek * x + z
    return _finite("epsilon_any", x, m, value)


def zeta_any(x: float, m: Modulus, branch: str = "lower") -> complex:
    """Z(x, .) dispatched on the modulus regime.

    The imaginary part is zero except for real moduli beyond 1, where the
    real part is k Z(kx, 1/k) plus a drift linear in x and the imaginary
    part is exactly linear in x.  Imaginary i*k: Z(x/k1p + K(k1), k1)/k1p,
    with the quarter-period shift taken inside the primary cell.
    """
    s = _branch_sign(branch)
    if not math.isfinite(x):
        raise DomainError("zeta_any requires finite x")
    if m.regime is Regime.STANDARD:
        value = complex(zeta(x, m.k), 0.0)
    elif m.regime is Regime.LARGE_REAL:
        k = m.k
        rec, comp = _reciprocal_integrals(k)
        k_rec, k_comp = rec.K, comp.K
        bracket = rec.ek + comp.ek - 1.0
        denom = k_rec * k_rec + k_comp * k_comp
        re = k * rec.phase(k * x)[2] + (k * k * k_comp * k_comp / denom) * bracket * x
        im = s * (k * k * k_rec * k_comp / denom) * bracket * x
        value = complex(re, im)
    else:
        value = complex(_imaginary_parts(_imaginary(m), x)[1], 0.0)
    return _finite("zeta_any", x, m, value)
