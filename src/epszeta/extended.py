"""Epsilon and zeta continued to real moduli beyond 1 and to pure imaginary moduli.

A `Modulus` is the one place where a modulus is validated, its range
included; the dispatchers `epsilon_any`, `zeta_any` and `ek_ratio` are
the entry points.  Each regime has one rule, a private class that
holds two things under the same names in every regime: `m`, the
`Modulus` it was built from, and `agm`, the one standard-range AGM
kernel (jacobi.py) its values descend.  `_rule(m)` builds it, once per
call or per curve, from one table keyed by the regime: the only place
that builds a rule and the only branch on the regime that evaluates
anything.  The three rules answer the same four calls: `ek(s)`, E/K of
the modulus on the branch of sign s; `epsilon(x)`; `zeta(x, s)`; and
`integrand()`, the real function whose integral from 0 to x is epsilon
(the quadrature oracle's).  Each node of an integrand costs one bare
descent, `agm.phase`, and a cosine: its square is formed from cos am,
with dn^2 = k'^2 + k^2 cos^2 am and cn^2 = cos^2 am, where the sign of
an odd period index drops out, so no sin, sqrt or (sn, cn, dn) tuple is
made; only the k = 1 limit keeps sech^2 from `jacobi`, since cos^2 gd t
is not sech^2 t at large t.  The elastica curves read `agm` (and the
large-real `slope`) and descend it themselves, once per point.  Signs
of moduli are stripped up front: epsilon and zeta are even in the
modulus.

`_Standard`, 0 <= k <= 1, descends the kernel of k itself
(`jacobi._kernel`, with its k = 1 limit): Z is King's sum and epsilon =
Z + (E/K) x; its E/K is the kernel's and its integrand dn^2(t, k).

`_LargeReal`, real k > 1, reduces through the reciprocal modulus (DLMF
22.17.14 and 19.7.3) on the kernel of 1/k, built on the complement
sqrt(1 - 1/k^2) formed without cancellation.  By Legendre's relation
E K' + E' K - K K' = pi/2 (DLMF 19.7.1), K, 1 - E/K and Z of 1/k and
K', E' of its complement give everything.  K' = K (K'/K) comes from the
same kernel, whose last step gives K'/K through the nome
(`_Agm.period_ratio`); zeta and E/K need only K', and `pair(s)` alone
builds the complement's kernel, for E', and only up to k = sqrt(2).
With s the branch sign, slope = 1 - k^2 (1 - E/K), which tends to 1/2
without cancellation, half = (pi/2) k^2 / (K^2 + K'^2) and
k_c^2 = 1 - 1/k^2:

    epsilon(x, k) = x slope + k Z(kx, 1/k)
    Z(x, k)       = k Z(kx, 1/k) + half (K'/K) x + i s half x
    E/K of k      = slope - half K'/K - i s half
    K(k)          = (K + i s K')/k
    E(k)          = k (K (1/k^2 - (1 - E/K)) - i s K' (k_c^2 - (1 - E'/K')))

The last imaginary part is written as pi/(2K) + K' ((1 - E/K) - 1/k^2)
once k_c^2 > 1/2, where k_c^2 - (1 - E'/K') cancels and E' is not
needed; `pair(s)` gives this (K, E) for `k_e_continued`.  The integrand
is cn^2(kt, 1/k).  The two branches are complex conjugates; the default
"lower" one makes Im Z(x,k) negative for x > 0.  epsilon stays real.

`_Imaginary`, the modulus i*k, reduces through the descending pair
(DLMF 22.17.8 and 19.7.2) on the kernel of k1 = k/h, built on the exact
complement k1p = 1/h with h = hypot(1, k).  E/K of i*k is
E(k1)/(k1p^2 K(k1)), and with u = x/k1p

    Z(x, i*k) = Z(u + K(k1), k1)/k1p = (Z(u) - k1^2 sn cn/dn)/k1p,

from one descent at u inside the primary cell; epsilon = Z + (E/K) x
and the integrand is 1/dn^2(t/k1p, k1).  Both functions stay real.

`Modulus(regime, k)` checks one range per regime, each bound by one
comparison against a constant: standard 0 <= k <= 1; large-real
1 < k <= 1.34e154, beyond which k^2 overflows; pure-imaginary
0 < k < 2^26 (6.7e7), from where k1 rounds to 1.  A refusal names the
regime, k and the bound it fails; a regime that is not a `Regime`
member is refused by name.  A `Modulus` is a frozen value, as
`elastica.ElasticaParams` is: both derive `_Value`, which gives them
==, hash, repr, copy and pickle by their fields without importing
`dataclasses` (and through it `inspect`, about half the library's
import time), and a copied or unpickled value is checked again.
`Modulus.real` and `Modulus.imaginary` take |k| as a float first and
refuse, as non-real, a bool (numpy's too), a string and what float()
cannot convert.  The rule's descent at x, kx or x/k1p is the one check
of x, a non-finite x included; a dispatcher names its x, regime and k
when that descent fails (an int x past the float range included) or its
result is not finite.
"""

import cmath
import enum
import math
import operator

from .errors import _MAX_FLOAT, DomainError, _shown
from .jacobi import EllipticPair, _Agm, _Unit, _kernel

_MAX_LARGE = 1.3407807929942596e154  # the largest float k whose k * k is finite
_MAX_IMAG = 2.0 ** 26  # from here on k1 = k/sqrt(1 + k^2) rounds to 1


def _not_real(k):
    return DomainError(f"modulus must be a finite real number, got k={_shown(k)}")


def _magnitude(k):
    # |k| as a float; float() would also take a bool (numpy's too) and parse a string
    if type(k) is float:  # the common case, checked first to keep it cheap
        return abs(k)
    if type(k).__name__ not in ("bool", "bool_") and not isinstance(k, (str, bytes, bytearray)):
        try:
            return abs(float(k))
        except (TypeError, ValueError, OverflowError):
            pass
    raise _not_real(k)


class Regime(enum.Enum):
    STANDARD = "standard"
    LARGE_REAL = "large_real"
    PURE_IMAGINARY = "pure_imaginary"


class _Value:
    """Frozen value semantics for a slotted class, as a frozen dataclass has
    them: `__match_args__` names the fields, in order, and `__init__` checks
    them and sets them by object.__setattr__.  ==, hash and repr go by the
    fields, == only against the same type; setting or deleting an attribute
    raises AttributeError; and copy, deepcopy and pickle rebuild through
    `__init__`, so an unpickled value is checked again."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the fields' values as one tuple (two fields or more)
        cls._values = property(operator.attrgetter(*cls.__match_args__))

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        shown = ", ".join(map("{}={!r}".format, self.__match_args__, self._values))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class Modulus(_Value):
    """Modulus magnitude tagged with its regime.

    `real` and `imaginary` strip the sign of k; Modulus(regime, k) itself
    takes k as given and refuses a negative one, e.g.
    Modulus(Regime.STANDARD, -0.5).
    """
    __slots__ = __match_args__ = ("regime", "k")

    def __init__(self, regime, k):
        # compared with the largest float, not by math.isfinite, which raises
        # OverflowError on an int past the float range; NaN fails both ways
        if isinstance(k, bool) or not (isinstance(k, (int, float)) and abs(k) <= _MAX_FLOAT):
            raise _not_real(k)
        if regime is Regime.STANDARD:
            if not 0.0 <= k <= 1.0:
                raise DomainError(f"standard regime requires k in [0, 1], got k={k!r}")
        elif regime is Regime.LARGE_REAL:
            if not k > 1.0:
                raise DomainError(f"large-real regime requires k > 1, got k={k!r}")
            if not k <= _MAX_LARGE:
                raise DomainError(f"the large-real rule has no finite value for the large_real "
                                  f"modulus k={k!r}: its k^2 overflows from k = 1.34e154 on")
        elif regime is not Regime.PURE_IMAGINARY:
            raise DomainError(f"regime must be a Regime member, got regime={regime!r}")
        elif not k > 0.0:  # the pure-imaginary regime from here on
            raise DomainError(f"pure-imaginary regime requires k > 0, got k={k!r}")
        elif not k < _MAX_IMAG:
            raise DomainError(f"pure_imaginary modulus k={k!r}: k1 = k/sqrt(1+k^2) "
                              "rounds to 1 from k = 2^26 on, where K(k1) diverges")
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "k", k)

    @classmethod
    def real(cls, k: float) -> "Modulus":
        """Real modulus: |k| <= 1 is standard, |k| > 1 large-real."""
        k = _magnitude(k)
        return cls(Regime.STANDARD if k <= 1.0 else Regime.LARGE_REAL, k)

    @classmethod
    def imaginary(cls, k: float) -> "Modulus":
        """Imaginary modulus i*k; k = 0 collapses to the standard regime."""
        k = _magnitude(k)
        return cls(Regime.STANDARD if k == 0.0 else Regime.PURE_IMAGINARY, k)


class _Standard:
    # the rule for 0 <= k <= 1 (module docstring): the kernel of k itself
    __slots__ = ("m", "agm")

    def __init__(self, m):
        self.m = m
        self.agm = _kernel(m.k)

    def ek(self, s):
        return complex(self.agm.ek, 0.0)

    def epsilon(self, x):
        agm = self.agm
        return agm.phase(x)[2] + agm.ek * x

    def zeta(self, x, s):
        return complex(self.agm.phase(x)[2], 0.0)

    def integrand(self):
        # dn^2 = k'^2 + k^2 cos^2 am(t) from one bare descent, as `jacobi` forms
        # it before its sqrt; the k = 1 limit keeps sech^2, which cos^2 gd t is not
        agm = self.agm
        if isinstance(agm, _Unit):
            return lambda t: agm.jacobi(t)[2] ** 2

        def dn2(t):
            c = math.cos(agm.phase(t)[0])
            return agm.kp2 + (1.0 - agm.kp2) * c * c
        return dn2


class _LargeReal:
    # the rule for real k > 1 (module docstring), built once per modulus on
    # the kernel of 1/k
    __slots__ = ("m", "agm", "slope")

    def __init__(self, m):
        k = m.k
        self.m = m
        # the complement sqrt(1 - 1/k^2) of 1/k, formed without cancellation
        self.agm = _Agm(1.0 / k, math.sqrt((k - 1.0) * (k + 1.0)) / k)
        self.slope = 1.0 - k * k * self.agm.one_minus_ek

    def legendre(self):
        # (half, half K'/K) with K' = K (K'/K) of the complement of 1/k, which
        # epsilon and dn do not need, from the kernel's nome.  k^2 is scaled
        # by a factor below 1, as (pi/2) k^2 can overflow
        agm, k = self.agm, self.m.k
        ratio = agm.period_ratio()
        kc = agm.K * ratio
        half = k * k * (0.5 * math.pi / (agm.K * agm.K + kc * kc))
        return half, half * ratio

    def ek(self, s):
        half, drift = self.legendre()
        return complex(self.slope - drift, -s * half)

    def pair(self, s):
        # (K(k), E(k)) on the branch of sign s.  Re E/k = E(1/k) - (1 - 1/k^2)
        # K(1/k) without its cancellation; Im E/k = -s (E' - K'/k^2) keeps its
        # digits as it vanishes at k -> 1+ up to k = sqrt(2), and takes E' from
        # Legendre's relation above (module docstring).  Up to sqrt(2) it needs
        # 1 - E'/K', so it builds the kernel of the complement there, the only
        # caller that does; K' = K (K'/K) on both sides
        agm, k = self.agm, self.m.k
        kc = agm.K * agm.period_ratio()
        r2, q = agm.k * agm.k, agm.one_minus_ek
        im = (kc * (agm.kp2 - _Agm(agm.kp, agm.k).one_minus_ek) if agm.kp2 <= 0.5
              else 0.5 * math.pi / agm.K + kc * (q - r2))
        return EllipticPair(complex(agm.K, s * kc) / k, k * complex(agm.K * (r2 - q), -s * im))

    def epsilon(self, x):
        k = self.m.k
        return x * self.slope + k * self.agm.phase(k * x)[2]

    def zeta(self, x, s):
        k = self.m.k
        half, drift = self.legendre()
        return complex(k * self.agm.phase(k * x)[2] + drift * x, s * half * x)

    def integrand(self):
        # cn^2(kt, 1/k) = cos^2 am(kt): the sign of an odd period drops out
        k, agm = self.m.k, self.agm
        return lambda t: math.cos(agm.phase(k * t)[0]) ** 2


class _Imaginary:
    # the rule for the modulus i*k (module docstring): the kernel of k1, built
    # on the exact k1p, and the modulus's E/K = E(k1)/(k1p^2 K(k1))
    __slots__ = ("m", "agm", "slope")

    def __init__(self, m):
        self.m = m
        h = math.hypot(1.0, m.k)
        self.agm = _Agm(m.k / h, 1.0 / h)
        self.slope = self.agm.ek / self.agm.kp2

    def ek(self, s):
        return complex(self.slope, 0.0)

    def epsilon(self, x):
        return self.slope * x + self._z(x)

    def zeta(self, x, s):
        return complex(self._z(x), 0.0)

    def _z(self, x):
        # Z(u + K(k1), k1)/k1p from one descent at u = x/k1p
        agm = self.agm
        sn, cn, dn, z = agm.jacobi(x / agm.kp)
        return (z - agm.k * agm.k * sn * cn / dn) / agm.kp

    def integrand(self):
        # 1/dn^2(t/k1p, k1) = 1/(k1p^2 + k1^2 cos^2 am(t/k1p)), as in `_Standard`
        agm, k1p = self.agm, self.agm.kp

        def inverse_dn2(t):
            c = math.cos(agm.phase(t / k1p)[0])
            return 1.0 / (agm.kp2 + (1.0 - agm.kp2) * c * c)
        return inverse_dn2


_RULES = {Regime.STANDARD: _Standard, Regime.LARGE_REAL: _LargeReal,
          Regime.PURE_IMAGINARY: _Imaginary}


def _rule(m):
    # the rule of the modulus's regime, built once per call
    return _RULES[m.regime](m)


def _branch_sign(branch):
    # s = sign of the imaginary part of the continued K(k)
    if branch == "lower":
        return -1.0
    if branch == "upper":
        return 1.0
    raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")


def _failed(fn, x, m, exc, arg="x"):
    # a descent names the kx or x/k1p and the 1/k or k1 it saw, and the
    # bisection its own interval, not the caller's x (the elastica's u, as
    # `arg` says) and k: an error of the same type that names them, a
    # DomainError for the OverflowError of an int x past the float range
    kind = DomainError if isinstance(exc, OverflowError) else type(exc)
    return kind(f"{fn}({arg}={_shown(x)}) fails for the {m.regime.value} modulus k={m.k!r}: {exc}")


def _evaluate(fn, x, m, run):
    # run(rule) for epsilon_any and zeta_any; a descent error (a non-finite
    # x included) or a non-finite value names the caller's x, the regime and k
    try:
        value = run(_rule(m))
    except (DomainError, OverflowError) as exc:
        raise _failed(fn, x, m, exc) from exc
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
    return _rule(m).ek(_branch_sign(branch))


def k_e_continued(m: Modulus, branch: str = "lower") -> EllipticPair:
    """Complete pair (K(k), E(k)) continued to a large-real modulus k > 1 (DLMF 19.7.3).

    Both entries are complex; the branches are conjugates, and the ratio
    E/K of the returned pair matches ek_ratio on the same branch.  Against
    mpmath, |error| <= 3.1e-15 |K| and |E| from the float after 1 to 1e150;
    Im E, which vanishes as k -> 1+, is within 8e-16 of itself there.
    """
    if m.regime is not Regime.LARGE_REAL:
        raise DomainError(f"k_e_continued requires a large-real modulus, got {m.regime.value}")
    return _rule(m).pair(_branch_sign(branch))


def epsilon_any(x: float, m: Modulus) -> float:
    """epsilon(x, .) dispatched on the modulus regime; real and odd in x in every regime.

    Real k > 1: epsilon(x,k) = k epsilon(kx, 1/k) + (1 - k^2) x, summed
    as in the module docstring.  Imaginary i*k: epsilon = Z + (E/K) x.
    """
    return _evaluate("epsilon_any", x, m, lambda rule: rule.epsilon(x))


def zeta_any(x: float, m: Modulus, branch: str = "lower") -> complex:
    """Z(x, .) dispatched on the modulus regime.

    The imaginary part is zero except for real k > 1, where it is linear
    in x and the real part is k Z(kx, 1/k) plus a drift linear in x.
    Imaginary i*k: Z(x/k1p + K(k1), k1)/k1p, shifted inside the primary cell.
    """
    s = _branch_sign(branch)
    return _evaluate("zeta_any", x, m, lambda rule: rule.zeta(x, s))
