"""Epsilon and zeta continued to real moduli beyond 1 and to pure imaginary moduli.

A `Modulus` is the one place where a modulus is validated, its range
included, for the dispatchers `epsilon_any`, `zeta_any` and `ek_ratio`,
the entry points, and for `epsilon` and `zeta` (epsilon_zeta.py), which
are calls of the standard rule on the `Modulus` of |k|.  Each regime
has one rule, which `Modulus.__init__` builds in the branch that
checked its range, once, into the slot `_rule`: the only branch on the
regime that evaluates anything.  The standard rule is the AGM kernel of
k itself (`jacobi._Agm`), which answers the rule's calls; the two other
rules are private classes here, each holding `agm`, the one
standard-range kernel its values descend, and what its own calls read
besides, such as the large-real rule's k.  No rule holds the `Modulus`,
so no reference cycle is made.  Every caller reads `m._rule`: the
dispatchers, `k_e_continued`, the elastica's curves and the quadrature
oracle, whose half period and integrand so descend the kernel that
`epsilon_any` does.  A caller who holds a `Modulus` builds the kernel once, with it,
and each value after that costs one descent.

In every regime epsilon is a linear term plus a periodic part, as the
reductions below write it: epsilon(x) = slope x + P(x), with slope the
real E/K and P = epsilon - slope x the periodic part of one modulus in
[0, 1].  The three rules answer the same calls and attributes:
`slope`; `periodic(x)`, P; the Legendre terms `w` and `drift`, numbers
that are 0.0 but in the large-real rule; `integrand(t)`, the real
function of t whose integral from 0 to x is epsilon (the quadrature
oracle's, which takes the bound method); and `half`, its half period H
in t: the integrand has period 2H and is even about H (DLMF 22.4),
which the oracle folds by.  No rule forms epsilon, Z or E/K: each is
written once, in its dispatcher, with s the branch sign,

    epsilon_any   P(x) + slope x
    zeta_any      P(x) + drift x + i (s w x + 0.0)
    ek_ratio      slope - drift + i (0.0 - s w)

where the 0.0 keeps a zero w's imaginary part +0.0 on both branches,
not -0.0 on one.  Each node of an integrand costs one amplitude-only
descent, `agm.cos_phase`, which skips King's sum and gives the cosine
of the reduced amplitude (past the primary cell, where a node lies only
by a rounding at the half period, that of `agm.phase`): its square is formed from cos am, with
dn^2 = k'^2 + k^2 cos^2 am and cn^2 = cos^2 am, where the sign of an
odd period index drops out, so no Z, sin, sqrt or tuple is made, and
no function is built per call: the method reads its kernel and k from
its rule.  At k = 1 the kernel's limit gives cos am = sech t itself and
k'^2 = 0 (jacobi.py), so the standard integrand has one form.  The two
real-modulus rules also give `columns(us, s)`, all an elastica curve
needs and no more: the columns of cn of their own k and of P at every
x = u + s of a list, from one batch descent (`_Agm.phases`, jacobi.py,
which gives the columns of cn and Z), which checks each x in its one
loop and refuses, at the first x that fails, what one descent of it
would.  Past the reduction bound of the descent, where Z keeps no
correct digit, `epsilon_any` returns the linear term slope x: the
periodic part is at most about 2^-50 of it there.  Signs of moduli are stripped up front: epsilon and zeta are even
in the modulus.

The standard rule, 0 <= k <= 1, is the kernel of k itself, or its
k = 1 limit `jacobi._Unit`, built on the k that `Modulus.__init__`
checked, not through `jacobi._kernel`, which would check it again: P = Z
is King's sum, the slope E/K and the half period K are the kernel's; its
columns are its batch's cn(x, k) and Z for 0 <= k < 1 (the curves refuse
k = 1), its integrand dn^2(t, k).

`_LargeReal`, real k > 1, reduces through the reciprocal modulus (DLMF
22.17.14 and 19.7.3) on the kernel of 1/k, built on the complement
sqrt(1 - 1/k^2) formed without cancellation.  By Legendre's relation
E K' + E' K - K K' = pi/2 (DLMF 19.7.1), K, 1 - E/K and Z of 1/k and
K', E' of its complement give everything.  K' = K (K'/K) comes from the
same kernel, whose last step gives K'/K through the nome
(`_Agm.period_ratio`); zeta and E/K need only K', through w and drift
= w K'/K, which the rule computes at construction, and `pair(s)` alone
builds the complement's kernel, for E', and only up to k = sqrt(2).
With s the branch sign, slope = 1 - k^2 (1 - E/K), which tends to 1/2
without cancellation, w = (pi/2) k^2 / (K^2 + K'^2) and
k_c^2 = 1 - 1/k^2:

    epsilon(x, k) = x slope + k Z(kx, 1/k)
    Z(x, k)       = k Z(kx, 1/k) + w (K'/K) x + i s w x
    E/K of k      = slope - w K'/K - i s w
    K(k)          = (K + i s K')/k
    E(k)          = k (K (1/k^2 - (1 - E/K)) - i s K' (k_c^2 - (1 - E'/K')))

The last imaginary part is written as pi/(2K) + K' ((1 - E/K) - 1/k^2)
once k_c^2 > 1/2, where k_c^2 - (1 - E'/K') cancels and E' is not
needed; `pair(s)` gives this (K, E) for `k_e_continued`.  P = k Z(kx,
1/k), the columns are cn of k = dn(kx, 1/k) and P, and the integrand is
cn^2(kt, 1/k).  The two branches are complex conjugates; the
default "lower" one makes Im Z(x,k) negative for x > 0.  epsilon stays real.

`_Imaginary`, the modulus i*k, reduces through the descending pair
(DLMF 22.17.8 and 19.7.2) on the kernel of k1 = k/h, built on the exact
complement k1p = 1/h with h = hypot(1, k).  E/K of i*k is
E(k1)/(k1p^2 K(k1)), and with u = x/k1p

    Z(x, i*k) = Z(u + K(k1), k1)/k1p = (Z(u) - k1^2 sn cn/dn)/k1p,

from one descent at u inside the primary cell; this Z is P, the slope
is E/K and the integrand is 1/dn^2(t/k1p, k1).  Both functions stay
real.

`Modulus(regime, k)` checks one range per regime, each bound by one
comparison against a constant: standard 0 <= k <= 1; large-real
1 < k <= 1.34e154, beyond which k^2 overflows; pure-imaginary
0 < k < 2^26 (6.7e7), from where k1 rounds to 1.  A refusal names the
regime, k and the bound it fails; a regime that is not a `Regime`
member is refused by name.  A `Modulus` is a frozen value, as
`elastica.ElasticaParams` is: both derive `_Value`, which gives them
==, hash, repr, copy and pickle by their fields without importing
`dataclasses` (and through it `inspect`, about half the library's
import time), and a copied or unpickled value is checked again.  The
fields of a `Modulus` are `regime` and `k` alone; its rule is not one,
so a pickle holds no kernel and a copy builds its own.
Every k whose type is neither int nor float, in `Modulus(regime, k)`
as in `Modulus.real` and `Modulus.imaginary`, is taken as float(k)
(numpy's float64, float32 or int64, a Fraction), and a bool (numpy's too), a string,
bytes and what float() cannot convert are refused as non-real; `real`
and `imaginary` then take |k|.  The dispatchers take x as the (x, k)
routines of jacobi.py take it: a float as it is, any other real number
(an int too) as float(x) by `errors._real`, which refuses what is not
one, an int past the float range included, naming x.  The rule's descent
at x, kx or x/k1p is then the one check of the float x, a non-finite x
included; a dispatcher names its x, regime and k when the conversion or
that descent fails or its result is not finite.

Each fact is checked once, on the path of a fresh-modulus call:

    k is a finite real number      `Modulus.__init__` (a float or an int by
                                   its type; `errors._real` converts any
                                   other `numbers.Real`, a float subclass
                                   included, as it does for
                                   `jacobi._kernel`)
    k lies in its regime's range   `Modulus.__init__`, one comparison a
                                   bound, in the branch that builds the
                                   rule; a standard k too, as that branch
                                   builds the kernel without `_kernel`
    x is a real number             the dispatcher, as a float by its type;
                                   `errors._real` converts any other
    x is finite and reducible      the descent (`_Agm.phase`, `_bad_x`);
                                   `epsilon_any` takes a finite x past the
                                   reduction bound as its linear term
    the value is finite            the dispatcher: v - v == 0.0, for a
                                   float and for both parts of a complex
"""

import enum
import math
import operator
from math import cos, hypot, sin, sqrt

from .errors import _MAX_FLOAT, DomainError, _magnitude, _not_real, _real, _shown
from .jacobi import EllipticPair, _Agm, _Unit

_MAX_LARGE = 1.3407807929942596e154  # the largest float k whose k * k is finite
_MAX_IMAG = 2.0 ** 26  # from here on k1 = k/sqrt(1 + k^2) rounds to 1


class Regime(enum.Enum):
    STANDARD = "standard"
    LARGE_REAL = "large_real"
    PURE_IMAGINARY = "pure_imaginary"


# the members as module names: a read of Regime.X goes through the enum's metaclass
_STANDARD, _LARGE_REAL, _PURE_IMAGINARY = Regime.STANDARD, Regime.LARGE_REAL, Regime.PURE_IMAGINARY


class _Value:
    """Frozen value semantics for a slotted class, as a frozen dataclass has
    them: `__match_args__` names the fields, in order, and `__init__` checks
    them and sets them through their slots' own `__set__`, which skips the
    lookup that object.__setattr__ makes.  ==, hash and repr go by the
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
    Modulus(Regime.STANDARD, -0.5).  A Modulus builds the AGM kernel of
    its regime once, so a caller who evaluates many x at one k holds one.
    """
    __match_args__ = ("regime", "k")
    __slots__ = (*__match_args__, "_rule")

    def __init__(self, regime, k):
        # an int or a float is real as it is (`_real` takes any other k, a
        # subclass such as numpy's float64 included, and refuses a bool);
        # compared with the largest float, not by math.isfinite, which raises
        # OverflowError on an int past the float range; NaN fails both ways.
        # Each branch builds its regime's rule
        if type(k) is not float and type(k) is not int:
            k = _real(k)
        if not -_MAX_FLOAT <= k <= _MAX_FLOAT:
            raise _not_real(k)
        if regime is _STANDARD:
            if not 0.0 <= k <= 1.0:
                raise DomainError(f"standard regime requires k in [0, 1], got k={k!r}")
            _set_rule(self, _Agm(k) if k < 1.0 else _Unit())
        elif regime is _LARGE_REAL:
            if not k > 1.0:
                raise DomainError(f"large-real regime requires k > 1, got k={k!r}")
            if not k <= _MAX_LARGE:
                raise DomainError(f"the large-real rule has no finite value for the large_real "
                                  f"modulus k={k!r}: its k^2 overflows from k = 1.34e154 on")
            _set_rule(self, _LargeReal(k))
        elif regime is not _PURE_IMAGINARY:
            raise DomainError(f"regime must be a Regime member, got regime={regime!r}")
        elif not k > 0.0:  # the pure-imaginary regime from here on
            raise DomainError(f"pure-imaginary regime requires k > 0, got k={k!r}")
        elif not k < _MAX_IMAG:
            raise DomainError(f"pure_imaginary modulus k={k!r}: k1 = k/sqrt(1+k^2) "
                              "rounds to 1 from k = 2^26 on, where K(k1) diverges")
        else:
            _set_rule(self, _Imaginary(k))
        _set_regime(self, regime)
        _set_k(self, k)

    # `real` and `imaginary` call __init__ themselves, not through type.__call__,
    # so that it runs in their interpreter loop: the rule and the kernel it
    # builds would otherwise nest one C-level call deeper, which cost a
    # fresh-modulus call about 2 % more (CPython 3.11)

    @classmethod
    def real(cls, k: float) -> "Modulus":
        """Real modulus: |k| <= 1 is standard, |k| > 1 large-real."""
        k = abs(k) if type(k) is float else _magnitude(k)  # a float skips a frame
        m = _new(cls)
        m.__init__(_STANDARD if k <= 1.0 else _LARGE_REAL, k)
        return m

    @classmethod
    def imaginary(cls, k: float) -> "Modulus":
        """Imaginary modulus i*k; k = 0 collapses to the standard regime."""
        k = abs(k) if type(k) is float else _magnitude(k)  # a float skips a frame
        m = _new(cls)
        m.__init__(_STANDARD if k == 0.0 else _PURE_IMAGINARY, k)
        return m


_set_regime, _set_k, _set_rule = Modulus.regime.__set__, Modulus.k.__set__, Modulus._rule.__set__
_new = object.__new__


class _LargeReal:
    # the rule for real k > 1 (module docstring), built once per modulus on
    # the kernel of 1/k
    __slots__ = ("k", "agm", "slope", "w", "drift")

    def __init__(self, k):
        self.k = k
        # the complement sqrt(1 - 1/k^2) of 1/k, formed without cancellation
        self.agm = agm = _Agm(1.0 / k, sqrt((k - 1.0) * (k + 1.0)) / k)
        self.slope = 1.0 - k * k * agm.one_minus_ek
        # the Legendre terms w and drift = w K'/K, with K' = K (K'/K) of the
        # complement of 1/k from the kernel's nome.  k^2 is scaled by a factor
        # below 1, as (pi/2) k^2 can overflow
        ratio = agm.period_ratio()
        kc = agm.K * ratio
        self.w = w = k * k * (0.5 * math.pi / (agm.K * agm.K + kc * kc))
        self.drift = w * ratio

    def pair(self, s):
        # (K(k), E(k)) on the branch of sign s.  Re E/k = E(1/k) - (1 - 1/k^2)
        # K(1/k) without its cancellation; Im E/k = -s (E' - K'/k^2) keeps its
        # digits as it vanishes at k -> 1+ up to k = sqrt(2), and takes E' from
        # Legendre's relation above (module docstring).  Up to sqrt(2) it needs
        # 1 - E'/K', so it builds the kernel of the complement there, the only
        # caller that does; K' = K (K'/K) on both sides
        agm, k = self.agm, self.k
        kc = agm.K * agm.period_ratio()
        r2, q = agm.k * agm.k, agm.one_minus_ek
        im = (kc * (agm.kp2 - _Agm(agm.kp, agm.k).one_minus_ek) if agm.kp2 <= 0.5
              else 0.5 * math.pi / agm.K + kc * (q - r2))
        return EllipticPair(complex(agm.K, s * kc) / k, k * complex(agm.K * (r2 - q), -s * im))

    def columns(self, us, s):
        # cn of k = dn(kx, 1/k) and P = k Z(kx, 1/k) at each x = u + s, from one
        # batch descent at the kx (DLMF 22.17.14); dn^2 = k'^2 + k^2 cn^2 of the
        # batch's cn, as `_Agm.jacobi` forms it
        k, agm = self.k, self.agm
        cns, zs = agm.phases([k * (u + s) for u in us])
        kp2, q = agm.kp2, 1.0 - agm.kp2
        return [math.sqrt(kp2 + q * c * c) for c in cns], [k * z for z in zs]

    def periodic(self, x):
        k = self.k
        return k * self.agm.phase(k * x)[2]

    @property
    def half(self):
        # the integrand's half period in t: K(1/k)/k
        return self.agm.K / self.k

    def integrand(self, t):
        # cn^2(kt, 1/k) = cos^2 am(kt): the sign of an odd period drops out
        return self.agm.cos_phase(self.k * t) ** 2


class _Imaginary:
    # the rule for the modulus i*k (module docstring): the kernel of k1, built
    # on the exact k1p, and the modulus's E/K = E(k1)/(k1p^2 K(k1))
    __slots__ = ("agm", "slope", "k1k1", "q")
    w = drift = 0.0  # no Legendre terms: E/K and Z are real

    def __init__(self, k):
        h = hypot(1.0, k)
        self.agm = agm = _Agm(k / h, 1.0 / h)
        self.slope = agm.slope / agm.kp2
        # k1^2 of the sn cn term, and of dn^2 taken as 1 - k1p^2 (`_Agm.jacobi`)
        self.k1k1, self.q = agm.k * agm.k, 1.0 - agm.kp2

    def periodic(self, x):
        # Z(u + K(k1), k1)/k1p from one descent at u = x/k1p; sn cn and dn are
        # formed from phi as `_Agm.jacobi` forms them, where the sign of an odd
        # period drops out of sn cn and of dn^2 = k1p^2 + k1^2 cn^2
        agm = self.agm
        kp = agm.kp
        phi, _, z = agm.phase(x / kp)
        cn = cos(phi)
        return (z - self.k1k1 * sin(phi) * cn / sqrt(agm.kp2 + self.q * cn * cn)) / kp

    @property
    def half(self):
        # the integrand's half period in t: K(k1) k1p
        return self.agm.K * self.agm.kp

    def integrand(self, t):
        # 1/dn^2(t/k1p, k1) = 1/(k1p^2 + k1^2 cos^2 am(t/k1p)), as `_Agm.integrand`
        agm = self.agm
        c = agm.cos_phase(t / agm.kp)
        return 1.0 / (agm.kp2 + (1.0 - agm.kp2) * c * c)


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
    # `arg` says) and k: an error of the same type that names them
    return type(exc)(
        f"{fn}({arg}={_shown(x)}) fails for the {m.regime.value} modulus k={m.k!r}: {exc}")


def _not_finite(fn, x, m):
    # a dispatcher's value is infinite or NaN: the error names the caller's x,
    # the regime and k
    return DomainError(
        f"{fn}(x={x!r}) has no finite value for the {m.regime.value} modulus k={m.k!r}")


def ek_ratio(m: Modulus, branch: str = "lower") -> complex:
    """E/K of the modulus, the slope in Z = epsilon - (E/K) x.

    Real except for real k > 1 (module docstring), where the default
    branch makes Im E/K positive and so Im Z negative for x > 0.  At
    k = 1 the ratio vanishes (K diverges).
    """
    # the one place E/K is formed: 0.0 - s w keeps a zero w's part +0.0
    rule = m._rule
    return complex(rule.slope - rule.drift, 0.0 - _branch_sign(branch) * rule.w)


def k_e_continued(m: Modulus, branch: str = "lower") -> EllipticPair:
    """Complete pair (K(k), E(k)) continued to a large-real modulus k > 1 (DLMF 19.7.3).

    Both entries are complex; the branches are conjugates, and the ratio
    E/K of the returned pair matches ek_ratio on the same branch.  Against
    mpmath, |error| <= 3.1e-15 |K| and |E| from the float after 1 to 1e150;
    Im E, which vanishes as k -> 1+, is within 8e-16 of itself there.
    """
    if m.regime is not Regime.LARGE_REAL:
        raise DomainError(f"k_e_continued requires a large-real modulus, got {m.regime.value}")
    return m._rule.pair(_branch_sign(branch))


def epsilon_any(x: float, m: Modulus) -> float:
    """epsilon(x, .) dispatched on the modulus regime; real and odd in x in every regime.

    Real k > 1: epsilon(x,k) = k epsilon(kx, 1/k) + (1 - k^2) x, summed
    as in the module docstring.  Imaginary i*k: epsilon = Z + (E/K) x.
    """
    # a descent refuses a finite float x only past its reduction bound, where
    # Z keeps no correct digit and epsilon is its linear term; an x refused
    # as not a real number or not finite and a value that is not finite name
    # the caller's x, the regime and k: v - v is 0.0 for a finite v and NaN
    # for an infinite or NaN one
    rule = m._rule
    try:
        x = x if type(x) is float else _real(x, "x")
        value = rule.periodic(x) + rule.slope * x
    except DomainError as exc:
        if type(x) is not float or not abs(x) <= _MAX_FLOAT:
            raise _failed("epsilon_any", x, m, exc) from exc
        value = rule.slope * x  # kx may overflow where the linear term does not
    if value - value == 0.0:
        return value
    raise _not_finite("epsilon_any", x, m)


def zeta_any(x: float, m: Modulus, branch: str = "lower") -> complex:
    """Z(x, .) dispatched on the modulus regime.

    The imaginary part is zero except for real k > 1, where it is linear
    in x and the real part is k Z(kx, 1/k) plus a drift linear in x.
    Imaginary i*k: Z(x/k1p + K(k1), k1)/k1p, shifted inside the primary cell.
    """
    s = _branch_sign(branch)
    # the one place Z is formed, P(x) + drift x + i s w x, where + 0.0 keeps a
    # zero w's part +0.0; as in epsilon_any, v - v is 0.0 only if both parts
    # of v are finite
    rule = m._rule
    try:
        x = x if type(x) is float else _real(x, "x")
        value = complex(rule.periodic(x) + rule.drift * x, s * rule.w * x + 0.0)
    except DomainError as exc:
        raise _failed("zeta_any", x, m, exc) from exc
    if value - value == 0.0:
        return value
    raise _not_finite("zeta_any", x, m)
