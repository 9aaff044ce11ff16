"""Legendre elliptic integrals and Jacobi elliptic functions for k in [0, 1].

Every standard-range quantity comes from one kernel, `_Agm`, built once
per modulus 0 <= k < 1.  It runs the descending arithmetic-geometric
mean of DLMF 22.20(ii),

    a0 = 1,  b0 = k' = sqrt(1 - k^2),  c0 = k,
    a(n+1) = (a(n) + b(n))/2,  b(n+1) = sqrt(a(n) b(n)),
    c(n+1) = (a(n) - b(n))/2 = c(n)^2 / (4 a(n+1)),

taking c(n+1) = (a(n) - b(n))/2 while b(n) < a(n)/2, where it has no
cancellation (only while k' < 1/2 at the start: b/a rises to 1 at each
step), and c(n)^2 / (4 a(n+1)) after that, which keeps full relative
precision as c -> 0.  Squaring c(n) at every step instead compounds its
rounding near k = 1, and E/K below cancels it up to 6e-15 relative.
The descent stops at the N where the next c would fall below half an
ulp of min(c1, a(N)).  A caller that knows k' more accurately than
sqrt((1 - k)(1 + k)) of a rounded k near 1 passes it (extended.py).  The
kernel keeps a(N), the c(n) and the ratios c(n)/a(n), and from them
(DLMF 19.8(i))

    K = pi / (2 a(N)),
    1 - E/K = sum_{n>=0} 2^(n-1) c(n)^2,   E/K = a1^2 - sum_{n>=2} 2^(n-1) c(n)^2,

each form free of cancellation where the other loses digits (k -> 0 and
k -> 1), and E = K (E/K).  Each step squares the nome q = exp(-pi K'/K),
K' the K of the complement k', so the last ratio r = c(N)/a(N) also
gives K'/K (`period_ratio`), with no second AGM for K'.

At any x a single phase descent,

    phi(N) = 2^N a(N) x,  phi(n-1) = (phi(n) + arcsin((c(n)/a(n)) sin phi(n))) / 2,

gives both the amplitude am(x) = phi(0) and King's sum for the zeta
function, Z(x) = sum_{n=1..N} c(n) sin phi(n) (A&S 17.6); then
epsilon = Z + (E/K) x and sn, cn, dn follow from phi(0).

The descent first reduces x = x_r + 2K n with |x_r| <= K, once: am(x) =
am(x_r) + n pi and Z has period 2K.  The rounding error of 2K n is at
least |n| 2K 2^-53, a quarter of K at |n| = 2^50, so beyond that the
reduced argument keeps no correct digit and the descent raises
DomainError instead: from |x| of about 2^51 K on (3.8e15 at k = 0.5;
3.5e15 at k = 0, where K = pi/2 is smallest).  epsilon alone has a value
there: |Z| < 1 is below 2^-51 of (E/K) x, so past the bound it is the
linear term (E/K) x (`epsilon_any` in extended.py, which `epsilon` calls).

The kernel descends in three ways, with the same reduction and the same
steps, so they agree bit for bit; each computes only what its caller
reads:

- `phase(x)`, the one-x descent of the public routines and dispatchers,
  gives (phi, n, z);
- `phases(xs)`, the batch of many x at one k that an elastica curve
  takes, gives the columns (phi, n, z) of `phase` over a list: one pass
  over the list runs the same operations in the same order at each x,
  z starting at 0.0.  It skips the call, the attribute lookups and the
  tuple of one `phase` per x (a loop of the steps over all x, step by
  step, was slower in pure Python).  It checks every x before it
  descends any, and on a failure replays `phase` in order, so it raises
  what `phase` raises at the first x that fails;
- `cos_phase(x)`, a quadrature node's, gives cos phi alone, which is
  +-cos am(x) (the sign of an odd period dropped), as an integrand
  squares it.  It skips King's sum, n and the tuple, and it checks x as
  `phase` does, raising the same error.

Every public routine here is `_kernel(k)` and at most one descent
(epsilon_zeta.py's go through the standard `Modulus` of |k| instead).
`_kernel` is the one check of k here, and it checks k as `Modulus`
does: a k that is not a float is converted by `errors._real` (numpy's
float32, an int64, a Fraction) or refused as not a real number (a
bool, a string, None, a complex, numpy's too); then it strips the
sign (K, E, dn and am are even in k), refuses NaN and the infinities as not finite
real numbers, and raises DomainError naming k outside |k| <= 1.  Each
public routine here that takes an x (`incomplete_e` its phi) takes it
as it takes k: a
float as it is, any other real number (an int too) as float(x) by
`errors._real`, which refuses a bool, a string, None, a complex (numpy's
too) and an int past the float range as not a finite float, naming x.
So every x below the entries is a float.  At
k = 1, where the AGM degenerates (b0 = 0) and K diverges, it returns
the limit `_Unit`: K = inf, E = 1, am = gd x
(DLMF 22.16(i)), sn = Z = tanh x, cn = dn = sech x (22.5(ii)).  Its
`cos_phase` gives cos am = sech x itself, as 1/cosh x (2 e^-|x| from
|x| = 710 on, where cosh overflows), not as cos gd x, which keeps no
relative digit as it falls to 0; with k'^2 = 0 an integrand squares it
as it squares cos phi of an `_Agm`.  The
descent is the one check of a float x's finiteness and of its reduction
bound, and names an x that fails either.
`complete_k` has no value at |k| = 1 and raises there, naming k.

`incomplete_e` is epsilon at the argument F(phi, k), since epsilon(x) =
E(am(x)) (DLMF 22.16(ii)): it reduces phi by pi once, takes F on the
half cell from Carlson's RF (DLMF 19.25(i)), where am(F) = phi, and adds
2E per period.  At k = 1, F = artanh(sin phi) and tanh F = sin phi.  It
names a phi that is not a finite float before reducing it.
"""

import math
from collections import namedtuple
from math import asin, cos, ldexp, sin, sqrt

from .carlson import rf
from .errors import _MAX_FLOAT, DomainError, _magnitude, _not_real, _real, _shown

# Largest period index |n| of the reduction x = x_r + 2K n (module docstring).
_MAX_PERIODS = 2.0 ** 50


JacobiTriple = namedtuple("JacobiTriple", "sn cn dn")
JacobiTriple.__doc__ = "sn, cn, dn evaluated jointly at one (x, k)."

EllipticPair = namedtuple("EllipticPair", "K E")
EllipticPair.__doc__ = ("Complete integrals (K, E) of one modulus; "
                        "complex once continued past k = 1.")


class _Agm:
    """Descending AGM of one modulus 0 <= k < 1, built once and descended at any x."""

    __slots__ = ("k", "kp", "kp2", "K", "E", "ek", "one_minus_ek", "_period", "_scale", "_steps")

    def __init__(self, k, kp=None):
        # kp = sqrt(1 - k^2), passed when the caller knows it more accurately
        # than (1 - k)(1 + k) of a k that was rounded near 1
        if not 0.0 <= k < 1.0:
            raise DomainError(f"the AGM kernel needs 0 <= k < 1, got k={k!r}")
        if kp is None:
            kp2 = (1.0 - k) * (1.0 + k)
            kp = sqrt(kp2)
        elif 0.0 < kp <= 1.0:
            kp2 = kp * kp
        else:
            # an infinite or NaN kp would keep the descent from ever stopping
            raise DomainError(
                f"the AGM needs a complementary modulus in (0, 1], got kp={kp!r} for k={k!r}")
        a1 = 0.5 * (1.0 + kp)
        # c1 as the first step below forms it: in the pre-loop if k' < 1/2
        c1 = 0.5 * (1.0 - kp) if kp < 0.5 else k * k / (4.0 * a1)
        a, b, c = 1.0, kp, k
        steps = []  # (c(n), c(n)/a(n)) for n = 1 up to N, reversed below
        while b < 0.5 * a:
            # c(n+1) = (a(n) - b(n))/2 while it has no cancellation (module
            # docstring); c > a/4 here, so the descent cannot stop yet
            c = 0.5 * (a - b)
            a, b = 0.5 * (a + b), sqrt(a * b)
            steps.append((c, c / a))
        while True:
            a, b = 0.5 * (a + b), sqrt(a * b)
            c = c * c / (4.0 * a)
            steps.append((c, c / a))
            if c * c <= 2.0 ** -51 * a * (c1 if c1 < a else a):
                break
        tail = 0.0  # sum over n >= 2 of 2^(n-1) c(n)^2, from the smallest term up
        for e in range(len(steps) - 1, 0, -1):
            tail += ldexp(steps[e][0] ** 2, e)
        steps.reverse()  # the descent's order, n = N down to 1
        self.k, self.kp, self.kp2 = k, kp, kp2
        self.K = math.pi / (2.0 * a)
        # E/K and 1 - E/K, each summed where it has no cancellation: E/K as
        # k -> 1, 1 - E/K = k^2/2 + c1^2 + tail as k -> 0
        self.ek = a1 * a1 - tail
        self.one_minus_ek = 0.5 * k * k + c1 ** 2 + tail
        self.E = self.K * self.ek
        self._period = 2.0 * self.K
        self._scale = ldexp(a, len(steps))
        self._steps = tuple(steps)

    def phase(self, x):
        """(phi, n, z) at x: am(x) = phi + n pi with |phi| <= pi/2, and Z(x) = z."""
        period = self._period
        t = x / period
        if not abs(t) <= _MAX_PERIODS:
            raise _bad_x(self, x)
        n = round(t)
        phi = self._scale * (x - period * n)
        z = 0.0
        for c, r in self._steps:
            s = sin(phi)
            z += c * s
            phi = 0.5 * (phi + asin(r * s))
        return phi, n, z

    def cos_phase(self, x):
        """cos phi of `phase(x)`, bit for bit: +-cos am(x), the sign of an odd
        period dropped; the same check of x and steps, without Z, n or a tuple."""
        period = self._period
        t = x / period
        if not abs(t) <= _MAX_PERIODS:
            raise _bad_x(self, x)
        phi = self._scale * (x - period * round(t))
        for _, r in self._steps:
            phi = 0.5 * (phi + asin(r * sin(phi)))
        return cos(phi)

    def phases(self, xs):
        """The columns [phi], [n], [z] of `phase` over the list xs, bit for bit
        (module docstring); raises as `phase` at the first x that fails."""
        period, scale, steps, sin, asin = (
            self._period, self._scale, self._steps, math.sin, math.asin)
        try:
            ts = [x / period for x in xs]
            ns = list(map(round, ts))  # ValueError at a NaN t, OverflowError at an infinite one
        except (OverflowError, ValueError):
            ns = None
        if ns is None or max(map(abs, ts), default=0.0) > _MAX_PERIODS:
            for x in xs:
                self.phase(x)
        del ts
        phis, zs = [], []
        for x, n in zip(xs, ns):
            phi = scale * (x - period * n)
            z = 0.0
            for c, r in steps:
                s = sin(phi)
                z += c * s
                phi = 0.5 * (phi + asin(r * s))
            phis.append(phi)
            zs.append(z)
        return phis, ns, zs

    def period_ratio(self):
        """K'/K, K' the K of the complement k', from the nome q = exp(-pi K'/K).

        The N steps square q N times, and q^(2^N) = r^2/16 + r^4/32 + ...
        with r = c(N)/a(N) (DLMF 19.5.5), so K'/K = -2^(1-N) ln(r/4)/pi.  The
        stop rule keeps r <= 2^-25.5, so the next term of ln q^(2^N), r^2/2,
        is below half an ulp.  Needs r > 0: k^2/4 must not underflow to 0.
        """
        r = self._steps[0][1]
        return math.ldexp(math.log(0.25 * r), 1 - len(self._steps)) / -math.pi

    def jacobi(self, x):
        """(sn, cn, dn, Z) at x from one descent."""
        phi, n, z = self.phase(x)
        sn, cn = math.sin(phi), math.cos(phi)
        if n % 2:
            sn, cn = -sn, -cn
        # dn^2 = k'^2 + k^2 cn^2: both terms positive, no cancellation near
        # k = 1; k^2 is taken as 1 - k'^2 so that dn = 1 where cn = +-1
        kp2 = self.kp2
        return sn, cn, math.sqrt(kp2 + (1.0 - kp2) * cn * cn), z


class _Unit:
    """The k = 1 limit of `_Agm` (module docstring): phase gives (gd x, 0, tanh x),
    and cos_phase sech x, the cosine of am = gd x, not formed through gd x."""

    __slots__ = ()
    k, kp2, K, E, ek = 1.0, 0.0, math.inf, 1.0, 0.0

    def phase(self, x):
        if not abs(x) <= _MAX_FLOAT:
            raise _bad_x(self, x)
        return 2.0 * math.atan(math.tanh(0.5 * x)), 0, math.tanh(x)

    def cos_phase(self, x):
        if not abs(x) <= _MAX_FLOAT:
            raise _bad_x(self, x)
        # cosh overflows from |x| = 710.5 on, where sech x rounds to 2 e^-|x|
        return 1.0 / math.cosh(x) if abs(x) < 710.0 else 2.0 * math.exp(-abs(x))

    def jacobi(self, x):
        t = self.phase(x)[2]
        sech = self.cos_phase(x)
        return t, sech, sech, t


def _bad_x(agm, x):
    # the descent's one check of the float x failed: x is nan, an infinity or
    # beyond the reduction bound, which only an `_Agm` reduces by, so only it
    # needs a `_period`
    if not abs(x) <= _MAX_FLOAT:
        return DomainError(f"x={x!r} is not a finite float (k={agm.k!r})")
    return DomainError(
        f"x={x!r} is too large for k={agm.k!r}: reduced by the period 2K it keeps "
        f"no correct digit beyond |x| = 2^51 K = {_MAX_PERIODS * agm._period:.3g}")


def _kernel(k):
    """The AGM kernel of |k|, or its limit at |k| = 1: a k that is not a float
    is converted and refused as `Modulus` converts and refuses it."""
    a = abs(k) if type(k) is float else _magnitude(k)
    if not a <= 1.0:
        raise _not_real(k) if not a <= _MAX_FLOAT else DomainError(
            f"k={_shown(k)} is outside the standard range |k| <= 1")
    return _Agm(a) if a < 1.0 else _Unit()


def complete_k(k: float) -> float:
    """Complete elliptic integral of the first kind K(k), |k| < 1."""
    big_k = _kernel(k).K
    if big_k == math.inf:
        raise DomainError(f"K diverges at k={k!r}: complete_k needs |k| < 1")
    return big_k


def complete_e(k: float) -> float:
    """Complete elliptic integral of the second kind E(k), |k| <= 1."""
    return _kernel(k).E


def incomplete_e(phi: float, k: float) -> float:
    """Incomplete second-kind integral E(phi,k) = integral 0..phi sqrt(1 - k^2 sin^2 t) dt.

    Odd in phi and defined for all real phi through the quasi-period
    E(phi + pi, k) = E(phi, k) + 2 E(k).  On the half cell |phi| <= pi/2
    it is epsilon(F(phi, k), k), with F = sin phi RF(cos^2 phi,
    1 - k^2 sin^2 phi, 1) (DLMF 19.25(i), 22.16(ii)).
    """
    agm = _kernel(k)
    phi = phi if type(phi) is float else _real(phi, "phi")
    if not abs(phi) <= _MAX_FLOAT:
        raise DomainError(f"phi={phi!r} is not a finite float (k={agm.k!r})")
    n = round(phi / math.pi)
    phi -= n * math.pi
    s, c, k = math.sin(phi), math.cos(phi), agm.k
    f = s * rf(c * c, (1.0 - k * s) * (1.0 + k * s), 1.0)
    return agm.phase(f)[2] + agm.ek * f + 2.0 * n * agm.E


def amplitude(x: float, k: float) -> float:
    """Jacobi amplitude am(x, k), the unbounded branch, monotone in x.

    Satisfies am(x + 2K, k) = am(x, k) + pi; degenerates to the identity
    at k = 0 and to the Gudermannian at k = 1.
    """
    phi, n, _ = _kernel(k).phase(x if type(x) is float else _real(x, "x"))
    return phi + math.pi * n


def sncndn(x: float, k: float) -> JacobiTriple:
    """Jacobi sn, cn, dn at (x, k); k = 1 gives tanh, sech, sech."""
    sn, cn, dn, _ = _kernel(k).jacobi(x if type(x) is float else _real(x, "x"))
    return JacobiTriple(sn, cn, dn)
