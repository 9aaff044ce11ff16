"""Planar elastica curves driven by the epsilon function.

The flexural family (0 < k < 1, inflection points) and the in-flexural
family (k > 1, inflection-free) are sampled parametrically.  u is arc
length times omega, so |dP/du| = 1/omega identically along both curves.
Each kind has one point formula, a generator over a grid of u that
builds the AGM kernel `agm` of its modulus's regime rule, `_rule(m)` in
extended.py, once per curve (the kernel of k itself for the flexural
curve, of 1/k for the in-flexural one) and yields (x, y) for each u,
one kernel descent per point.  Single points, sampled curves and the
command line's CSV export all go through it.  `ElasticaParams` is a
frozen value like `Modulus` (`extended._Value`) and refuses k = 1 and a
k or omega that is not finite and > 0, also when copied or unpickled;
`Modulus` checks k against its regime when the first point is drawn,
a failed descent is re-raised through `_failed`, naming the caller's u
and k, and a point past the float range (a tiny omega scales it)
raises DomainError naming u, k and omega.
"""

import numbers
import sys
from collections import namedtuple

from .errors import _MAX_FLOAT, DomainError, _shown
from .extended import Modulus, Regime, _failed, _rule, _Value


class ElasticaParams(_Value):
    """Shape modulus k (k < 1 flexural, k > 1 in-flexural) and scale omega."""
    __slots__ = __match_args__ = ("k", "omega")

    def __init__(self, k, omega=1.0):
        for name, v in (("k", k), ("omega", omega)):
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and 0.0 < v <= _MAX_FLOAT):
                raise DomainError(f"elastica requires finite {name} > 0, got {name}={_shown(v)}")
        if k == 1.0:
            raise DomainError("k = 1 is the borderline solitary loop and is not supported")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "omega", omega)


PlanePoint = namedtuple("PlanePoint", "x y")


def _flexural(p, us):
    # x = (2 (epsilon(u + K) - E) - u)/omega, y = -2k cn(u + K)/omega
    m = Modulus(Regime.STANDARD, p.k)
    k, w, agm = m.k, p.omega, _rule(m).agm
    quarter, ek = agm.K, agm.ek
    for u in us:
        # epsilon(u + K) - E = Z(u + K) + (E/K) u; the descent names u + K
        try:
            _, cn, _, z = agm.jacobi(u + quarter)
        except (DomainError, OverflowError) as exc:
            raise _failed("flexural_point", u, m, exc, "u") from exc
        x, y = (2.0 * (z + ek * u) - u) / w, -2.0 * k * cn / w
        if 0.0 * x * y != 0.0:  # x or y is infinite or NaN
            raise _not_finite("flexural_point", u, p)
        yield x, y


def _inflexural(p, us):
    # x = (2 epsilon(u, k) - u)/omega, y = -2k dn(ku, 1/k)/omega, with
    # epsilon(u, k) = u slope + k Z(ku, 1/k): one descent of the kernel of 1/k
    m = Modulus(Regime.LARGE_REAL, p.k)
    rule = _rule(m)
    k, w, agm, slope = m.k, p.omega, rule.agm, rule.slope
    for u in us:
        # the descent names ku and 1/k
        try:
            _, _, dn, z = agm.jacobi(k * u)
        except (DomainError, OverflowError) as exc:
            raise _failed("inflexural_point", u, m, exc, "u") from exc
        x, y = (2.0 * (u * slope + k * z) - u) / w, -2.0 * k * dn / w
        if 0.0 * x * y != 0.0:  # x or y is infinite or NaN
            raise _not_finite("inflexural_point", u, p)
        yield x, y


def _not_finite(fn, u, p):
    # a point past the float range, as where a tiny omega scales it
    return DomainError(f"{fn}(u={u!r}) has no finite value for k={p.k!r}, omega={p.omega!r}")


_CURVES = {"flexural": _flexural, "inflexural": _inflexural}


def flexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflectional elastica (0 < k < 1);
    passes through the origin at u = 0."""
    (point,) = _flexural(p, (u,))
    return PlanePoint._make(point)


def inflexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflection-free elastica (k > 1);
    starts at (0, -2k/omega).  x = (2 epsilon(u, k) - u)/omega."""
    (point,) = _inflexural(p, (u,))
    return PlanePoint._make(point)


def uniform_grid(u_min: float, u_max: float, n: int) -> list[float]:
    """n uniformly spaced parameter values with exact endpoints."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"uniform_grid requires an integer n, got {n!r}")
    if not -_MAX_FLOAT <= u_min < u_max <= _MAX_FLOAT:
        raise DomainError(f"uniform_grid requires finite u_min < u_max, got "
                          f"u_min={_shown(u_min)}, u_max={_shown(u_max)}")
    if not sys.maxsize >= n >= 2:  # sys.maxsize: the longest list there can be
        raise DomainError(f"uniform_grid requires sys.maxsize >= n >= 2, got n={_shown(n)}")
    if not u_max - u_min <= _MAX_FLOAT:
        raise DomainError(f"uniform_grid requires a finite span, got [{u_min!r}, {u_max!r}]")
    step = (u_max - u_min) / (n - 1)
    return [u_min + i * step for i in range(n - 1)] + [u_max]


def sample_curve(kind: str, p: ElasticaParams, u_min: float, u_max: float,
                 n: int) -> list[PlanePoint]:
    """n points at uniform u spacing for kind in {"flexural", "inflexural"}."""
    if kind not in _CURVES:
        raise ValueError(f"unknown curve kind {kind!r}")
    return list(map(PlanePoint._make, _CURVES[kind](p, uniform_grid(u_min, u_max, n))))
