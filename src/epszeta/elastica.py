"""Planar elastica curves driven by the epsilon function.

The flexural family (0 < k < 1, inflection points) and the in-flexural
family (k > 1, inflection-free) are sampled parametrically.  u is arc
length times omega, so |dP/du| = 1/omega identically along both curves.
Both have one point formula, the flexural closed form continued past
k = 1: x = (2 (slope u + P(u + s)) - u)/omega and y = -2k cn(u + s)/omega,
with slope, and the columns of P = epsilon - slope x and cn of k from
one batch descent over all u (`columns` of the rule that the curve's
`Modulus` built, extended.py, once per curve); the start s is K for
the flexural curve, which so passes through the origin, and 0 for the
in-flexural one.  Its one batch, `_curve`, gives the columns of x and y
to sampled curves, to the command line's CSV export and, as a batch of
one, to single points.
`ElasticaParams` is a frozen value like `Modulus` (`extended._Value`):
it takes k and omega as `Modulus` takes k, an int or a float as it is
and any other real number as float(v) (`errors._real`), and refuses
k = 1 and a k or omega that is not finite and > 0, also when copied or
unpickled; `uniform_grid` takes u_min and u_max alike.  `Modulus`
checks k against its regime before any point is drawn.  The curves take
a u that is not a float as float(u) (`errors._real`) and refuse one
that is not a real number, naming u.  A failed descent or a point past the float range
(a tiny omega scales it) replays the curve point by point in the order
of u, so the error names the first u that fails, as that point alone
would: a failed descent is re-raised through `_failed`, naming the
caller's u and k, and a point that is not finite raises DomainError
naming u, k and omega.  Past the descent's reduction bound the curves
refuse u, which epsilon does not.
"""

import numbers
import sys
from collections import namedtuple

from .errors import _MAX_FLOAT, DomainError, _real, _shown
from .extended import Modulus, Regime, _failed, _Value


class ElasticaParams(_Value):
    """Shape modulus k (k < 1 flexural, k > 1 in-flexural) and scale omega."""
    __slots__ = __match_args__ = ("k", "omega")

    def __init__(self, k, omega=1.0):
        _set_k(self, _positive("k", k))
        _set_omega(self, _positive("omega", omega))
        if self.k == 1.0:
            raise DomainError("k = 1 is the borderline solitary loop and is not supported")


_set_k, _set_omega = ElasticaParams.k.__set__, ElasticaParams.omega.__set__


def _positive(name, v):
    # v as `Modulus` takes k (an int or a float as it is, any other real number
    # as float(v)) if it is finite and > 0
    try:
        f = v if type(v) is float or type(v) is int else _real(v)
        if 0.0 < f <= _MAX_FLOAT:
            return f
    except DomainError:
        pass
    raise DomainError(f"elastica requires finite {name} > 0, got {name}={_shown(v)}")


PlanePoint = namedtuple("PlanePoint", "x y")

_CURVES = {"flexural": Regime.STANDARD, "inflexural": Regime.LARGE_REAL}


def _curve(kind, p, us):
    # the columns [x] and [y] of the points at the list us, in one batch, by
    # the point formula (module docstring): slope u + P(u + s) is
    # epsilon(u + s) - epsilon(s), as P vanishes at s = K and at s = 0
    m = Modulus(_CURVES[kind], p.k)
    rule = m._rule
    slope, w, a = rule.slope, p.omega, -2.0 * m.k
    start = rule.half if kind == "flexural" else 0.0

    def points(us):
        us = [u if type(u) is float else _real(u, "u") for u in us]
        cns, ps = rule.columns(us, start)
        return [(2.0 * (slope * u + q) - u) / w for u, q in zip(us, ps)], [a * c / w for c in cns]

    try:
        xs, ys = points(us)
        # an infinite or NaN point makes a sum NaN or infinite, as may an
        # overflowing sum of finite points, which the replay then returns
        if 0.0 * sum(xs) * sum(ys) == 0.0:
            return xs, ys
    except DomainError:
        pass
    for u in us:
        # the descent names u + s, or k(u + s) and 1/k
        try:
            (x,), (y,) = points((u,))
        except DomainError as exc:
            raise _failed(kind + "_point", u, m, exc, "u") from exc
        if 0.0 * x * y != 0.0:  # x or y is infinite or NaN, as where a tiny omega scales it
            raise DomainError(
                f"{kind}_point(u={u!r}) has no finite value for k={p.k!r}, omega={p.omega!r}")
    return xs, ys


def flexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflectional elastica (0 < k < 1);
    passes through the origin at u = 0."""
    (x,), (y,) = _curve("flexural", p, [u])
    return PlanePoint(x, y)


def inflexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflection-free elastica (k > 1);
    starts at (0, -2k/omega).  x = (2 epsilon(u, k) - u)/omega."""
    (x,), (y,) = _curve("inflexural", p, [u])
    return PlanePoint(x, y)


def uniform_grid(u_min: float, u_max: float, n: int) -> list[float]:
    """n uniformly spaced parameter values with exact endpoints."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"uniform_grid requires an integer n, got {n!r}")
    # an int or a float as it is, any other real number as float(u), as `Modulus` takes k
    u_min = u_min if type(u_min) is float or type(u_min) is int else _real(u_min, "u_min")
    u_max = u_max if type(u_max) is float or type(u_max) is int else _real(u_max, "u_max")
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
    return list(map(PlanePoint, *_curve(kind, p, uniform_grid(u_min, u_max, n))))
