"""Planar elastica curves driven by the epsilon function.

The flexural family (0 < k < 1, inflection points) and the in-flexural
family (k > 1, inflection-free) are sampled parametrically.  u is arc
length times omega, so |dP/du| = 1/omega identically along both curves.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .epsilon_zeta import epsilon
from .errors import DomainError
from .extended import Modulus, Regime, epsilon_any
from .jacobi import complete_e, complete_k, sncndn


@dataclass(frozen=True)
class ElasticaParams:
    """Shape modulus k (k < 1 flexural, k > 1 in-flexural) and scale omega."""
    k: float
    omega: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.k, (int, float)) and math.isfinite(self.k) and self.k > 0.0):
            raise DomainError("elastica requires finite k > 0")
        if self.k == 1.0:
            raise DomainError("k = 1 is the borderline solitary loop and is not supported")
        if isinstance(self.omega, bool) or not (
                isinstance(self.omega, (int, float)) and math.isfinite(self.omega)
                and self.omega > 0.0):
            raise DomainError("elastica requires finite omega > 0")


class PlanePoint(NamedTuple):
    x: float
    y: float


def flexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflectional elastica (0 < k < 1);
    passes through the origin at u = 0."""
    if not p.k < 1.0:
        raise DomainError("flexural elastica requires k < 1")
    quarter = complete_k(p.k)
    x = (-u + 2.0 * (epsilon(u + quarter, p.k) - complete_e(p.k))) / p.omega
    y = -2.0 * p.k * sncndn(u + quarter, p.k).cn / p.omega
    return PlanePoint(x, y)


def inflexural_point(u: float, p: ElasticaParams) -> PlanePoint:
    """Point at arc parameter u on the inflection-free elastica (k > 1);
    starts at (0, -2k/omega).  x = (2 epsilon(u, k) - u)/omega."""
    x = (2.0 * epsilon_any(u, Modulus(Regime.LARGE_REAL, p.k)) - u) / p.omega
    y = -2.0 * p.k * sncndn(p.k * u, 1.0 / p.k).dn / p.omega
    return PlanePoint(x, y)


def uniform_grid(u_min: float, u_max: float, n: int) -> list[float]:
    """n uniformly spaced parameter values with exact endpoints."""
    if not u_min < u_max:
        raise DomainError("uniform_grid requires u_min < u_max")
    if n < 2:
        raise DomainError("uniform_grid requires n >= 2")
    step = (u_max - u_min) / (n - 1)
    return [u_min + i * step for i in range(n - 1)] + [u_max]


def sample_curve(kind: str, p: ElasticaParams, u_min: float, u_max: float,
                 n: int) -> list[PlanePoint]:
    """n points at uniform u spacing for kind in {"flexural", "inflexural"}."""
    if kind == "flexural":
        point = flexural_point
    elif kind == "inflexural":
        point = inflexural_point
    else:
        raise ValueError(f"unknown curve kind {kind!r}")
    return [point(u, p) for u in uniform_grid(u_min, u_max, n)]
