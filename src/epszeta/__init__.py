"""Jacobi epsilon and zeta functions for moduli of any size.

The standard definitions cover k in [0, 1]; the extended routines reach
real k > 1 (where zeta turns complex) and pure imaginary moduli i*k by
reducing everything to the standard range.  A self-contained core, one
descending AGM per modulus with Carlson's RF for F(phi, k), supplies the
elliptic building blocks, an adaptive Newton-Cotes integrator provides
an independent cross-check, and the elastica module applies the
machinery to bent-rod curves.
"""

from .carlson import rf
from .elastica import (ElasticaParams, PlanePoint, flexural_point,
                       inflexural_point, sample_curve, uniform_grid)
from .epsilon_zeta import epsilon, zeta
from .errors import ConvergenceError, DomainError
from .extended import (Modulus, Regime, ek_ratio, epsilon_any, k_e_continued,
                       zeta_any)
from .jacobi import (EllipticPair, JacobiTriple, amplitude, complete_e,
                     complete_k, incomplete_e, sncndn)
from .quadrature import epsilon_by_quadrature, regime_integrand

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DomainError",
    "ElasticaParams",
    "EllipticPair",
    "JacobiTriple",
    "Modulus",
    "PlanePoint",
    "Regime",
    "amplitude",
    "complete_e",
    "complete_k",
    "ek_ratio",
    "epsilon",
    "epsilon_any",
    "epsilon_by_quadrature",
    "flexural_point",
    "incomplete_e",
    "inflexural_point",
    "k_e_continued",
    "regime_integrand",
    "rf",
    "sample_curve",
    "sncndn",
    "uniform_grid",
    "zeta",
    "zeta_any",
]
