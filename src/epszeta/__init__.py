"""Jacobi epsilon and zeta functions for moduli of any size.

The standard definitions cover k in [0, 1]; the extended routines reach
real k > 1 (where zeta turns complex) and pure imaginary moduli i*k by
reducing everything to the standard range.  A self-contained core, one
descending AGM per modulus with Carlson's RF for F(phi, k), supplies the
elliptic building blocks, an adaptive Newton-Cotes integrator provides
an independent cross-check, and the elastica module applies the
machinery to bent-rod curves.

`import epszeta` loads the layers of the epsilon/zeta values: errors,
carlson, jacobi, extended and epsilon_zeta.  Every value needs the
first four (extended imports jacobi, which imports carlson and errors).
No other layer imports epsilon_zeta, and it stays eager for the
benchmark: the tracer of bench/spans.py patches only the modules loaded
when its block opens, and bench/tests reads `epszeta.epsilon_zeta.amplitude`
and `epszeta.jacobi.rf` from a snapshot of them.  The elastica curves
and the quadrature oracle load on first use (PEP 562): the first lookup
of one of their public names, or of the submodule itself, imports the
submodule and binds its public names here, so later lookups are plain
attributes.  A first lookup made inside a tracer's block would bind the
tracer's wrapper here for good, so the benchmark makes an untraced call
before it traces.
"""

from .carlson import rf
from .epsilon_zeta import epsilon, zeta
from .errors import ConvergenceError, DomainError
from .extended import (Modulus, Regime, ek_ratio, epsilon_any, k_e_continued,
                       zeta_any)
from .jacobi import (EllipticPair, JacobiTriple, amplitude, complete_e,
                     complete_k, incomplete_e, sncndn)

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

# the submodules loaded on first use, and the public names taken from each
_LAZY = {
    "elastica": ("ElasticaParams", "PlanePoint", "flexural_point", "inflexural_point",
                 "sample_curve", "uniform_grid"),
    "quadrature": ("epsilon_by_quadrature", "regime_integrand"),
}


def __getattr__(name):
    # PEP 562: called only for a name not bound here, so once for each submodule
    # whose names it binds, and for every unknown name
    for sub, names in _LAZY.items():
        if name == sub or name in names:
            import importlib
            module = importlib.import_module(f".{sub}", __name__)
            globals().update((n, getattr(module, n)) for n in names)
            return module if name == sub else globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_LAZY})
