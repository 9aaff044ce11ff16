import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import epszeta
from epszeta.quadrature import QuadratureResult

# The public surface changes only on purpose: edit this list with it.
PUBLIC_NAMES = [
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


def test_public_surface_is_pinned():
    assert sorted(epszeta.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(epszeta, name) is not None
    # the package binds no other public name (its submodules aside): the
    # quadrature oracle is epsilon_by_quadrature, and its integrator stays
    # in epszeta.quadrature
    bound = {name for name, obj in vars(epszeta).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert sorted(bound) == PUBLIC_NAMES


@pytest.mark.parametrize("cls, fields, doc", [
    (epszeta.JacobiTriple, ("sn", "cn", "dn"), "sn, cn, dn evaluated jointly at one (x, k)."),
    (epszeta.EllipticPair, ("K", "E"),
     "Complete integrals (K, E) of one modulus; complex once continued past k = 1."),
    (epszeta.PlanePoint, ("x", "y"), "PlanePoint(x, y)"),
    (QuadratureResult, ("value", "err_estimate"), "QuadratureResult(value, err_estimate)"),
], ids=lambda v: v.__name__ if isinstance(v, type) else None)
def test_result_tuples_are_pinned(cls, fields, doc):
    assert issubclass(cls, tuple) and cls._fields == fields and cls.__doc__ == doc
    shown = ", ".join(f"{name}={i}" for i, name in enumerate(fields))
    assert repr(cls(*range(len(fields)))) == f"{cls.__name__}({shown})"


def test_import_loads_no_dataclasses_inspect_or_typing():
    # a fresh interpreter; -S keeps the .pth files of site-packages from
    # importing these modules before epszeta does
    src = str(Path(epszeta.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import epszeta; "
            "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-I", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def shown(v):
    # repr(v), or the stand-in a message gives an int past the int-to-str digit limit
    try:
        return repr(v)
    except ValueError:
        return "<int without a repr>"


M_STD, M_LARGE, M_IMAG = (epszeta.Modulus.real(0.5), epszeta.Modulus.real(2.0),
                          epszeta.Modulus.imaginary(2.0))

# each public routine given an int past the float range as one argument, and
# the text that names it (the extended routines name the regime and k too)
PAST_THE_FLOAT_RANGE = {
    "epsilon": (lambda v: epszeta.epsilon(v, 0.5), "x={}"),
    "zeta": (lambda v: epszeta.zeta(v, 0.5), "x={}"),
    "amplitude": (lambda v: epszeta.amplitude(v, 0.5), "x={}"),
    "sncndn": (lambda v: epszeta.sncndn(v, 0.5), "x={}"),
    "sncndn at k = 1": (lambda v: epszeta.sncndn(v, 1.0), "x={}"),
    **{f"{fn.__name__} {m.regime.value}": (
        lambda v, fn=fn, m=m: fn(v, m),
        f"{fn.__name__}(x={{}}) fails for the {m.regime.value} modulus k={m.k!r}")
       for fn in (epszeta.epsilon_any, epszeta.zeta_any, epszeta.epsilon_by_quadrature)
       for m in (M_STD, M_LARGE, M_IMAG)},
    "flexural_point": (lambda v: epszeta.flexural_point(v, epszeta.ElasticaParams(0.5)),
                       "flexural_point(u={}) fails for the standard modulus k=0.5"),
    "inflexural_point": (lambda v: epszeta.inflexural_point(v, epszeta.ElasticaParams(2.0)),
                         "inflexural_point(u={}) fails for the large_real modulus k=2.0"),
    "incomplete_e": (lambda v: epszeta.incomplete_e(v, 0.5), "phi={}"),
    "ElasticaParams k": (lambda v: epszeta.ElasticaParams(v), "k={}"),
    "ElasticaParams omega": (lambda v: epszeta.ElasticaParams(0.5, v), "omega={}"),
    "uniform_grid u_min": (lambda v: epszeta.uniform_grid(v, 2 * v, 3), "u_min={}"),
    "uniform_grid u_max": (lambda v: epszeta.uniform_grid(0.0, v, 3), "u_max={}"),
    "uniform_grid n": (lambda v: epszeta.uniform_grid(0.0, 1.0, v), "n={}"),
    "rf": (lambda v: epszeta.rf(1.0, v, 2.0), "y={} is not a finite float"),
}


@pytest.mark.parametrize("v", [10**400, 10**5000], ids=["10**400", "10**5000"])
@pytest.mark.parametrize("name", list(PAST_THE_FLOAT_RANGE))
def test_int_past_the_float_range_is_domain_error_naming_it(name, v):
    # float arithmetic on such an int raises OverflowError ("int too large to
    # convert to float"); every routine refuses it as a DomainError that names it
    call, text = PAST_THE_FLOAT_RANGE[name]
    with pytest.raises(epszeta.DomainError, match=re.escape(text.format(shown(v)))):
        call(v)
