import types

import epszeta

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
