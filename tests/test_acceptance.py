"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import functools
import math
import time

import numpy as np
import pytest

from epszeta import (Modulus, complete_e, complete_k, ElasticaParams,
                     epsilon, epsilon_any, epsilon_by_quadrature,
                     flexural_point, inflexural_point, sncndn, zeta, zeta_any)
from raw_k import epsilon_large_real, epsilon_large_real_via_zeta
from epszeta.cli import main as cli_main
from test_elastica import arc_speed_squared, chain_point

TABLE_TOL = 5e-7


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS: {title}")
        return run
    return wrap


@criterion(1, "table 1: epsilon(0.5, k) for real k in {0.5, 1, 2}, tol 5e-7, < 1 s")
def test_criterion_01():
    start = time.perf_counter()
    assert epsilon_any(0.5, Modulus.real(0.5)) == pytest.approx(0.490203, abs=TABLE_TOL)
    assert epsilon_any(0.5, Modulus.real(1.0)) == pytest.approx(0.462117, abs=TABLE_TOL)
    assert epsilon_any(0.5, Modulus.real(2.0)) == pytest.approx(0.367975, abs=TABLE_TOL)
    assert time.perf_counter() - start < 1.0


@criterion(2, "table 2: epsilon(0.5, ik) for k in {0.5, 1, 2}, tol 5e-7")
def test_criterion_02():
    assert epsilon_any(0.5, Modulus.imaginary(0.5)) == pytest.approx(0.510020, abs=TABLE_TOL)
    assert epsilon_any(0.5, Modulus.imaginary(1.0)) == pytest.approx(0.541445, abs=TABLE_TOL)
    assert epsilon_any(0.5, Modulus.imaginary(2.0)) == pytest.approx(0.689051, abs=TABLE_TOL)


@criterion(3, "table 3: zeta(0.5, k) for real k in {0.5, 1, 2}, lower branch, tol 5e-7")
def test_criterion_03():
    z = zeta_any(0.5, Modulus.real(0.5))
    assert z.real == pytest.approx(0.054948, abs=TABLE_TOL) and z.imag == 0.0
    z = zeta_any(0.5, Modulus.real(1.0))
    assert z.real == pytest.approx(0.462117, abs=TABLE_TOL) and z.imag == 0.0
    z = zeta_any(0.5, Modulus.real(2.0))
    assert z.real == pytest.approx(0.663361, abs=TABLE_TOL)
    assert z.imag == pytest.approx(-0.419309, abs=TABLE_TOL)


@criterion(4, "table 4: zeta(0.5, ik) for k in {0.5, 1, 2}, tol 5e-7")
def test_criterion_04():
    for k, expect in ((0.5, -0.050738), (1.0, -0.187029), (2.0, -0.616203)):
        z = zeta_any(0.5, Modulus.imaginary(k))
        assert z.real == pytest.approx(expect, abs=TABLE_TOL) and z.imag == 0.0


@criterion(5, "oracle suite: transforms vs adaptive quadrature, |diff| <= 1e-9, < 10 s")
def test_criterion_05():
    start = time.perf_counter()
    moduli = ([Modulus.real(k) for k in (0.1, 0.5, 0.9)]
              + [Modulus.real(k) for k in (1.5, 2.0, 5.0)]
              + [Modulus.imaginary(k) for k in (0.5, 1.0, 2.0)])
    worst = 0.0
    for m in moduli:
        for x in (0.25, 0.5, 1.0, 2.0, 4.0):
            diff = abs(epsilon_any(x, m) - epsilon_by_quadrature(x, m, tol=1e-11))
            worst = max(worst, diff)
    assert worst <= 1e-9, f"worst oracle gap {worst:.3e}"
    assert time.perf_counter() - start < 10.0


@criterion(6, "reciprocal-modulus route vs linear+zeta route agree to 1e-11")
def test_criterion_06():
    for k in (1.5, 2.0, 5.0):
        for x in (-4.0, -2.0, -1.0, -0.5, -0.25, 0.25, 0.5, 1.0, 2.0, 4.0):
            gap = abs(epsilon_large_real(x, k) - epsilon_large_real_via_zeta(x, k))
            assert gap <= 1e-11, f"k={k} x={x} gap={gap:.3e}"


@criterion(7, "parity, modulus evenness, and 2K periodicity: 500 randomized cases")
def test_criterion_07():
    rng = np.random.default_rng(77)
    for _ in range(150):  # oddness in x, standard regime
        x = rng.uniform(0, 5)
        k = rng.uniform(0, 1)
        assert abs(epsilon(-x, k) + epsilon(x, k)) <= 1e-13
        assert abs(zeta(-x, k) + zeta(x, k)) <= 1e-13
    for _ in range(100):  # evenness in the modulus, standard regime
        x = rng.uniform(-4, 4)
        k = rng.uniform(0, 1)
        assert epsilon(x, -k) == epsilon(x, k)
        assert zeta(x, -k) == zeta(x, k)
    for _ in range(50):  # evenness beyond 1 enters through the constructor
        x = rng.uniform(-3, 3)
        k = rng.uniform(1.1, 6.0)
        assert epsilon_any(x, Modulus.real(-k)) == epsilon_any(x, Modulus.real(k))
        assert zeta_any(x, Modulus.real(-k)) == zeta_any(x, Modulus.real(k))
    for _ in range(50):  # same for imaginary moduli
        x = rng.uniform(-3, 3)
        k = rng.uniform(0.1, 4.0)
        assert epsilon_any(x, Modulus.imaginary(-k)) == epsilon_any(x, Modulus.imaginary(k))
    for _ in range(150):  # zeta periodicity with period 2K
        x = rng.uniform(-4, 4)
        k = rng.uniform(0.05, 0.95)
        assert abs(zeta(x + 2.0 * complete_k(k), k) - zeta(x, k)) <= 1e-11


@criterion(8, "Legendre collapse: K(1/k) K(1/k') [E/K + E'/K' - 1] = pi/2 to 1e-12")
def test_criterion_08():
    for k in (1.2, 2.0, 10.0):
        kr = 1.0 / k
        krc = math.sqrt((k - 1.0) * (k + 1.0)) / k
        bracket = (complete_e(kr) / complete_k(kr)
                   + complete_e(krc) / complete_k(krc) - 1.0)
        assert abs(complete_k(kr) * complete_k(krc) * bracket - math.pi / 2.0) <= 1e-12


@criterion(9, "d/dx epsilon = dn^2 by central differences, 100 random points, 1e-8")
def test_criterion_09():
    rng = np.random.default_rng(99)
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-4, 4)
        k = rng.uniform(0, 0.99)
        fd = (epsilon(x + h, k) - epsilon(x - h, k)) / (2.0 * h)
        assert abs(fd - sncndn(x, k).dn ** 2) <= 1e-8


@criterion(10, "elastica: unit-speed parametrization to 1e-8; derivation chain to 1e-10")
def test_criterion_10():
    rng = np.random.default_rng(1010)
    for _ in range(25):
        p = ElasticaParams(k=rng.uniform(0.1, 0.95), omega=rng.uniform(0.5, 2.0))
        u = rng.uniform(-6, 6)
        assert abs(arc_speed_squared(flexural_point, u, p) - 1.0 / p.omega ** 2) <= 1e-8
    for _ in range(25):
        p = ElasticaParams(k=rng.uniform(1.05, 4.0), omega=rng.uniform(0.5, 2.0))
        u = rng.uniform(-6, 6)
        assert abs(arc_speed_squared(inflexural_point, u, p) - 1.0 / p.omega ** 2) <= 1e-8
    for _ in range(50):
        k = rng.uniform(1.1, 3.0)
        w = rng.uniform(0.5, 2.0)
        u = rng.uniform(-5, 5)
        cx, cy = chain_point(u, k, w)
        pt = inflexural_point(u, ElasticaParams(k=k, omega=w))
        assert abs(cx - pt.x) <= 1e-10
        assert abs(cy - pt.y) <= 1e-10


@criterion(11, "tables command exits 0 with all 12 cells agreeing")
def test_criterion_11(capsys):
    code = cli_main(["tables"])
    out = capsys.readouterr().out
    assert code == 0
    for cell in ("0.490203", "0.462117", "0.367975",
                 "0.510020", "0.541445", "0.689051",
                 "0.054948", "0.663361 - 0.419309i",
                 "-0.050738", "-0.187029", "-0.616203"):
        assert cell in out
