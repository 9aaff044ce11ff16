import math
import re

import numpy as np
import pytest

import goldens
from epszeta import (DomainError, Modulus, amplitude, complete_k, epsilon,
                     epsilon_by_quadrature, incomplete_e, sncndn, zeta,
                     zeta_any)
from raw_k import imaginary_submoduli
from test_jacobi import XS, assert_names_bad_arguments

# printed table values carry six decimals
TABLE_TOL = 5e-7


class TestEpsilon:
    def test_table_values(self):
        assert epsilon(0.5, 0.5) == pytest.approx(0.490203, abs=TABLE_TOL)
        assert epsilon(0.5, 1.0) == pytest.approx(0.462117, abs=TABLE_TOL)

    def test_golden_values(self):
        assert epsilon(0.5, 0.5) == pytest.approx(goldens.EPS_05_05, abs=1e-14)
        assert epsilon(1.25, 0.8) == pytest.approx(goldens.EPS_125_08, abs=1e-13)

    def test_degenerate_moduli(self):
        assert epsilon(0.0, 0.7) == 0.0
        assert epsilon(0.8, 0.0) == 0.8
        assert epsilon(0.5, 1.0) == math.tanh(0.5)
        for x in XS:
            assert epsilon(x, 0.0) == x
            assert epsilon(x, 1.0) == math.tanh(x)

    def test_rejects_large_modulus(self):
        with pytest.raises(DomainError):
            epsilon(0.5, 1.2)
        with pytest.raises(DomainError):
            epsilon(math.inf, 0.5)
        assert_names_bad_arguments(epsilon)


class TestZeta:
    def test_table_values(self):
        assert zeta(0.5, 0.5) == pytest.approx(0.054948, abs=TABLE_TOL)
        assert zeta(0.5, 1.0) == pytest.approx(0.462117, abs=TABLE_TOL)

    def test_golden_values(self):
        assert zeta(0.5, 0.5) == pytest.approx(goldens.ZETA_05_05, abs=1e-14)
        assert zeta(1.7, 0.6) == pytest.approx(goldens.ZETA_17_06, abs=1e-13)

    def test_degenerate_moduli(self):
        assert zeta(0.5, 0.0) == 0.0
        # at |k| = 1 the slope E/K vanishes and Z collapses onto epsilon
        assert zeta(0.5, 1.0) == epsilon(0.5, 1.0)
        for x in XS:
            assert zeta(x, 0.0) == 0.0
            assert zeta(x, 1.0) == math.tanh(x)

    def test_rejects_large_modulus(self):
        with pytest.raises(DomainError):
            zeta(0.5, -1.2)
        assert_names_bad_arguments(zeta)


def shifted_zeta(x, k):
    """Z of the modulus i*k as the quarter-period shift of the standard Z,
    Z(x/k1p + K(k1), k1)/k1p, with k1 and k1p formed from hypot (raw_k)."""
    k1, k1p = imaginary_submoduli(k)
    return zeta(x / k1p + complete_k(k1), k1) / k1p


class TestZetaShift:
    # the imaginary rule evaluates Z(u + K) = Z(u) - k1^2 sn cn/dn in the
    # primary cell; zeta_any must agree with the shift taken literally
    def test_vanishes_at_origin(self):
        # Z(K) = 0: the right-hand side has sn*cn/dn = 0 at x = 0
        assert zeta_any(0.0, Modulus.imaginary(0.5)) == 0j

    def test_matches_direct_evaluation(self):
        assert zeta_any(0.3, Modulus.imaginary(0.6)).real == pytest.approx(
            shifted_zeta(0.3, 0.6), abs=1e-12)

    def test_randomized_agreement(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            x = rng.uniform(-3, 3)
            k = rng.uniform(0.05, 2.0)
            assert zeta_any(x, Modulus.imaginary(k)).real == pytest.approx(
                shifted_zeta(x, k), abs=1e-12)

    def test_zero_modulus(self):
        # i*0 is the standard k = 0, where Z vanishes identically
        assert zeta_any(0.5, Modulus.imaginary(0.0)) == 0j

    def test_rejects_unit_modulus(self):
        # k1 rounds to 1, where K(k1) diverges, from k = 2^26 on
        with pytest.raises(DomainError, match="rounds to 1"):
            Modulus.imaginary(2.0 ** 26)
        for k in (math.nan, math.inf):
            with pytest.raises(DomainError):
                Modulus.imaginary(k)
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match=re.escape(f"x={x!r}")):
                zeta_any(x, Modulus.imaginary(0.5))


def test_odd_in_x():
    rng = np.random.default_rng(32)
    for _ in range(100):
        x = rng.uniform(0, 5)
        k = rng.uniform(0, 1)
        assert abs(epsilon(-x, k) + epsilon(x, k)) <= 1e-13
        assert abs(zeta(-x, k) + zeta(x, k)) <= 1e-13


def test_even_in_modulus_exactly():
    rng = np.random.default_rng(33)
    for _ in range(50):
        x = rng.uniform(-4, 4)
        k = rng.uniform(0, 1)
        assert epsilon(x, -k) == epsilon(x, k)
        assert zeta(x, -k) == zeta(x, k)


def test_derivative_is_dn_squared():
    rng = np.random.default_rng(34)
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-4, 4)
        k = rng.uniform(0, 0.99)
        fd = (epsilon(x + h, k) - epsilon(x - h, k)) / (2 * h)
        assert abs(fd - sncndn(x, k).dn ** 2) <= 1e-8


def test_zeta_periodicity():
    rng = np.random.default_rng(35)
    for _ in range(60):
        x = rng.uniform(-4, 4)
        k = rng.uniform(0.05, 0.95)
        period = 2.0 * complete_k(k)
        assert abs(zeta(x + period, k) - zeta(x, k)) <= 1e-11


def test_quadrature_oracle():
    for k in np.arange(0.1, 0.95, 0.1):
        m = Modulus.real(k)
        for x in (0.5, 1.0, 2.5, 5.0):
            assert abs(epsilon(x, k) - epsilon_by_quadrature(x, m, tol=1e-11)) <= 1e-9


def test_definitional_forms_coincide():
    # E(am(x,k), k) and the integral of dn^2 are the same function
    for x, k in ((0.7, 0.3), (2.2, 0.8), (4.1, 0.6)):
        via_amplitude = incomplete_e(amplitude(x, k), k)
        via_integral = epsilon_by_quadrature(x, Modulus.real(k), tol=1e-11)
        assert via_amplitude == pytest.approx(via_integral, abs=1e-9)
        assert abs(epsilon(x, k) - via_amplitude) <= 1e-14
