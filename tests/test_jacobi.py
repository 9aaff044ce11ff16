import math
import re

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

import goldens
from epszeta import (DomainError, amplitude, complete_e, complete_k,
                     incomplete_e, sncndn)
from test_carlson import agm_complete_k_e

# moduli outside |k| <= 1 and non-finite arguments of the standard routines
BAD_K = (math.nan, math.inf, 1.5)
BAD_X = (math.nan, math.inf, -math.inf)
# the degenerate moduli k = 0 and k = 1 checked on a grid of x
XS = (0.0, 1e-300, -1e-8, 0.3, -0.5, 2.0, -7.25, 30.0, -700.0)


def assert_names_bad_arguments(fn, arg="x"):
    # the one check of k and the one check of x (named arg) name the argument at fault
    for k in BAD_K:
        with pytest.raises(DomainError, match=f"k={k!r}"):
            fn(0.5, k)
    for x in BAD_X:
        with pytest.raises(DomainError, match=f"{arg}={x!r}"):
            fn(x, 0.5)
        with pytest.raises(DomainError, match=f"{arg}={x!r}"):
            fn(x, 1.0)


class TestCompleteK:
    def test_circular_case(self):
        assert complete_k(0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_half_modulus(self):
        assert complete_k(0.5) == pytest.approx(goldens.K_HALF, rel=1e-14)

    def test_agm_agreement(self):
        for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert abs(complete_k(k) - agm_complete_k_e(k)[0]) <= 1e-13 * complete_k(k)

    def test_even_in_modulus(self):
        assert complete_k(-0.5) == complete_k(0.5)

    def test_divergence_rejected(self):
        with pytest.raises(DomainError, match="K diverges"):
            complete_k(1.0)
        with pytest.raises(DomainError):
            complete_k(1.5)
        # the message names the k passed, not its magnitude
        for k in BAD_K + (-2.0, -1.0):
            with pytest.raises(DomainError, match=re.escape(f"k={k!r}")):
                complete_k(k)


class TestCompleteE:
    def test_endpoints(self):
        assert complete_e(0) == pytest.approx(math.pi / 2, rel=1e-15)
        assert complete_e(1) == 1.0

    def test_half_modulus(self):
        assert complete_e(0.5) == pytest.approx(goldens.E_HALF, rel=1e-14)

    def test_quadrature_of_integrand(self):
        for k in (0.3, 0.5, 0.9):
            ref, _ = quad(lambda t: math.sqrt(1.0 - (k * math.sin(t)) ** 2),
                          0, math.pi / 2, epsabs=0, epsrel=1e-12)
            assert complete_e(k) == pytest.approx(ref, rel=1e-11)

    def test_even_in_modulus(self):
        assert complete_e(-0.7) == complete_e(0.7)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            complete_e(1.0000001)
        for k in BAD_K:
            with pytest.raises(DomainError, match=f"k={k!r}"):
                complete_e(k)


def test_legendre_relation():
    # E K' + E' K - K K' = pi/2
    for k in np.arange(0.1, 0.95, 0.1):
        kp = math.sqrt((1 - k) * (1 + k))
        lhs = (complete_e(k) * complete_k(kp) + complete_e(kp) * complete_k(k)
               - complete_k(k) * complete_k(kp))
        assert abs(lhs - math.pi / 2) <= 1e-12


class TestIncompleteE:
    def test_zero(self):
        assert incomplete_e(0.0, 0.5) == 0.0

    def test_quarter_period_is_complete(self):
        assert incomplete_e(math.pi / 2, 0.5) == pytest.approx(complete_e(0.5), rel=1e-14)

    def test_golden_values(self):
        assert incomplete_e(0.7, 0.5) == pytest.approx(goldens.IE_07_05, rel=1e-14)
        # |phi| > pi/2 goes through the quasi-period extension
        assert incomplete_e(2.5, 0.6) == pytest.approx(goldens.IE_25_06, rel=1e-14)

    @pytest.mark.parametrize("tag, phi, k", [
        ("PI2_1M1EM15", math.pi / 2, 1.0 - 1e-15),
        ("PI2P1EM9_1M1EM15", math.pi / 2 + 1e-9, 1.0 - 1e-15),
        ("3PI2_1M1EM15", 3 * math.pi / 2, 1.0 - 1e-15),
        ("PI2M1EM12_1M1EM12", math.pi / 2 - 1e-12, 1.0 - 1e-12),
        ("07_1", 0.7, 1.0), ("07_1EM9", 0.7, 1e-9)])
    def test_hard_corner_goldens(self, tag, phi, k):
        # F(phi, k) at and next to K as k -> 1-, and the moduli 1 and 1e-9
        ref = getattr(goldens, f"IE_{tag}")
        assert abs(incomplete_e(phi, k) - ref) <= 2e-15 * abs(ref)

    def test_mpmath_grid(self):
        # E(phi) keeps up to a few times the error of the kernel's E and E/K
        # (within 1e-15 of themselves as k -> 1) where 2nE and E(phi - n pi)
        # cancel: 1.25e-15 at worst on twenty such grids (seeds 20-39)
        rng = np.random.default_rng(28)
        with mp.workdps(40):
            for _ in range(200):
                phi = float(rng.uniform(-20.0, 20.0))
                k = float(1.0 - 10.0 ** rng.uniform(-15.0, 0.0))
                ref = float(mp.ellipe(mp.mpf(phi), mp.mpf(k) ** 2))
                assert abs(incomplete_e(phi, k) - ref) <= 4e-15 * max(1.0, abs(ref)), (phi, k)

    def test_quadrature(self):
        ref, _ = quad(lambda t: math.sqrt(1.0 - (0.5 * math.sin(t)) ** 2),
                      0, 0.7, epsabs=0, epsrel=1e-12)
        assert incomplete_e(0.7, 0.5) == pytest.approx(ref, rel=1e-11)

    def test_quasi_periodicity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            phi = rng.uniform(-5, 5)
            k = rng.uniform(0, 1)
            lhs = incomplete_e(phi + math.pi, k)
            rhs = incomplete_e(phi, k) + 2.0 * complete_e(k)
            assert abs(lhs - rhs) <= 1e-12

    def test_odd(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            phi = rng.uniform(0, 6)
            k = rng.uniform(0, 1)
            assert abs(incomplete_e(-phi, k) + incomplete_e(phi, k)) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            incomplete_e(0.5, 1.5)
        with pytest.raises(DomainError):
            incomplete_e(math.inf, 0.5)
        assert_names_bad_arguments(incomplete_e, "phi")
        with pytest.raises(DomainError, match=re.escape("phi=nan is not a finite float (k=0.5)")):
            incomplete_e(math.nan, 0.5)


class TestAmplitude:
    def test_zero(self):
        assert amplitude(0.0, 0.5) == 0.0

    def test_quarter_period(self):
        assert amplitude(complete_k(0.5), 0.5) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_degenerate_moduli(self):
        assert amplitude(0.5, 0) == 0.5
        # k = 1 is the Gudermannian
        for x in (-3.0, -0.4, 0.7, 5.0):
            assert amplitude(x, 1) == pytest.approx(math.asin(math.tanh(x)), abs=1e-14)
        for x in XS:
            assert amplitude(x, 0) == x
            assert amplitude(x, 1) == 2.0 * math.atan(math.tanh(0.5 * x))

    def test_golden_values(self):
        assert amplitude(3.0, 0.8) == pytest.approx(goldens.AM_3_08, rel=1e-13)
        assert amplitude(0.85, 0.999) == pytest.approx(goldens.AM_085_0999, rel=1e-13)

    def test_monotone_increasing(self):
        for k in (0.2, 0.8, 0.99):
            xs = np.linspace(-8, 8, 400)
            vals = [amplitude(x, k) for x in xs]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_quasi_period(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            x = rng.uniform(-4, 4)
            k = rng.uniform(0.05, 0.95)
            period = 2.0 * complete_k(k)
            assert amplitude(x + period, k) == pytest.approx(
                amplitude(x, k) + math.pi, abs=1e-12)

    def test_derivative_is_dn(self):
        rng = np.random.default_rng(24)
        h = 1e-5
        for _ in range(60):
            x = rng.uniform(-5, 5)
            k = rng.uniform(0, 0.99)
            fd = (amplitude(x + h, k) - amplitude(x - h, k)) / (2 * h)
            assert abs(fd - sncndn(x, k).dn) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            amplitude(0.5, 1.01)
        with pytest.raises(DomainError):
            amplitude(math.nan, 0.5)
        assert_names_bad_arguments(amplitude)


class TestSncndn:
    def test_origin(self):
        assert sncndn(0.0, 0.7) == (0.0, 1.0, 1.0)

    def test_circular_case(self):
        sn, cn, dn = sncndn(0.5, 0)
        assert sn == pytest.approx(math.sin(0.5), abs=1e-15)
        assert cn == pytest.approx(math.cos(0.5), abs=1e-15)
        assert dn == 1.0

    def test_hyperbolic_case(self):
        sn, cn, dn = sncndn(0.5, 1)
        assert dn == pytest.approx(1.0 / math.cosh(0.5), rel=1e-15)
        assert sn == pytest.approx(math.tanh(0.5), rel=1e-15)
        assert cn == dn
        for x in XS:
            sech = 1.0 / math.cosh(x)
            assert sncndn(x, 1) == (math.tanh(x), sech, sech)
        # beyond |x| = 710.5 cosh overflows; sech is 2 e^-|x| there
        assert sncndn(-720.0, 1) == (-1.0, 2.0 * math.exp(-720.0), 2.0 * math.exp(-720.0))

    def test_domain(self):
        assert_names_bad_arguments(sncndn)

    def test_pythagorean_identities(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            x = rng.uniform(-5, 5)
            k = rng.uniform(0, 0.999)
            sn, cn, dn = sncndn(x, k)
            assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
            assert abs(dn * dn + (k * sn) ** 2 - 1.0) <= 1e-12

    def test_dn_range(self):
        rng = np.random.default_rng(26)
        for _ in range(100):
            x = rng.uniform(-8, 8)
            k = rng.uniform(0, 0.999)
            dn = sncndn(x, k).dn
            kp = math.sqrt((1 - k) * (1 + k))
            assert kp - 1e-12 <= dn <= 1.0 + 1e-12

    def test_even_modulus(self):
        assert sncndn(1.3, -0.6) == sncndn(1.3, 0.6)

    def test_periodicity(self):
        rng = np.random.default_rng(27)
        for _ in range(40):
            x = rng.uniform(-3, 3)
            k = rng.uniform(0.05, 0.9)
            period = 4.0 * complete_k(k)
            assert abs(sncndn(x + period, k).sn - sncndn(x, k).sn) <= 1e-10
