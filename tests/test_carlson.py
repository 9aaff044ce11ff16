import math

import numpy as np
import pytest
from scipy.integrate import quad

import goldens
from carlson_ref import rc, rd
from epszeta import DomainError, rf


def agm_complete_k_e(k):
    # AGM route for K and E, independent of the Carlson forms
    a, b, c = 1.0, math.sqrt((1.0 - k) * (1.0 + k)), k
    csum = 0.5 * c * c
    pow2 = 0.5
    while abs(c) > 1e-17 * a:
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        pow2 *= 2.0
        csum += pow2 * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * (1.0 - csum)


def test_rf_equal_arguments_inverse_sqrt():
    assert rf(1, 1, 1) == pytest.approx(1.0, rel=1e-15)
    assert rf(4, 4, 4) == pytest.approx(0.5, rel=1e-15)


def test_rf_zero_argument_is_complete_k():
    assert rf(0, 1, 1) == pytest.approx(math.pi / 2, rel=1e-15)
    # K(0.5) through RF(0, 1-k^2, 1), against the frozen reference and AGM
    assert rf(0, 0.75, 1) == pytest.approx(goldens.K_HALF, rel=1e-14)
    assert rf(0, 0.75, 1) == pytest.approx(agm_complete_k_e(0.5)[0], abs=1e-13)
    # and against quadrature of the Legendre integral for K(0.5)
    ref, _ = quad(lambda t: 1.0 / math.sqrt(1.0 - 0.25 * math.sin(t) ** 2),
                  0, math.pi / 2, epsabs=0, epsrel=1e-12)
    assert rf(0, 0.75, 1) == pytest.approx(ref, rel=1e-11)


def test_zero_argument_defining_integrals():
    # substituting t = u^2 removes the endpoint singularity of the integrands
    ref, _ = quad(lambda u: 1.0 / np.sqrt((u * u + 0.75) * (u * u + 1.0)),
                  0, np.inf, epsabs=0, epsrel=1e-12)
    assert rf(0, 0.75, 1) == pytest.approx(ref, rel=1e-10)
    ref, _ = quad(lambda u: 3.0 / (np.sqrt(u * u + 2.0) * (u * u + 1.0) ** 1.5),
                  0, np.inf, epsabs=0, epsrel=1e-12)
    assert rd(0, 2, 1) == pytest.approx(ref, rel=1e-10)


def test_rf_fixed_goldens():
    assert rf(1, 2, 4) == pytest.approx(goldens.RF_1_2_4, rel=1e-14)
    assert rf(0.02, 0.7, 30) == pytest.approx(goldens.RF_002_07_30, rel=1e-14)


def test_rd_equal_arguments_inverse_three_halves():
    assert rd(1, 1, 1) == pytest.approx(1.0, rel=1e-15)
    assert rd(4, 4, 4) == pytest.approx(0.125, rel=1e-15)


def test_rd_fixed_goldens():
    assert rd(0, 2, 1) == pytest.approx(goldens.RD_021, rel=1e-14)
    assert rd(0.5, 2, 3) == pytest.approx(goldens.RD_05_2_3, rel=1e-14)
    assert rd(0, 3, 0.5) == pytest.approx(goldens.RD_0_3_05, rel=1e-14)


def test_rf_rd_combine_to_complete_e():
    # E(k) = RF(0, 1-k^2, 1) - (k^2/3) RD(0, 1-k^2, 1), checked at k = 0.5
    value = rf(0, 0.75, 1) - (0.25 / 3.0) * rd(0, 0.75, 1)
    assert value == pytest.approx(goldens.E_HALF, rel=1e-14)
    assert value == pytest.approx(agm_complete_k_e(0.5)[1], abs=1e-13)


def test_rc_closed_forms():
    assert rc(1, 1) == pytest.approx(1.0, rel=1e-15)
    assert rc(4, 4) == pytest.approx(0.5, rel=1e-15)
    assert rc(0, 1) == pytest.approx(math.pi / 2, rel=1e-15)
    assert rc(0.04, 2.5) == pytest.approx(goldens.RC_004_25, rel=1e-14)
    # principal value for negative second argument
    assert rc(1, -2) == pytest.approx(goldens.RC_1_NEG2, rel=1e-14)


def test_rc_zero_x_matches_defining_integral():
    ref, _ = quad(lambda t: 0.5 / (math.sqrt(t) * (t + 1.0)), 0, np.inf,
                  epsabs=0, epsrel=1e-12)
    assert rc(0, 1) == pytest.approx(ref, rel=1e-11)


def test_rc_continuity_near_equal_arguments():
    # the log1p and atan branches must join RC(1, 1+d) = 1 - d/3 + O(d^2) smoothly
    for d in (1e-14, 1e-10, 1e-6, 1e-3):
        assert rc(1.0, 1.0 + d) == pytest.approx(1.0 - d / 3.0, abs=d * d + 1e-14)
        assert rc(1.0, 1.0 - d) == pytest.approx(1.0 + d / 3.0, abs=d * d + 1e-14)


def test_rf_permutation_symmetry_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, y, z = 10 ** rng.uniform(-3, 3, size=3)
        base = rf(x, y, z)
        for perm in ((x, z, y), (y, x, z), (y, z, x), (z, x, y), (z, y, x)):
            assert rf(*perm) == base


def test_rd_symmetry_in_first_two_arguments():
    rng = np.random.default_rng(12)
    for _ in range(25):
        x, y, z = 10 ** rng.uniform(-3, 3, size=3)
        assert rd(x, y, z) == rd(y, x, z)


@pytest.mark.parametrize("lam", [0.25, 4.0, 1e6])
def test_homogeneity(lam):
    rng = np.random.default_rng(13)
    for _ in range(20):
        x, y, z = 10 ** rng.uniform(-2, 2, size=3)
        assert rf(lam * x, lam * y, lam * z) == pytest.approx(
            rf(x, y, z) / math.sqrt(lam), rel=1e-13)
        assert rd(lam * x, lam * y, lam * z) == pytest.approx(
            rd(x, y, z) / lam ** 1.5, rel=1e-13)


def test_defining_integral_oracle():
    # 100 random triples against direct quadrature of the integrands
    rng = np.random.default_rng(14)
    for _ in range(100):
        x, y, z = 10 ** rng.uniform(-3, 3, size=3)
        ref, _ = quad(lambda t: 0.5 / np.sqrt((t + x) * (t + y) * (t + z)),
                      0, np.inf, epsabs=0, epsrel=1e-11, limit=200)
        assert abs(rf(x, y, z) - ref) <= 1e-9 * abs(ref)
        ref, _ = quad(lambda t: 1.5 / ((t + z) * np.sqrt((t + x) * (t + y) * (t + z))),
                      0, np.inf, epsabs=0, epsrel=1e-11, limit=200)
        assert abs(rd(x, y, z) - ref) <= 1e-9 * abs(ref)


def test_domain_errors():
    with pytest.raises(DomainError):
        rf(0, 0, 1)
    with pytest.raises(DomainError):
        rf(-1, 1, 1)
    with pytest.raises(DomainError):
        rf(math.inf, 1, 1)
    with pytest.raises(DomainError):
        rf(math.nan, 1, 1)
    with pytest.raises(DomainError):
        rd(1, 1, 0)
    with pytest.raises(DomainError):
        rd(0, 0, 1)
    with pytest.raises(DomainError):
        rd(-1, 1, 1)
    with pytest.raises(DomainError):
        rc(-1, 1)
    with pytest.raises(DomainError):
        rc(1, 0)
    with pytest.raises(DomainError):
        rc(1, math.inf)
