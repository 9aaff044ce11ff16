"""The AGM kernel behind K, E, am, sn/cn/dn, epsilon, zeta and E(phi, k).

The Carlson forms of carlson_ref.py, K = RF(0, k'^2, 1), E = K - (k^2/3)
RD(0, k'^2, 1) and E(phi, k) from RF and RD, share no code with the
kernel's AGM and King's sum, so they serve as its oracle, with epsilon =
E(am(x), k); mpmath goldens pin the moduli extremes.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

import goldens
from carlson_ref import carlson_e, carlson_k_e
from epszeta import (DomainError, Modulus, amplitude, complete_e, complete_k,
                     ek_ratio, epsilon, incomplete_e, k_e_continued, sncndn, zeta,
                     zeta_any)
from epszeta.extended import _MAX_LARGE
from epszeta.jacobi import _Agm

MODULI = (1e-12, 1e-6, 0.3, 0.9, 0.999, 1.0 - 1e-9, 1.0 - 1e-15)
XS = np.concatenate(([-10.0, 0.0, 10.0], np.random.default_rng(61).uniform(-10.0, 10.0, 60)))


def close(got, ref):
    return abs(got - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("k", MODULI)
class TestAgainstCarlson:
    def test_complete_integrals(self, k):
        big_k, big_e = carlson_k_e(k)
        assert close(complete_k(k), big_k)
        assert close(complete_e(k), big_e)

    def test_epsilon_is_e_at_the_amplitude(self, k):
        for x in XS:
            phi = amplitude(x, k)
            assert close(epsilon(x, k), incomplete_e(phi, k)), x
            assert close(epsilon(x, k), carlson_e(phi, k)), x

    def test_zeta_is_epsilon_minus_slope(self, k):
        big_k, big_e = carlson_k_e(k)
        for x in XS:
            ref = incomplete_e(amplitude(x, k), k) - (big_e / big_k) * x
            assert close(zeta(x, k), ref), x


@pytest.mark.parametrize("tag, k", [("1EM12", 1e-12), ("1M1EM15", 1.0 - 1e-15)])
def test_golden_extremes(tag, k):
    assert complete_k(k) == pytest.approx(getattr(goldens, f"K_{tag}"), rel=1e-14)
    assert complete_e(k) == pytest.approx(getattr(goldens, f"E_{tag}"), rel=1e-14)
    assert epsilon(2.5, k) == pytest.approx(getattr(goldens, f"EPS_25_{tag}"), rel=1e-14)
    # relative, also where Z(2.5, 1e-12) is about 2.4e-25
    assert zeta(2.5, k) == pytest.approx(getattr(goldens, f"ZETA_25_{tag}"), rel=1e-14)


def test_unit_modulus_is_domain_error():
    # the AGM degenerates at k = 1 (b0 = 0); K diverges
    with pytest.raises(DomainError):
        complete_k(1.0)
    # with k' given too: the large-real rule takes K' of the complement of
    # 1/k, which rounds to 1 from k = 9.5e7 on, from its own kernel's nome
    for kp in (None, 1e-8):
        with pytest.raises(DomainError, match="needs 0 <= k < 1"):
            _Agm(1.0, kp)
    assert cmath.isfinite(zeta_any(0.5, Modulus.real(1e8)))


def test_complementary_modulus_outside_unit_interval_is_domain_error():
    # the descent would never stop on an infinite or NaN k'
    for kp in (math.inf, math.nan, 0.0, 1.5):
        with pytest.raises(DomainError, match="complementary modulus"):
            _Agm(1e-200, kp)


class TestPeriodReduction:
    ROUTINES = (zeta, epsilon, amplitude, sncndn)

    @pytest.mark.parametrize("fn", (zeta, amplitude, sncndn))
    def test_beyond_the_bound_is_domain_error(self, fn):
        # x - 2K n keeps no correct digit at 1e17: zeta returned 0.0 silently
        for x in (1e17, -1e17):
            with pytest.raises(DomainError, match=r"x=-?1e\+17.*k=0\.5"):
                fn(x, 0.5)
        # at k = 0 too, from 2^51 K = 2^50 pi (3.5e15) on
        for x in (4e15, -1e17):
            with pytest.raises(DomainError, match=r"too large for k=0\.0"):
                fn(x, 0.0)

    def test_epsilon_beyond_the_bound_is_its_linear_term(self):
        # |Z| < 1 is below 2^-51 of (E/K) x there (goldens in test_extended.py)
        slope = ek_ratio(Modulus.real(0.5)).real
        for x in (1e17, -1e17, 1e300):
            assert epsilon(x, 0.5) == slope * x
        for x in (4e15, -1e17):
            assert epsilon(x, 0.0) == x
        # what is not a finite float is still refused
        for x in (math.inf, math.nan, 10 ** 400):
            with pytest.raises(DomainError, match="is not a finite float"):
                epsilon(x, 0.5)

    @pytest.mark.parametrize("fn", ROUTINES)
    def test_within_the_bound_returns(self, fn):
        value = fn(1e6, 0.5)
        assert all(math.isfinite(v) for v in np.atleast_1d(value))

    def test_values_within_the_bound(self):
        # reduce 1e6 by the period 2K in 40-digit arithmetic; what separates the
        # library from it is the rounding of its double-precision 2K n
        x, k = 1e6, 0.5
        with mp.workdps(40):
            m = mp.mpf(k) ** 2
            n = int(mp.nint(x / (2 * mp.ellipk(m))))
            xr = float(x - 2 * n * mp.ellipk(m))
            drift = float(2 * n * mp.ellipe(m))
        assert zeta(x, k) == pytest.approx(zeta(xr, k), abs=1e-9)
        assert sncndn(x, k).sn == pytest.approx((-1) ** n * sncndn(xr, k).sn, abs=1e-9)
        assert amplitude(x, k) == pytest.approx(amplitude(xr, k) + n * math.pi, rel=1e-14)
        assert epsilon(x, k) == pytest.approx(epsilon(xr, k) + drift, rel=1e-14)


def test_period_ratio_against_mpmath():
    # K'/K of the large-real rule's kernel of 1/k, K' the K of its complement,
    # from the float after 1 up to the largest large-real k, against 40-digit
    # K = pi/(2 agm(1, k')): within 2.5e-16 on this grid
    rng = np.random.default_rng(97)
    spread = 10.0 ** rng.uniform(-52 * math.log10(2.0), math.log10(_MAX_LARGE), 1000)
    ks = (1.0 + 2.0 ** -52, _MAX_LARGE, *(min(1.0 + float(d), _MAX_LARGE) for d in spread))
    with mp.workdps(40):
        for k in ks:
            ratio = Modulus.real(k)._rule.agm.period_ratio()
            inv = 1 / mp.mpf(k)
            ref = mp.agm(1, mp.sqrt(1 - inv * inv)) / mp.agm(1, inv)
            assert abs(ratio - ref) <= 5e-16 * ref, k


def test_large_real_calls_build_one_kernel(monkeypatch):
    # a large-real Modulus builds the one kernel of 1/k at construction, whose
    # nome gives K', and zeta_any and ek_ratio build none; k_e_continued also
    # builds the complement's kernel, for 1 - E'/K', up to sqrt(2), here the
    # float sqrt(2.0), where k_c^2 = 1 - 1/k^2 rounds to 0.4999999999999999,
    # and from the next float on needs K' alone
    root2 = math.sqrt(2.0)
    built = []
    init = _Agm.__init__
    monkeypatch.setattr(_Agm, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    for k in (1.0 + 2.0 ** -52, 1.2, math.nextafter(root2, 0.0), root2,
              math.nextafter(root2, 2.0), 2.0, 1e8, 1e150):
        built.clear()
        m = Modulus.real(k)
        assert len(built) == 1, k
        kernel = built[0]  # (1/k, k_c)
        for call in (lambda: zeta_any(0.5 / k, m), lambda: ek_ratio(m)):
            built.clear()
            call()
            assert built == [], k
        built.clear()
        k_e_continued(m)
        assert built == ([kernel[::-1]] if k <= root2 else []), k


# the batch descent against one `phase` call per x, bit for bit (repr tells
# every float apart, the sign of zero included): standard moduli, the
# large-real kernels of 1/k and the i*k kernels of k1, each on its exact
# complement, at +-0, the smallest subnormal, odd and even period indices
# and the last x on each side of the reduction bound
BATCH_KERNELS = [
    *(_Agm(k) for k in (0.0, 1e-9, 0.5, 0.999999, 1.0 - 2.0 ** -40)),
    *(Modulus.real(k)._rule.agm for k in (1.0 + 2.0 ** -52, 2.0, 1e8, 1e150)),
    *(Modulus.imaginary(k)._rule.agm for k in (1e-6, 2.0, 1e7))]


def descent_xs(agm):
    period = agm._period
    edge = 2.0 ** 50 * period  # |x / 2K| = 2^50 exactly: the last x admitted
    return [0.0, -0.0, 5e-324, -5e-324, 0.3, -0.3, *(n * period + 0.25 for n in range(-4, 5)),
            *(n * period - 1e-9 for n in (1, 2, -3)), 0.5 * period, -0.5 * period,
            # either side of the primary cell's edge K, where cos_phase skips the reduction
            math.nextafter(agm.K, math.inf), math.nextafter(-agm.K, -math.inf),
            math.nextafter(agm.K, 0.0),
            edge, -edge, math.nextafter(edge, 0.0), 1e15 * period, 7]


@pytest.mark.parametrize("agm", BATCH_KERNELS, ids=lambda agm: repr(agm.k))
def test_batch_descent_is_phase_bit_for_bit(agm):
    xs = descent_xs(agm)
    columns = tuple(map(list, zip(*map(agm.phase, xs))))
    assert repr(agm.phases(xs)) == repr(columns)
    assert repr(agm.phases([-0.0])) == repr(([-0.0], [0], [0.0]))


@pytest.mark.parametrize("agm", BATCH_KERNELS, ids=lambda agm: repr(agm.k))
def test_cos_phase_is_cos_of_phase_bit_for_bit(agm):
    # the quadrature node's descent against the cosine of the full one, on
    # the kernels and x of the batch test above, and past the bound 2^51 K
    for x in descent_xs(agm):
        assert repr(agm.cos_phase(x)) == repr(math.cos(agm.phase(x)[0])), x
    past = 2.0 ** 51 * agm._period
    for bad in (math.nan, math.inf, -math.inf, past, -past, 1e17):
        with pytest.raises(DomainError) as node:
            agm.cos_phase(bad)
        with pytest.raises(DomainError) as full:
            agm.phase(bad)
        assert str(node.value) == str(full.value)


@pytest.mark.parametrize("bad", [1e17, math.inf, -math.inf, math.nan])
def test_batch_descent_raises_at_the_first_failing_x(bad):
    agm = _Agm(0.5)
    for xs in ([bad], [0.5, bad, 1e17], [0.5, bad, math.nan, 3.0]):
        with pytest.raises(DomainError) as batch:
            agm.phases(xs)
        with pytest.raises(DomainError) as single:
            agm.phase(bad)
        assert str(batch.value) == str(single.value)
