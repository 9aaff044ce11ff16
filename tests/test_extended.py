import cmath
import copy
import math
import pickle
import re
import struct

import mpmath as mp
import numpy as np
import pytest

import goldens
import epszeta
from epszeta import (DomainError, Modulus, Regime, complete_e, complete_k,
                     ek_ratio, epsilon, epsilon_any, epsilon_by_quadrature,
                     zeta_any)
from epszeta.extended import _MAX_IMAG, _MAX_LARGE, _rule
from raw_k import (ek_ratio_large_real, epsilon_imaginary, epsilon_large_real,
                   epsilon_large_real_via_zeta, imaginary_submoduli,
                   k_e_continued, reciprocal_companion, zeta_imaginary,
                   zeta_large_real)

TABLE_TOL = 5e-7


class TestModulus:
    def test_real_constructor_routes_regimes(self):
        assert Modulus.real(0.5).regime is Regime.STANDARD
        assert Modulus.real(1.0).regime is Regime.STANDARD
        assert Modulus.real(math.nextafter(1.0, math.inf)).regime is Regime.LARGE_REAL
        assert Modulus.real(2.0).regime is Regime.LARGE_REAL

    def test_signs_are_stripped(self):
        assert Modulus.real(-2.0) == Modulus.real(2.0)
        assert Modulus.imaginary(-1.0) == Modulus.imaginary(1.0)

    def test_imaginary_zero_collapses_to_standard(self):
        assert Modulus.imaginary(0.0).regime is Regime.STANDARD

    def test_range_constants_are_their_causes(self):
        # the largest k whose k * k is finite, and the first k whose k1 =
        # k/sqrt(1+k^2) rounds to 1
        top = math.nextafter(_MAX_LARGE, math.inf)
        assert math.isfinite(_MAX_LARGE * _MAX_LARGE) and math.isinf(top * top)
        below = math.nextafter(_MAX_IMAG, 0.0)
        assert _MAX_IMAG / math.hypot(1.0, _MAX_IMAG) == 1.0
        assert below / math.hypot(1.0, below) < 1.0

    @pytest.mark.parametrize("make, inside, cause", [
        (Modulus.real, 1.3407807929942596e154, "its k^2 overflows"),
        (Modulus.imaginary, math.nextafter(2.0 ** 26, 0.0), "k1 = k/sqrt(1+k^2) rounds to 1")],
        ids=["large_real", "pure_imaginary"])
    def test_both_sides_of_each_upper_bound(self, make, inside, cause):
        assert make(inside).k == inside
        outside = math.nextafter(inside, math.inf)
        with pytest.raises(DomainError, match=re.escape(f"k={outside!r}: {cause}")):
            make(outside)

    def test_validation(self):
        with pytest.raises(DomainError):
            Modulus(Regime.STANDARD, 1.5)
        with pytest.raises(DomainError):
            Modulus(Regime.LARGE_REAL, 0.5)
        with pytest.raises(DomainError):
            Modulus(Regime.PURE_IMAGINARY, 0.0)
        with pytest.raises(DomainError):
            Modulus(Regime.STANDARD, math.nan)
        with pytest.raises(DomainError):
            Modulus(Regime.STANDARD, True)
        with pytest.raises(DomainError):
            Modulus(Regime.PURE_IMAGINARY, True)

    @pytest.mark.parametrize("regime, k", [
        (Regime.STANDARD, math.nan), (Regime.LARGE_REAL, math.inf),
        (Regime.PURE_IMAGINARY, -math.inf), (Regime.STANDARD, 2.0),
        (Regime.LARGE_REAL, 1.0), (Regime.PURE_IMAGINARY, 0.0),
        (Regime.PURE_IMAGINARY, -1.0)])
    def test_rejection_names_k(self, regime, k):
        with pytest.raises(DomainError, match=re.escape(f"k={k!r}")):
            Modulus(regime, k)

    @pytest.mark.parametrize("regime", ["standard", None, 0])
    def test_regime_not_a_member_is_refused(self, regime):
        # the rules are keyed by Regime members: a bare KeyError or
        # AttributeError from the dispatchers otherwise
        with pytest.raises(DomainError, match=re.escape(f"got regime={regime!r}")):
            Modulus(regime, 0.5)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_int_past_the_float_range_is_not_real(self, regime):
        # math.isfinite raises OverflowError on such an int; Modulus refuses it as
        # the constructors do
        with pytest.raises(DomainError, match=r"finite real number, got k=10{400}$"):
            Modulus(regime, 10**400)

    def test_large_real_int_whose_square_overflows(self):
        with pytest.raises(DomainError, match=r"k=10{200}: its k\^2 overflows"):
            Modulus(Regime.LARGE_REAL, 10**200)

    @pytest.mark.parametrize("make", [Modulus.real, Modulus.imaginary])
    @pytest.mark.parametrize("k", [True, False, "2", "abc", b"0.5", None, 1j,
                                   pytest.param(10**400, id="10**400")], ids=repr)
    def test_constructors_reject_what_is_not_a_real_number(self, make, k):
        # float() would take a bool and parse a string; the constructors refuse
        # them, and what float() cannot convert, as Modulus refuses a non-real k
        with pytest.raises(DomainError, match=re.escape(f"k={k!r}")):
            make(k)

    @pytest.mark.parametrize("make", [Modulus.real, Modulus.imaginary])
    def test_constructors_reject_a_numpy_bool(self, make):
        with pytest.raises(DomainError, match=re.escape(f"k={np.True_!r}")):
            make(np.True_)

    @pytest.mark.parametrize("make", [Modulus.real, Modulus.imaginary])
    def test_refusal_of_an_int_too_long_to_print(self, make):
        # float() overflows, and repr() refuses past the int-to-str digit limit
        k = 10**5000
        try:
            shown = repr(k)
        except ValueError:
            shown = "<int without a repr>"
        with pytest.raises(DomainError, match=re.escape(f"k={shown}")):
            make(k)

    @pytest.mark.parametrize("k", [2, np.float64(2.0), np.float32(2.0), np.int64(2)], ids=repr)
    def test_constructors_convert_numbers(self, k):
        assert Modulus.real(k) == Modulus(Regime.LARGE_REAL, 2.0)
        assert Modulus.imaginary(-k) == Modulus(Regime.PURE_IMAGINARY, 2.0)


class TestModulusValue:
    # a Modulus is a frozen value: equal, hashed and shown by (regime, k)
    MODULI = [Modulus.real(0.5), Modulus.real(2.0), Modulus.imaginary(2.0)]

    def test_equality_is_by_value_and_type(self):
        assert Modulus.real(2.0) == Modulus(Regime.LARGE_REAL, 2.0)
        assert Modulus(regime=Regime.LARGE_REAL, k=2.0) == Modulus.real(2.0)
        assert Modulus.real(2.0) != Modulus.real(3.0)
        assert Modulus.real(2.0) != Modulus.imaginary(2.0)
        assert Modulus.real(2.0) != (Regime.LARGE_REAL, 2.0)
        assert not Modulus.real(2.0) == (Regime.LARGE_REAL, 2.0)

    def test_hash_agrees_with_equality(self):
        assert hash(Modulus.real(-2.0)) == hash(Modulus(Regime.LARGE_REAL, 2.0))
        assert hash(Modulus.real(2.0)) == hash((Regime.LARGE_REAL, 2.0))
        assert len({*self.MODULI, Modulus.real(-0.5), Modulus.imaginary(-2.0)}) == 3

    def test_repr(self):
        assert (repr(Modulus.real(2.0))
                == "Modulus(regime=<Regime.LARGE_REAL: 'large_real'>, k=2.0)")
        assert (repr(Modulus.imaginary(0.0))
                == "Modulus(regime=<Regime.STANDARD: 'standard'>, k=0.0)")

    @pytest.mark.parametrize("name", ["regime", "k", "other"])
    def test_frozen(self, name):
        m = Modulus.real(2.0)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(m, name, 0.5)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(m, name)
        assert m == Modulus.real(2.0)

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, *(
        pytest.param(lambda v, p=p: pickle.loads(pickle.dumps(v, p)), id=f"pickle{p}")
        for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_round_trip(self, copy_of):
        for m in self.MODULI:
            c = copy_of(m)
            assert type(c) is Modulus and c == m and c.regime is m.regime and c.k == m.k

    def test_unpickled_modulus_is_validated(self):
        # a stream whose k was altered to 0.5 is refused as a large-real k <= 1
        data = pickle.dumps(Modulus.real(2.0))
        forged = data.replace(struct.pack(">d", 2.0), struct.pack(">d", 0.5))
        assert forged != data
        with pytest.raises(DomainError, match=re.escape("requires k > 1, got k=0.5")):
            pickle.loads(forged)

    def test_match(self):
        def kind(m):
            match m:
                case Modulus(Regime.STANDARD, k):
                    return "standard", k
                case Modulus(Regime.LARGE_REAL, k):
                    return "large", k
                case Modulus(regime=Regime.PURE_IMAGINARY, k=k):
                    return "imaginary", k
        assert [kind(m) for m in self.MODULI] == [
            ("standard", 0.5), ("large", 2.0), ("imaginary", 2.0)]


class TestDerivedModuli:
    # the pair k1, k1p of i*k is internal to the imaginary rule; the tests
    # form it from hypot (raw_k) and check the rule through its E/K
    def test_pythagorean_invariant(self):
        for k in (1e-4, 0.3, 1.0, 7.5, 1e4):
            k1, k1p = imaginary_submoduli(k)
            assert 0.0 < k1 < 1.0 and 0.0 < k1p < 1.0
            assert abs(k1 * k1 + k1p * k1p - 1.0) <= 1e-15
        # E/K of i*k = E(k1)/(k1p^2 K(k1)); at k = 1e4 the test's own
        # complete_k(k1) rounds its complement, so it stops at 7.5
        for k in (1e-4, 0.3, 1.0, 7.5):
            k1, k1p = imaginary_submoduli(k)
            r = ek_ratio(Modulus.imaginary(k))
            assert r.imag == 0.0
            assert r.real == pytest.approx(
                complete_e(k1) / (k1p * k1p * complete_k(k1)), rel=1e-14)

    def test_values(self):
        # at k = 1 both are sqrt(1/2), so E/K of i is 2 E/K of sqrt(1/2)
        k1, k1p = imaginary_submoduli(1.0)
        assert k1 == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert k1p == pytest.approx(math.sqrt(0.5), rel=1e-15)
        r = math.sqrt(0.5)
        assert ek_ratio(Modulus.imaginary(1.0)).real == pytest.approx(
            2.0 * complete_e(r) / complete_k(r), rel=1e-15)

    def test_reciprocal_companion(self):
        for k in (1.2, 2.0, 10.0):
            kp = reciprocal_companion(k)
            assert abs((1.0 / k) ** 2 + (1.0 / kp) ** 2 - 1.0) <= 1e-15
        with pytest.raises(DomainError):
            reciprocal_companion(0.9)


class TestEpsilonLargeReal:
    def test_table_value(self):
        assert epsilon_large_real(0.5, 2.0) == pytest.approx(0.367975, abs=TABLE_TOL)

    def test_golden_value(self):
        assert epsilon_large_real(0.5, 2.0) == pytest.approx(goldens.EPS_05_2, abs=1e-13)

    def test_odd_and_zero(self):
        assert epsilon_large_real(0.0, 3.0) == 0.0
        for x in (0.3, 1.7):
            assert abs(epsilon_large_real(-x, 2.5) + epsilon_large_real(x, 2.5)) <= 1e-13

    def test_large_modulus_goldens(self):
        # k epsilon(kx, 1/k) and (1 - k^2) x cancel to about 1/k^2 of their size;
        # summed as x (1 - k^2 (1 - E/K)) + k Z(kx, 1/k) nothing cancels
        for k, golden in ((1e3, goldens.EPS_05_R1E3), (1e6, goldens.EPS_05_R1E6),
                          (1e12, goldens.EPS_05_R1E12)):
            assert epsilon_large_real(0.5, k) == pytest.approx(golden, rel=1e-15)

    def test_reciprocal_vs_zeta_form(self):
        for k in (1.5, 2.0, 5.0):
            for x in np.linspace(-3, 3, 13):
                a = epsilon_large_real(x, k)
                b = epsilon_large_real_via_zeta(x, k)
                assert abs(a - b) <= 1e-11

    def test_quadrature_oracle(self):
        for k in (1.5, 2.0, 5.0):
            m = Modulus.real(k)
            for x in (0.25, 1.0, 3.0):
                assert abs(epsilon_large_real(x, k)
                           - epsilon_by_quadrature(x, m, tol=1e-11)) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_large_real(0.5, 1.0)
        with pytest.raises(DomainError):
            epsilon_large_real(0.5, 0.8)
        with pytest.raises(DomainError):
            epsilon_large_real(math.inf, 2.0)


class TestEkRatio:
    def test_golden_value(self):
        # the lower branch coincides with the principal continuation
        r = ek_ratio_large_real(2.0)
        assert r.real == pytest.approx(goldens.EK_RATIO_2.real, abs=1e-14)
        assert r.imag == pytest.approx(goldens.EK_RATIO_2.imag, abs=1e-14)

    def test_branches_conjugate(self):
        r = ek_ratio_large_real(3.0)
        assert ek_ratio_large_real(3.0, "upper") == r.conjugate()

    def test_symmetric_point_real_part_vanishes(self):
        # at k = sqrt(2), 1/k equals its own complement and Re(E/K) collapses to 0
        assert abs(ek_ratio_large_real(math.sqrt(2.0)).real) <= 1e-14

    def test_imaginary_part_by_legendre(self):
        # Legendre relation reduces the imaginary numerator to pi/2
        for k in (1.2, 2.0, 10.0):
            kr = 1.0 / k
            krc = math.sqrt((k - 1.0) * (k + 1.0)) / k
            denom = complete_k(kr) ** 2 + complete_k(krc) ** 2
            expect = k * k * (math.pi / 2.0) / denom
            assert ek_ratio_large_real(k).imag == pytest.approx(expect, abs=1e-12)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            ek_ratio_large_real(2.0, "middle")
        for m in (Modulus.real(0.5), Modulus.real(2.0), Modulus.imaginary(1.0)):
            with pytest.raises(ValueError):
                zeta_any(0.5, m, "middle")

    def test_real_below_one(self):
        assert ek_ratio(Modulus.real(0.5)) == complete_e(0.5) / complete_k(0.5)
        assert ek_ratio(Modulus.real(1.0)) == 0j  # K diverges at k = 1
        assert ek_ratio(Modulus.real(0.0)) == 1.0


class TestZetaLargeReal:
    def test_table_value(self):
        z = zeta_large_real(0.5, 2.0)
        assert z.real == pytest.approx(0.663361, abs=TABLE_TOL)
        assert z.imag == pytest.approx(-0.419309, abs=TABLE_TOL)

    def test_golden_value(self):
        z = zeta_large_real(0.5, 2.0)
        assert z.real == pytest.approx(goldens.ZETA_05_2.real, abs=1e-13)
        assert z.imag == pytest.approx(goldens.ZETA_05_2.imag, abs=1e-13)

    def test_zero(self):
        assert zeta_large_real(0.0, 4.0) == 0j

    def test_agrees_with_epsilon_minus_ratio(self):
        for k in (1.5, 2.0, 5.0):
            ratio = ek_ratio_large_real(k)
            for x in (-2.0, 0.25, 1.0, 3.0):
                via_eps = complex(epsilon_large_real(x, k), 0.0) - ratio * x
                assert abs(zeta_large_real(x, k) - via_eps) <= 1e-12

    def test_imaginary_part_linear(self):
        for k in (1.5, 2.0, 5.0):
            for x in (0.3, 1.1, 2.4):
                one = zeta_large_real(x, k).imag
                two = zeta_large_real(2 * x, k).imag
                assert abs(two - 2.0 * one) <= 1e-12 * max(1.0, abs(two))

    def test_periodic_part(self):
        # k Z(kx, 1/k) repeats with period 2 K(1/k) / k
        for k in (1.5, 2.0):
            kr = 1.0 / k
            period = 2.0 * complete_k(kr) / k
            for x in (0.2, 0.9):
                from epszeta import zeta
                assert abs(k * zeta(k * (x + period), kr)
                           - k * zeta(k * x, kr)) <= 1e-11

    def test_odd_per_branch(self):
        for x in (0.4, 1.3):
            z = zeta_large_real(x, 2.0)
            assert abs(zeta_large_real(-x, 2.0) + z) <= 1e-13

    def test_branches_conjugate(self):
        z = zeta_large_real(0.7, 2.5)
        assert zeta_large_real(0.7, 2.5, "upper") == z.conjugate()


class TestKEContinued:
    def test_golden_values(self):
        pair = k_e_continued(2.0)
        assert pair.K.real == pytest.approx(goldens.KK_2.real, abs=1e-14)
        assert pair.K.imag == pytest.approx(goldens.KK_2.imag, abs=1e-14)
        assert pair.E.real == pytest.approx(goldens.EE_2.real, abs=1e-14)
        assert pair.E.imag == pytest.approx(goldens.EE_2.imag, abs=1e-14)

    def test_real_part_cancellation(self):
        # k K(k) - K(1/k) is purely imaginary (+- i K(1/k'))
        for k in (1.5, 2.0, 6.0):
            krc = math.sqrt((k - 1.0) * (k + 1.0)) / k
            diff = k * k_e_continued(k).K - complete_k(1.0 / k)
            assert abs(diff.real) <= 1e-13
            assert abs(diff.imag) == pytest.approx(complete_k(krc), rel=1e-13)

    def test_large_modulus_goldens(self):
        # Re E = k (E - k'^2 K) of 1/k, whose two terms cancel to about
        # 1/(2k^2) of their size: 1e-14 relative on both parts up to k = 5e7
        for tag, k in (("10", 10.0), ("1E3", 1e3), ("1E6", 1e6), ("5E7", 5e7)):
            pair = k_e_continued(k)
            for got, ref in ((pair.K, getattr(goldens, f"KK_R{tag}")),
                             (pair.E, getattr(goldens, f"EE_R{tag}"))):
                assert got.real == pytest.approx(ref.real, rel=1e-14), (tag, got, ref)
                assert got.imag == pytest.approx(ref.imag, rel=1e-14), (tag, got, ref)

    def test_ratio_consistency(self):
        for k in (1.3, 2.0, 8.0):
            pair = k_e_continued(k)
            assert abs(pair.E / pair.K - ek_ratio_large_real(k)) <= 1e-12

    def test_branches_conjugate(self):
        pair = k_e_continued(3.0)
        upper = k_e_continued(3.0, "upper")
        assert upper.K == pair.K.conjugate()
        assert upper.E == pair.E.conjugate()

    def test_imaginary_e_near_one(self):
        # Im E vanishes like pi/2 (k - 1), so it is bounded relative to itself,
        # which the relative-to-|E| goldens of test_large_real_goldens are not
        for tag, k in (("1P1EM11", 1.0 + 1e-11), ("1P1EM9", 1.0 + 1e-9)):
            ref = getattr(goldens, f"IM_EE_R{tag}")
            for branch, sign in (("lower", 1.0), ("upper", -1.0)):
                got = k_e_continued(k, branch).E.imag
                assert abs(got - sign * ref) <= 1e-15 * ref, (tag, branch, got, ref)

    def test_near_one_boundary(self):
        # k = 1 is the standard regime's; the float after it is large-real
        with pytest.raises(DomainError, match=r"requires k > 1, got k=1\.0$"):
            k_e_continued(1.0)
        pair = k_e_continued(math.nextafter(1.0, math.inf))
        assert math.isfinite(pair.K.real) and math.isfinite(pair.K.imag)


@pytest.mark.parametrize("tag, k, x", [("1P1EM9", 1.0 + 1e-9, 0.5), ("1E8", 1e8, 0.5),
                                       ("1E12", 1e12, 0.5), ("1E150", 1e150, 5e-149)])
def test_large_real_goldens(tag, k, x):
    # from where K(1/k) diverges to where k^2 nears overflow; relative to the
    # modulus of the value, since Im E vanishes as k -> 1+
    m = Modulus.real(k)
    pair = epszeta.k_e_continued(m)
    for got, name in ((zeta_any(x, m), "ZETA"), (ek_ratio(m), "EK"),
                      (pair.K, "KK"), (pair.E, "EE")):
        ref = getattr(goldens, f"{name}_R{tag}")
        assert abs(got - ref) <= 1e-14 * abs(ref), (name, got, ref)


@pytest.mark.parametrize("tag, k", [("1P2EM52", 1.0 + 2.0 ** -52), ("1P1EM14", 1.0 + 1e-14),
                                    ("1P1EM13", 1.0 + 1e-13)])
def test_sliver_goldens(tag, k):
    # the large-real regime down to the float after 1, where 1/k rounds to
    # within an ulp of 1 and its complement sqrt((k - 1)(k + 1))/k stays
    # exact; the bounds are the worst errors measured, relative to the value
    # (to itself for Im E, which vanishes like pi/2 (k - 1)).  epsilon is
    # within 3.4e-16 of 60-digit mpmath and 3.5e-16 of its rounded golden
    m = Modulus.real(k)
    for xtag, x in (("01", 0.1), ("05", 0.5), ("2", 2.0)):
        ref = getattr(goldens, f"EPS_X{xtag}_R{tag}")
        assert abs(epsilon_any(x, m) - ref) <= 3.5e-16 * abs(ref), (x, ref)
        ref = getattr(goldens, f"ZETA_X{xtag}_R{tag}")
        for branch, want in (("lower", ref), ("upper", ref.conjugate())):
            assert abs(zeta_any(x, m, branch) - want) <= 4e-16 * abs(want), (x, branch, ref)
    for branch in ("lower", "upper"):
        ek, kk, ee = (getattr(goldens, f"{name}_R{tag}") for name in ("EK", "KK", "EE"))
        if branch == "upper":
            ek, kk, ee = ek.conjugate(), kk.conjugate(), ee.conjugate()
        pair = epszeta.k_e_continued(m, branch)
        assert abs(ek_ratio(m, branch) - ek) <= 3.1e-15 * abs(ek), branch
        assert abs(pair.K - kk) <= 1.4e-17 * abs(kk), branch
        assert abs(pair.E - ee) <= 2.6e-15 * abs(ee), branch
        assert abs(pair.E.imag - ee.imag) <= 3.5e-16 * abs(ee.imag), branch


def _pair_grid():
    # the floats either side of where pair() switches branch (k_c^2 <= 1/2 up
    # to the float sqrt(2.0)), then seeded k - 1 in [1e-15, 3] and k in [3, 1e150]
    root2 = math.sqrt(2.0)
    rng = np.random.default_rng(29)
    yield from (math.nextafter(root2, 0.0), root2, math.nextafter(root2, 2.0))
    yield from (1.0 + float(d) for d in 10.0 ** rng.uniform(-15.0, math.log10(3.0), 100))
    yield from (float(k) for k in 10.0 ** rng.uniform(math.log10(3.0), 150.0, 100))


def test_pair_and_ratio_against_mpmath():
    # k_e_continued and ek_ratio on both branches against 40-digit mpmath, whose
    # ellipk(k^2) and ellipe(k^2) are the lower branch; Im E, which vanishes as
    # k -> 1+, relative to itself too.  The bounds sit above the worst on this
    # grid: K 4.0e-16, E 2.6e-15 and E/K 2.7e-15 of the value, Im E 6.3e-16 of itself
    for k in _pair_grid():
        m = Modulus.real(k)
        with mp.workdps(40):
            big_k, big_e = mp.ellipk(mp.mpf(k) ** 2), mp.ellipe(mp.mpf(k) ** 2)
            kk, ee, ek = complex(big_k), complex(big_e), complex(big_e / big_k)
        for branch in ("lower", "upper"):
            pair = epszeta.k_e_continued(m, branch)
            for got, ref, bound in ((pair.K, kk, 5e-16), (pair.E, ee, 3.1e-15),
                                    (ek_ratio(m, branch), ek, 3.1e-15)):
                assert abs(got.real - ref.real) <= bound * abs(ref), (k, branch, got, ref)
                assert abs(got.imag - ref.imag) <= bound * abs(ref), (k, branch, got, ref)
            assert abs(pair.E.imag - ee.imag) <= 1e-15 * abs(ee.imag), (k, branch)
            if branch == "lower":
                kk, ee, ek = kk.conjugate(), ee.conjugate(), ek.conjugate()


def test_large_real_range_is_the_modulus_range():
    # every large-real route returns a finite value from the float after 1 up
    # to the largest k with a finite k^2, and Modulus rejects the next float
    top = 1.3407807929942596e154
    for k in (math.nextafter(1.0, math.inf), 1.0 + 1e-13, 1.0 + 1e-9, 2.0, 1e8, 1e100, top):
        m = Modulus.real(k)
        x = 0.5 / k  # kx stays within the reach of the period reduction
        values = (epsilon_any(x, m), zeta_any(x, m), ek_ratio(m), *epszeta.k_e_continued(m),
                  *epszeta.inflexural_point(x, epszeta.ElasticaParams(k=k)))
        assert all(cmath.isfinite(v) for v in values), k
    beyond = math.nextafter(top, math.inf)
    assert math.isinf(beyond * beyond)
    with pytest.raises(DomainError, match=re.escape(f"k={beyond!r}")):
        Modulus.real(beyond)


def test_legendre_collapse_of_bracket():
    # K(1/k) K(1/k') [E/K + E'/K' - 1] = pi/2
    for k in (1.2, 2.0, 10.0):
        kr = 1.0 / k
        krc = math.sqrt((k - 1.0) * (k + 1.0)) / k
        bracket = (complete_e(kr) / complete_k(kr)
                   + complete_e(krc) / complete_k(krc) - 1.0)
        lhs = complete_k(kr) * complete_k(krc) * bracket
        assert abs(lhs - math.pi / 2.0) <= 1e-12


class TestEpsilonImaginary:
    def test_table_values(self):
        assert epsilon_imaginary(0.5, 0.5) == pytest.approx(0.510020, abs=TABLE_TOL)
        assert epsilon_imaginary(0.5, 1.0) == pytest.approx(0.541445, abs=TABLE_TOL)
        assert epsilon_imaginary(0.5, 2.0) == pytest.approx(0.689051, abs=TABLE_TOL)

    def test_golden_values(self):
        assert epsilon_imaginary(0.5, 0.5) == pytest.approx(goldens.EPS_05_I05, abs=1e-13)
        assert epsilon_imaginary(0.5, 1.0) == pytest.approx(goldens.EPS_05_I10, abs=1e-13)
        assert epsilon_imaginary(0.5, 2.0) == pytest.approx(goldens.EPS_05_I20, abs=1e-13)

    def test_odd_and_zero(self):
        assert epsilon_imaginary(0.0, 1.3) == 0.0
        for x in (0.4, 2.1):
            assert abs(epsilon_imaginary(-x, 0.8) + epsilon_imaginary(x, 0.8)) <= 1e-13

    def test_small_k_approaches_identity(self):
        assert epsilon_imaginary(0.7, 1e-6) == pytest.approx(0.7, abs=1e-4)

    def test_quadrature_oracle(self):
        for k in (0.5, 1.0, 2.0):
            m = Modulus.imaginary(k)
            for x in (0.25, 1.0, 3.0):
                assert abs(epsilon_imaginary(x, k)
                           - epsilon_by_quadrature(x, m, tol=1e-11)) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            epsilon_imaginary(0.5, 0.0)
        with pytest.raises(DomainError):
            epsilon_imaginary(0.5, -1.0)


class TestZetaImaginary:
    def test_table_values(self):
        assert zeta_imaginary(0.5, 0.5) == pytest.approx(-0.050738, abs=TABLE_TOL)
        assert zeta_imaginary(0.5, 1.0) == pytest.approx(-0.187029, abs=TABLE_TOL)
        assert zeta_imaginary(0.5, 2.0) == pytest.approx(-0.616203, abs=TABLE_TOL)

    def test_golden_values(self):
        assert zeta_imaginary(0.5, 0.5) == pytest.approx(goldens.ZETA_05_I05, abs=1e-13)
        assert zeta_imaginary(0.5, 2.0) == pytest.approx(goldens.ZETA_05_I20, abs=1e-13)

    def test_consistency_with_epsilon(self):
        # Z(x, ik) = eps(x, ik) - Re(E(ik)/K(ik)) x with the submodulus ratio
        for k in (0.5, 1.0, 2.0):
            k1, k1p = imaginary_submoduli(k)
            slope = complete_e(k1) / (k1p * k1p * complete_k(k1))
            for x in (0.3, 1.2, 2.7):
                assert abs(zeta_imaginary(x, k)
                           - (epsilon_imaginary(x, k) - slope * x)) <= 1e-12

    def test_odd_and_zero(self):
        assert zeta_imaginary(0.0, 1.0) == 0.0
        for x in (0.4, 1.9):
            assert abs(zeta_imaginary(-x, 1.4) + zeta_imaginary(x, 1.4)) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_imaginary(0.5, 0.0)


class TestDispatchers:
    def test_epsilon_routes(self):
        assert epsilon_any(0.5, Modulus.real(0.5)) == pytest.approx(0.490203, abs=TABLE_TOL)
        assert epsilon_any(0.5, Modulus.real(2.0)) == pytest.approx(0.367975, abs=TABLE_TOL)
        assert epsilon_any(0.5, Modulus.imaginary(1.0)) == pytest.approx(0.541445, abs=TABLE_TOL)

    def test_zeta_routes(self):
        z = zeta_any(0.5, Modulus.real(0.5))
        assert z.real == pytest.approx(0.054948, abs=TABLE_TOL) and z.imag == 0.0
        z = zeta_any(0.5, Modulus.real(2.0))
        assert z.real == pytest.approx(0.663361, abs=TABLE_TOL)
        assert z.imag == pytest.approx(-0.419309, abs=TABLE_TOL)
        z = zeta_any(0.5, Modulus.imaginary(1.0))
        assert z.real == pytest.approx(-0.187029, abs=TABLE_TOL) and z.imag == 0.0

    def test_imaginary_part_only_for_large_real(self):
        assert zeta_any(1.3, Modulus.real(0.9)).imag == 0.0
        assert zeta_any(1.3, Modulus.imaginary(2.5)).imag == 0.0
        assert zeta_any(1.3, Modulus.real(1.5)).imag != 0.0

    def test_error_propagation(self):
        with pytest.raises(DomainError):
            epsilon_any(math.inf, Modulus.real(0.5))

    def test_non_finite_result_is_domain_error(self):
        # k^2 overflows, where the reciprocal reduction would return inf - inf
        # = nan; Modulus, which cannot see x, rejects k
        with pytest.raises(DomainError, match=r"large_real modulus k=1e\+200"):
            epsilon_any(0.5, Modulus.real(1e200))

    def test_huge_real_modulus_is_domain_error(self):
        # k^2 and (k-1)(k+1) overflow; every large-real route must raise,
        # not return garbage or stall in the AGM
        for call in (lambda m: zeta_any(0.5, m), lambda m: ek_ratio(m),
                     lambda m: epszeta.k_e_continued(m), lambda m: epsilon_any(0.0, m),
                     lambda m: epsilon_by_quadrature(0.5, m)):
            with pytest.raises(DomainError):
                call(Modulus.real(1e200))
        # the quadrature names the caller's x and k, not its integrand's kx and 1/k
        with pytest.raises(DomainError, match=r"x=1e\+16.*k=2\.0"):
            epsilon_by_quadrature(1e16, Modulus.real(2.0))

    def test_wrong_regime_is_domain_error(self):
        # k_e_continued is the one public routine bound to a single regime
        with pytest.raises(DomainError):
            epszeta.k_e_continued(Modulus.real(0.5))
        with pytest.raises(DomainError):
            epszeta.k_e_continued(Modulus.imaginary(2.0))

    @pytest.mark.parametrize("fn, x, m", [
        ("epsilon_any", 1e10, Modulus.real(1e6)), ("zeta_any", 1e10, Modulus.real(1e6)),
        ("epsilon_any", 1e15, Modulus.imaginary(1e3)),
        ("zeta_any", 1e15, Modulus.imaginary(1e3))])
    def test_descent_failure_names_the_caller(self, fn, x, m):
        # the descent sees kx or x/k1p and 1/k or k1; the error names x and k
        with pytest.raises(DomainError, match=re.escape(
                f"{fn}(x={x!r}) fails for the {m.regime.value} modulus k={m.k!r}")):
            getattr(epszeta, fn)(x, m)

    def test_huge_imaginary_modulus_names_the_cause(self):
        # from k = 2^26 on, k/sqrt(1+k^2) rounds to 1
        for call in (lambda m: epsilon_any(0.5, m), lambda m: zeta_any(0.5, m),
                     lambda m: epsilon_by_quadrature(0.5, m)):
            with pytest.raises(DomainError, match="rounds to 1"):
                call(Modulus.imaginary(1e8))


@pytest.mark.parametrize("m", [
    Modulus.real(0.0), Modulus.real(0.5), Modulus.real(1.0), Modulus.real(1.0 + 1e-9),
    Modulus.real(2.0), Modulus.real(1e8),
    *(Modulus.imaginary(10.0 ** e) for e in range(-6, 7))], ids=repr)
def test_rule_contract(m):
    # every regime rule answers the same calls the same way: Z = epsilon - (E/K) x,
    # conjugate branches that coincide off the large-real regime, Z(0) = 0.
    # The identity holds to the rounding of its largest term, which at k = 1e8
    # is (E/K) x of about 4e7, not epsilon
    lower, upper = ek_ratio(m), ek_ratio(m, "upper")
    assert upper == lower.conjugate()
    if m.regime is not Regime.LARGE_REAL:
        assert upper == lower
    for x in (-7.3, -0.4, 0.25, 1.0, 3.3):
        x = x / m.k if m.k > 1e3 else x  # kx stays within the period reduction
        eps = epsilon_any(x, m)
        z = zeta_any(x, m)
        scale = max(1.0, abs(eps), abs(lower * x))
        assert abs(z - (eps - lower * x)) <= 1e-13 * scale, (x, z, eps)
        assert zeta_any(x, m, "upper") == z.conjugate()
    assert zeta_any(0.0, m) == 0j and zeta_any(0.0, m, "upper") == 0j
    # every rule is its modulus and the kernel of its standard-range modulus
    rule = _rule(m)
    assert rule.m is m
    if m.regime is Regime.STANDARD:
        reduced = m.k
    elif m.regime is Regime.LARGE_REAL:
        reduced = 1.0 / m.k
    else:
        reduced = m.k / math.hypot(1.0, m.k)
    assert rule.agm.k == reduced
    assert (rule.agm.K == math.inf) is (reduced == 1.0)


UNIT_ROUNDOFF = 2.0 ** -53


def conditioning_bound(x, m, ref):
    """8u (max(1, |ref|) + |x| d): what rounding the value and x to doubles allows.

    d is the largest |epsilon'(t) - Re E/K| over a period, the slope by
    which moving x by its rounding moves the periodic part: epsilon' is
    dn^2 in [k'^2, 1] for k <= 1, cn^2(kt, 1/k) in [0, 1] for real k > 1
    and nd^2 in [1, 1 + k^2] for i*k.  It bounds epsilon and Z alike.
    """
    if m.regime is Regime.STANDARD:
        lo, hi = 1.0 - m.k * m.k, 1.0
    elif m.regime is Regime.LARGE_REAL:
        lo, hi = 0.0, 1.0
    else:
        lo, hi = 1.0, 1.0 + m.k * m.k
    slope = ek_ratio(m).real
    d = max(hi - slope, slope - lo)
    return 8.0 * UNIT_ROUNDOFF * (max(1.0, abs(ref)) + abs(x) * d)


@pytest.mark.parametrize("ktag, m", [("05", Modulus.real(0.5)), ("R2", Modulus.real(2.0)),
                                     ("I2", Modulus.imaginary(2.0))], ids=repr)
@pytest.mark.parametrize("xtag, x", [("1E6", 1e6), ("M1E6", -1e6), ("1E12", 1e12)])
def test_large_x_goldens(ktag, m, xtag, x):
    # at large |x| the error grows with |x| as the conditioning of the
    # functions in x allows, and no further
    for got, name in ((epsilon_any(x, m), "EPS"), (zeta_any(x, m), "ZETA")):
        ref = getattr(goldens, f"{name}_X{xtag}_{ktag}")
        assert abs(got - ref) <= conditioning_bound(x, m, ref), (name, got, ref)


def test_continuity_across_regimes():
    # square-root cusp at the regime boundaries: coarse 1e-4 tolerance at 1e-6 offsets
    delta = 1e-6
    for x in (0.5, 2.0):
        base = epsilon(x, 1.0)
        assert abs(epsilon(x, 1.0 - delta) - base) <= 1e-4
        assert abs(epsilon_large_real(x, 1.0 + delta) - base) <= 1e-4
        assert abs(epsilon_imaginary(x, delta) - epsilon(x, 0.0)) <= 1e-4
