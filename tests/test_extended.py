import cmath
import copy
import functools
import gc
import math
import pickle
import re
import struct
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import goldens
import epszeta
from epszeta import (DomainError, ElasticaParams, Modulus, Regime, amplitude,
                     complete_e, complete_k, ek_ratio, epsilon, epsilon_any,
                     epsilon_by_quadrature, flexural_point, incomplete_e,
                     inflexural_point, rf, sncndn, uniform_grid, zeta, zeta_any)
from epszeta import extended
from epszeta.extended import _MAX_IMAG, _MAX_LARGE
from epszeta.jacobi import _Agm, _kernel, _Unit
from raw_k import (ek_ratio_large_real, epsilon_imaginary, epsilon_large_real,
                   epsilon_large_real_via_zeta, imaginary_submoduli,
                   k_e_continued, reciprocal_companion, zeta_imaginary,
                   zeta_large_real)

TABLE_TOL = 5e-7

# the (x, k) routines of the standard range, which take a raw k, each as a
# function of k alone (at x = 0.5), keyed by its name
XK_ROUTINES = {
    **{fn.__name__: (lambda k, fn=fn: fn(0.5, k))
       for fn in (epsilon, zeta, amplitude, sncndn, incomplete_e)},
    "complete_k": complete_k, "complete_e": complete_e}
# each call that checks a raw modulus k: Modulus(regime, k), keyed by the
# regime, and the (x, k) routines
K_CALLS = {**{regime: functools.partial(Modulus, regime) for regime in Regime}, **XK_ROUTINES}
# each public routine that takes an argument x (incomplete_e its phi, a curve
# point its u) as a function of it alone, keyed by its name, with the
# argument's name: the (x, k) routines at k = 0.5, the dispatchers and the
# oracle on a modulus of each regime, the oracle's tol, the curve points and
# each of rf's x, y, z
X_CALLS = {
    **{fn.__name__: (lambda x, fn=fn: fn(x, 0.5), "x") for fn in (epsilon, zeta, amplitude, sncndn)},
    "incomplete_e": (lambda phi: incomplete_e(phi, 0.5), "phi"),
    **{f"{fn.__name__} {m.regime.value}": (lambda x, fn=fn, m=m: fn(x, m), "x")
       for fn in (epsilon_any, zeta_any, epsilon_by_quadrature)
       for m in (Modulus.real(0.5), Modulus.real(2.0), Modulus.imaginary(2.0))},
    "epsilon_by_quadrature tol": (lambda tol: epsilon_by_quadrature(0.5, Modulus.real(0.5), tol),
                                  "tol"),
    "flexural_point": (lambda u: flexural_point(u, ElasticaParams(0.5)), "u"),
    "inflexural_point": (lambda u: inflexural_point(u, ElasticaParams(2.0)), "u"),
    "rf x": (lambda x: rf(x, 2.0, 3.0), "x"),
    "rf y": (lambda y: rf(1.0, y, 3.0), "y"),
    "rf z": (lambda z: rf(1.0, 2.0, z), "z")}
# the other checked numbers, which keep an int as Modulus keeps k: each as a
# function of it alone, with the text of its refusal of what is not a real number
NUMBER_CALLS = {
    "ElasticaParams k": (ElasticaParams, "elastica requires finite k > 0, got k={!r}"),
    "ElasticaParams omega": (lambda omega: ElasticaParams(0.5, omega),
                             "elastica requires finite omega > 0, got omega={!r}"),
    "uniform_grid u_min": (lambda u: uniform_grid(u, 3.0, 3), "u_min={!r} is not a finite float"),
    "uniform_grid u_max": (lambda u: uniform_grid(-1.0, u, 3), "u_max={!r} is not a finite float")}
# what is not a real number; a modulus k is also refused as np.float32("nan")
NOT_REAL = [True, np.True_, "0.5", b"0.5", None, 1j, 0.5j, np.complex128(0.5j),
            np.complex64(0.5j), Decimal("0.5")]


def python_calls(call):
    """The names of the Python-level frames that call() enters, after a first
    call that warms it up."""
    call()
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    assert names[0] == call.__code__.co_name
    return names[1:]


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
    @pytest.mark.parametrize("k", [True, False, "2", "abc", b"0.5", None, 1j, np.complex128(2j),
                                   Decimal("2"), pytest.param(10**400, id="10**400")], ids=repr)
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

    @pytest.mark.parametrize("call, k", [
        *(pytest.param(K_CALLS[regime], k, id=f"{regime!r}-{k!r}") for regime, k in (
            (Regime.STANDARD, np.float32(0.5)), (Regime.STANDARD, Fraction(1, 2)),
            (Regime.LARGE_REAL, np.int64(2)), (Regime.PURE_IMAGINARY, np.float32(2.0)))),
        *(pytest.param(K_CALLS[name], k, id=f"{name}-{k!r}") for name in XK_ROUTINES
          for k in (np.float32(0.5), np.float64(0.5), np.int64(0), Fraction(1, 2))),
        *(pytest.param(make, k, id=f"{make.__name__}-{k!r}")
          for make in (Modulus.real, Modulus.imaginary)
          for k in (np.float32(0.5), Fraction(1, 2), np.int64(2), np.float32(-2.0))),
        *(pytest.param(X_CALLS[name][0], x, id=f"{name}-x={x!r}") for name in X_CALLS
          for x in (np.float32(0.7), np.float64(0.7), np.int64(1), Fraction(1, 2), 1)),
        *(pytest.param(NUMBER_CALLS[name][0], v, id=f"{name}-{v!r}") for name in NUMBER_CALLS
          for v in (np.float32(0.5), np.float64(0.5), np.int64(2), Fraction(1, 2)))])
    def test_modulus_converts_numbers_as_real_does(self, call, k):
        # a k that is neither an int nor a float is taken as float(k), as
        # `real` and `imaginary` take it, not refused as non-real: a Modulus
        # holds a float k (its repr would show any other type), and an (x, k)
        # routine computes in floats, bit for bit as at float(k).  An x (an int
        # too), an elastica's k and omega and a grid's bounds are taken alike:
        # the result is a Python float's, and a float32 warns of no cast
        got, want = call(k), call(float(k))
        assert type(got) is type(want) and repr(got) == repr(want)

    @pytest.mark.parametrize("regime, k", [
        (Regime.STANDARD, 0.5), (Regime.LARGE_REAL, 2.5), (Regime.PURE_IMAGINARY, 0.5)],
        ids=repr)
    def test_modulus_converts_a_float_subclass(self, regime, k):
        # numpy's float64 is a float subclass: held as it was, it would show in
        # the repr and keep the kernel's arithmetic, and so epsilon, numpy's
        m = Modulus(regime, np.float64(k))
        assert type(m.k) is float and repr(m).endswith(f"k={k})")
        assert type(epsilon_any(0.3, m)) is float

    @pytest.mark.parametrize("call, text, k", [
        *(pytest.param(c, "modulus must be a finite real number, got k=", k, id=f"{k!r}-{name}")
          for k in (*NOT_REAL, np.float32("nan")) for name, c in K_CALLS.items()),
        *(pytest.param(c, arg + "={!r} is not a finite float", x, id=f"{arg}={x!r}-{name}")
          for x in NOT_REAL for name, (c, arg) in X_CALLS.items()),
        *(pytest.param(c, text, v, id=f"{v!r}-{name}")
          for v in NOT_REAL for name, (c, text) in NUMBER_CALLS.items())])
    def test_modulus_refuses_what_is_not_a_real_number(self, call, text, k):
        # Modulus(regime, k) and the (x, k) routines refuse a k alike, and every
        # routine that takes an x refuses one as not a finite float, naming it
        # as the caller gave it; an elastica's k and omega and a grid's bounds
        # are refused with their own messages
        with pytest.raises(DomainError, match=re.escape(text.format(k))):
            call(k)


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

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, *(
        pytest.param(lambda v, p=p: pickle.loads(pickle.dumps(v, p)), id=f"pickle{p}")
        for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_give_the_same_bits(self, copy_of):
        # a copy builds its own rule through __init__ and evaluates as the original
        for m in self.MODULI:
            c = copy_of(m)
            assert c == m and c._rule is not m._rule
            for x in (-2.5, 0.3, 7.0):
                assert repr(epsilon_any(x, c)) == repr(epsilon_any(x, m)), (m, x)
                assert repr(zeta_any(x, c)) == repr(zeta_any(x, m)), (m, x)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_holds_regime_and_k_alone(self, protocol):
        # the rule and its kernel stay out of the stream: they are rebuilt on load
        for m in self.MODULI:
            data = pickle.dumps(m, protocol)
            assert b"_Agm" not in data and b"jacobi" not in data and b"_rule" not in data
            assert len(data) < 160, len(data)

    def test_leaves_no_reference_cycle(self):
        # the rule holds k and what it derives, never the modulus, so a dropped
        # Modulus is freed by its reference count alone
        gc.collect()
        gc.disable()
        try:
            moduli = [Modulus.real(0.5), Modulus.real(1.0), Modulus.real(2.0),
                      Modulus.imaginary(2.0)]
            del moduli
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

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

    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(1.0), Modulus.imaginary(1.5)],
                             ids=repr)
    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_real_regimes_give_a_positive_zero_imaginary_part(self, m, branch):
        # the zero Legendre terms of the standard and i*k rules give +0.0, not
        # -0.0 on one branch: `eval --format json` prints it as "im"
        assert math.copysign(1.0, ek_ratio(m, branch).imag) == 1.0
        for x in (0.0, -0.0, 0.7, -0.7, 5e-324):
            assert math.copysign(1.0, zeta_any(x, m, branch).imag) == 1.0, x

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    @pytest.mark.parametrize("x", [0.0, -0.0], ids=repr)
    def test_large_real_zeta_at_zero_is_a_positive_zero(self, x, branch):
        # i s w x + 0.0 is +0.0 at x = +-0 on both branches
        assert repr(zeta_any(x, Modulus.real(2.0), branch)) == "0j"

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
        # past 2^51 H the quadrature folds to a value (it raised DomainError
        # at its last node, past the reduction bound)
        want = epsilon_any(1e16, Modulus.real(2.0))
        assert abs(epsilon_by_quadrature(1e16, Modulus.real(2.0)) - want) <= 1e-15 * want

    def test_wrong_regime_is_domain_error(self):
        # k_e_continued is the one public routine bound to a single regime
        with pytest.raises(DomainError):
            epszeta.k_e_continued(Modulus.real(0.5))
        with pytest.raises(DomainError):
            epszeta.k_e_continued(Modulus.imaginary(2.0))

    @pytest.mark.parametrize("fn, x, m", [
        ("epsilon_any", math.inf, Modulus.real(1e6)), ("zeta_any", 1e10, Modulus.real(1e6)),
        ("epsilon_any", -math.inf, Modulus.imaginary(1e3)),
        ("zeta_any", 1e15, Modulus.imaginary(1e3))])
    def test_descent_failure_names_the_caller(self, fn, x, m):
        # the descent sees kx or x/k1p and 1/k or k1; the error names x and k.
        # epsilon refuses only an x that is not finite: past the reduction
        # bound it is its linear term (test_epsilon_past_the_reduction_bound)
        with pytest.raises(DomainError, match=re.escape(
                f"{fn}(x={x!r}) fails for the {m.regime.value} modulus k={m.k!r}")):
            getattr(epszeta, fn)(x, m)

    def test_huge_imaginary_modulus_names_the_cause(self):
        # from k = 2^26 on, k/sqrt(1+k^2) rounds to 1
        for call in (lambda m: epsilon_any(0.5, m), lambda m: zeta_any(0.5, m),
                     lambda m: epsilon_by_quadrature(0.5, m)):
            with pytest.raises(DomainError, match="rounds to 1"):
                call(Modulus.imaginary(1e8))

    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
        *(complex(a, b) for a, b in [
            (math.inf, 0.0), (0.0, math.inf), (-math.inf, 1.0), (1.0, -math.inf),
            (math.nan, 0.0), (0.0, math.nan), (math.inf, math.nan), (math.nan, math.inf),
            (-0.0, -0.0), (5e-324, -5e-324), (1e308, -1e308), (-1e308, 1e308)])], ids=repr)
    def test_finiteness_test_is_cmath_isfinite(self, monkeypatch, value):
        # each dispatcher refuses what cmath.isfinite refuses, naming x, the
        # regime and k, and returns anything else as it formed it.  At x = 1 on
        # the lower branch (s = -1) a real value is the periodic part P; a
        # complex one is the slope of epsilon = P + slope x, and Z = P + drift x
        # + i s w x takes its parts from drift and w
        real = isinstance(value, float)

        class Rule:
            slope = 0.0 if real else value
            drift = 0.0 if real else value.real
            w = 0.0 if real else -value.imag

            def __init__(self, k):
                pass

            def periodic(self, x):
                return value if real else 0.0

        monkeypatch.setattr(extended, "_Agm", Rule)
        m = Modulus.real(0.5)
        formed = {epsilon_any: value + 0.0 if real else 0.0 + value * 1.0,
                  zeta_any: (complex(value + 0.0, 0.0) if real
                             else complex(0.0 + value.real, value.imag + 0.0))}
        for fn, want in formed.items():
            if cmath.isfinite(value):
                assert repr(fn(1.0, m)) == repr(want)
            else:
                with pytest.raises(DomainError, match=re.escape(
                        f"{fn.__name__}(x=1.0) has no finite value for the standard "
                        "modulus k=0.5")):
                    fn(1.0, m)

    @pytest.mark.parametrize("fn, make, k, calls", [
        (epsilon_any, Modulus.real, 0.5, 6), (epsilon_any, Modulus.real, 2.5, 8),
        (epsilon_any, Modulus.imaginary, 2.5, 7), (zeta_any, Modulus.real, 0.5, 7),
        (zeta_any, Modulus.real, 2.5, 9), (zeta_any, Modulus.imaginary, 2.5, 8)])
    def test_python_calls_of_a_fresh_modulus_call(self, fn, make, k, calls):
        # the Python-level frames of one fresh-modulus call, pinned: a change
        # that adds one to this path, the benchmark's mixed-points, says so here
        names = python_calls(lambda: fn(0.7, make(k)))
        assert len(names) == calls, names

    @pytest.mark.parametrize("fn, calls", [(epsilon, 6), (zeta, 5)])
    def test_python_calls_of_an_x_k_call(self, fn, calls):
        # epsilon(x, k) and zeta(x, k) take a float k as `Modulus.real` takes
        # it; any other real number, numpy's float64 too, goes through
        # `_magnitude`, which converts it
        names = python_calls(lambda: fn(0.7, 0.5))
        assert len(names) == calls, names
        names = python_calls(lambda: fn(0.7, np.float64(-0.5)))
        assert "_magnitude" in names, names
        assert repr(fn(0.7, np.float64(-0.5))) == repr(fn(0.7, 0.5))

    @pytest.mark.parametrize("fn, calls", [(epsilon_any, 3), (zeta_any, 4)])
    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(2.5), Modulus.imaginary(2.5)],
                             ids=repr)
    def test_python_calls_of_a_held_modulus_call(self, m, fn, calls):
        # a dispatcher on a Modulus the caller holds: the dispatcher, the rule's
        # periodic part and the one descent, in every regime, and zeta_any's
        # branch sign
        names = python_calls(lambda: fn(0.7, m))
        assert len(names) == calls, names


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
    # no rule holds the modulus, which would make a reference cycle; a
    # standard modulus's rule is the kernel of k itself, or its k = 1 limit,
    # and each other rule holds the kernel of its standard-range modulus
    rule = m._rule
    assert not any(isinstance(getattr(rule, name), Modulus) for name in type(rule).__slots__)
    if m.regime is Regime.STANDARD:
        agm, reduced = rule, m.k
        assert type(rule) is (_Unit if m.k == 1.0 else _Agm)
    elif m.regime is Regime.LARGE_REAL:
        agm, reduced = rule.agm, 1.0 / m.k
    else:
        agm, reduced = rule.agm, m.k / math.hypot(1.0, m.k)
    assert agm.k == reduced
    assert (agm.K == math.inf) is (reduced == 1.0)


# the moduli of the curves, which refuse k = 1
REAL_MODULI = [*(Modulus.real(k) for k in (0.0, 1e-9, 0.5, 0.999999, 1.0 - 2.0 ** -40)),
               *(Modulus.real(k) for k in (1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.5, 2.0, 1e3, 1e8,
                                           1e50, 1e150))]


@pytest.mark.parametrize("m", REAL_MODULI, ids=repr)
def test_real_rule_jacobi(m):
    # each real-modulus rule gives the columns of cn of its own k and P =
    # epsilon - slope x at each x = u + s from one batch descent: epsilon =
    # slope x + P bit for bit, and cn is the scalar kernel's, cn(x, k) for
    # k < 1 and dn(kx, 1/k) past k = 1 (DLMF 22.17.14), also at a shift s
    rule, k = m._rule, m.k
    agm = rule if m.regime is Regime.STANDARD else rule.agm  # a standard rule is its kernel
    xs = [x / k if k > 1.0 else x  # kx stays within the period reduction
          for x in (-7.3, -0.4, -0.0, 0.0, 1e-300, 0.25, 1.0, 3.3, 40.0)]
    for s in (0, 0.5 * agm.K / max(1.0, k)):
        cns, ps = rule.columns(xs, s)
        assert len(cns) == len(ps) == len(xs)
        for u, cn, p in zip(xs, cns, ps):
            x = u + s
            assert rule.slope * x + p == epsilon_any(x, m), x
            if m.regime is Regime.STANDARD:
                assert cn == _kernel(k).jacobi(x)[1], x
            else:
                assert cn == agm.jacobi(k * x)[2], x


@pytest.mark.parametrize("tag, m, x", [
    ("05_1E16", Modulus.real(0.5), 1e16), ("05_M1E20", Modulus.real(0.5), -1e20),
    ("0999999_1E20", Modulus.real(0.999999), 1e20),
    ("1M2EM40_1E300", Modulus.real(1.0 - 2.0 ** -40), 1e300),
    ("R2_1E16", Modulus.real(2.0), 1e16), ("R2_M1E300", Modulus.real(2.0), -1e300),
    ("R1E20_1", Modulus.real(1e20), 1.0), ("R1E100_1", Modulus.real(1e100), 1.0),
    ("I2_1E16", Modulus.imaginary(2.0), 1e16), ("I1E3_1E15", Modulus.imaginary(1e3), 1e15),
    ("I1E7_1E12", Modulus.imaginary(1e7), 1e12)], ids=lambda v: v if isinstance(v, str) else "")
def test_epsilon_past_the_reduction_bound(tag, m, x):
    # past |x| = 2^51 K of the descent (of kx, of x/k1p) Z keeps no correct
    # digit, and epsilon is its linear term, within 1e-15 of the value; the
    # worst of five x from just past the bound to 3.1 times it reads 9.5e-16
    # (i*1e7) over i*k in [1e-6, 6.7e7].  Z still refuses
    ref = getattr(goldens, f"EPS_PAST_{tag}")
    assert abs(epsilon_any(x, m) - ref) <= 1e-15 * abs(ref)
    if m.regime is Regime.STANDARD:
        assert epsilon(x, m.k) == epsilon_any(x, m)
    with pytest.raises(DomainError, match="too large for k="):
        zeta_any(x, m)


def test_epsilon_past_the_float_range_names_x():
    # the linear term of epsilon at i*1e7 overflows at x = 1e300: the
    # dispatcher's guard names x, the regime and k; past k = 1, kx overflows
    # and the linear term x slope stays finite
    with pytest.raises(DomainError, match=re.escape(
            "epsilon_any(x=1e+300) has no finite value for the pure_imaginary "
            "modulus k=10000000.0")):
        epsilon_any(1e300, Modulus.imaginary(1e7))
    assert epsilon_any(1e300, Modulus.real(1e20)) == 1e300 * Modulus.real(1e20)._rule.slope


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
