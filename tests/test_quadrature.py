import math
import re
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import goldens
from epszeta import (ConvergenceError, DomainError, Modulus, complete_k, epsilon_any,
                     epsilon_by_quadrature, regime_integrand, sncndn)
from epszeta import cli, quadrature
from epszeta.jacobi import _Agm, _Unit
from epszeta.quadrature import integrate, newton_cotes_8


class TestBaseRule:
    def test_polynomial_exactness_through_degree_8(self):
        # closed 8-panel Newton-Cotes is exact through degree 9
        for deg in range(9):
            value = newton_cotes_8(lambda t, d=deg: t ** d, 0.0, 1.0)
            assert abs(value - 1.0 / (deg + 1)) <= 1e-14

    def test_degree_nine_bonus(self):
        value = newton_cotes_8(lambda t: t ** 9, 0.0, 2.0)
        assert value == pytest.approx(2.0 ** 10 / 10.0, rel=1e-14)

    def test_shifted_interval(self):
        value = newton_cotes_8(lambda t: 3.0 * t * t, -1.0, 2.0)
        assert value == pytest.approx(9.0, rel=1e-14)

    @pytest.mark.parametrize("a, b", [(0.0, 0.5), (-0.0, 1.0), (-1.0, 2.0), (1e-3, 1e-3 + 1e-17),
                                      (2.0, -1.0), (-3.5, -0.25)], ids=repr)
    def test_panel_is_the_weighted_loop_bit_for_bit(self, a, b):
        # the panel against the loop over the weights: the same nodes in the
        # same order, the sum started from 0.0
        weights = (989.0, 5888.0, -928.0, 10496.0, -4540.0, 10496.0, -928.0, 5888.0, 989.0)
        def sign(t):  # tells a node at -0.0 from one at 0.0
            return math.copysign(1.0, t)

        for f in (sign, regime_integrand(Modulus.real(0.5)), math.exp):
            seen, nodes = [], []
            h = (b - a) / 8.0
            total = 0.0
            for i, w in enumerate(weights):
                nodes.append(a + i * h)
                total += w * f(a + i * h)
            want = total * h * (4.0 / 14175.0)
            got = newton_cotes_8(lambda t: seen.append(t) or f(t), a, b)
            assert repr(got) == repr(want) and list(map(repr, seen)) == list(map(repr, nodes))


class TestIntegrate:
    def test_constant(self):
        res = integrate(lambda t: 1.0, 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_sine(self):
        res = integrate(math.sin, 0.0, math.pi, 1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_dn_squared_table_value(self):
        f = regime_integrand(Modulus.real(0.5))
        res = integrate(f, 0.0, 0.5, 1e-10)
        assert res.value == pytest.approx(0.490203, abs=5e-7)
        assert res.value == pytest.approx(goldens.EPS_05_05, abs=1e-10)

    def test_degenerate_interval(self):
        assert integrate(math.exp, 2.0, 2.0, 1e-10) == (0.0, 0.0)

    def test_additivity(self):
        rng = np.random.default_rng(41)
        f = lambda t: math.exp(-t) * math.cos(3.0 * t)
        a, c = 0.0, 4.0
        whole = integrate(f, a, c, 1e-12)
        for _ in range(10):
            b = rng.uniform(a + 0.1, c - 0.1)
            split = integrate(f, a, b, 1e-12).value + integrate(f, b, c, 1e-12).value
            assert abs(split - whole.value) <= 1e-11

    def test_error_estimate_honest(self):
        cases = [
            (math.exp, 0.0, 1.0, math.e - 1.0),
            (math.sin, 0.0, math.pi, 2.0),
            (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 0.4 * math.atan(5.0)),
        ]
        for f, a, b, truth in cases:
            for tol in (1e-6, 1e-10):
                value, est = integrate(f, a, b, tol)
                assert abs(value - truth) <= max(tol, est)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2(a): the /1023 accept test understates this error, "
        "estimated 9.10e-12 against an actual 1.52e-11"))
    def test_error_estimate_bounds_an_oracle_rest(self):
        # quadrature-oracle seed 2, pool row 125: i*k at x = 0.47 H, below
        # H/2, so the oracle integrates [0, x] at once; against 30-digit mpmath
        m, x = Modulus.imaginary(2.5201034232283552), 0.4243791417240921
        value, est = integrate(regime_integrand(m), 0.0, x, 1e-11)
        with mp.workdps(30):
            want = mp.quad(lambda t: _integrand_ref(m, t), [0, mp.mpf(x)])
        assert est >= abs(value - want)

    def test_convergence_error_on_discontinuity(self):
        step = lambda t: 0.0 if t < 1.0 / 3.0 else 1.0
        with pytest.raises(ConvergenceError):
            integrate(step, 0.0, 1.0, 1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            integrate(math.sin, 1.0, 0.0, 1e-10)
        with pytest.raises(DomainError):
            integrate(math.sin, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(math.sin, 0.0, math.inf, 1e-10)


class TestRegimeIntegrands:
    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(1.0), Modulus.real(2.0),
                                   Modulus.imaginary(1.0)], ids=repr)
    def test_integrand_is_the_rules_method(self, m):
        # no function is built per call: the integrand is the bound method of
        # the rule that the Modulus holds
        f = regime_integrand(m)
        assert f.__self__ is m._rule and f.__func__ is type(m._rule).integrand

    def test_standard_is_dn_squared(self):
        f = regime_integrand(Modulus.real(0.7))
        assert f(0.0) == 1.0
        assert f(1.3) == pytest.approx(sncndn(1.3, 0.7).dn ** 2, rel=1e-15)
        # dn = sech at k = 1
        f = regime_integrand(Modulus.real(1.0))
        for t in (0.0, 1e-300, -0.4, 2.0, -30.0, 700.0):
            assert f(t) == (1.0 / math.cosh(t)) ** 2

    def test_unit_limit_is_sech_squared_near_mpmath(self):
        # at k = 1 each node squares s = sech t from `_Unit.cos_phase`, which is
        # 2 e^-|t| from |t| = 710 on, where cosh overflows.  From |t| = 700 on,
        # into the subnormal range, s is within 1 ulp of sech t; the node is
        # within 4 ulp of sech^2 t (cosh, its reciprocal and the square each
        # round: the worst of 3000 log-spread t in [1e-8, 1600] reads 4)
        f, unit = regime_integrand(Modulus.real(1.0)), _Unit()
        rng = np.random.default_rng(17)
        ts = [*map(float, 10.0 ** rng.uniform(-8.0, 2.9, 200)), 0.0, 372.0, 700.0, 709.9,
              710.0, 710.5, 720.0, 744.0, 745.2, 800.0, 1e4]
        with mp.workdps(40):
            for t in (*ts, *(-t for t in ts)):
                sech = mp.sech(t)
                s = unit.cos_phase(t)
                assert f(t) == s * s, t
                ref = float(sech ** 2)
                assert abs(f(t) - sech ** 2) <= 4 * math.ulp(ref), t
                if abs(t) >= 700.0:
                    assert abs(s - sech) <= math.ulp(float(sech)), t

    def test_large_real_is_reciprocal_cn_squared(self):
        f = regime_integrand(Modulus.real(2.0))
        assert f(0.0) == 1.0
        assert f(0.4) == pytest.approx(sncndn(0.8, 0.5).cn ** 2, rel=1e-15)

    def test_imaginary_is_inverse_dn_squared(self):
        f = regime_integrand(Modulus.imaginary(1.0))
        assert f(0.0) == 1.0
        r2 = math.sqrt(0.5)
        assert f(0.6) == pytest.approx(1.0 / sncndn(0.6 / r2, r2).dn ** 2, rel=1e-15)


def _period(m):
    # the integrand's period 2K in its argument, as a step in t
    k = m.k
    if m.regime.value == "standard":
        return 2.0 * complete_k(k)
    if m.regime.value == "large_real":
        return 2.0 * complete_k(1.0 / k) / k
    h = math.hypot(1.0, k)
    return 2.0 * complete_k(k / h) / h


def _integrand_ref(m, t):
    # the regime integrand at t in 30-digit mpmath, from the exact k
    k, t = mp.mpf(m.k), mp.mpf(t)
    if m.regime.value == "standard":
        return mp.ellipfun("dn", t, m=k * k) ** 2
    if m.regime.value == "large_real":
        return mp.ellipfun("cn", k * t, m=1 / (k * k)) ** 2
    h = mp.sqrt(1 + k * k)
    return 1 / mp.ellipfun("dn", t * h, m=(k / h) ** 2) ** 2


class TestIntegrandGrid:
    # Each node forms its square from cos(am) of one descent; an odd period
    # index flips the sign of cn, which the square drops.  The bounds on
    # |f - ref| / max(1, |ref|) are those the sqrt-then-square integrands of
    # `jacobi` met as well, each above the worst of both.  Near k = 1 the
    # reduction by 2K n, with 2K near 30 and |n| up to 5, sets the error; at
    # i*1e7, 1/dn^2 peaks at 1/k1p^2 = 1e14, where the descent's rounding of
    # am, times about 1/k1p, sets it
    @pytest.mark.parametrize("make, k, bound", [
        (Modulus.real, 1e-8, 1e-15), (Modulus.real, 0.5, 1e-15),
        (Modulus.real, 1.0 - 1e-12, 2e-14),
        (Modulus.real, 1.0 + 1e-9, 6e-15), (Modulus.real, 3.0, 2e-15),
        (Modulus.real, 1e6, 2e-15),
        (Modulus.imaginary, 0.1, 1e-15), (Modulus.imaginary, 3.0, 6e-15),
        (Modulus.imaginary, 1e7, 2e-9)])
    def test_mpmath_grid(self, make, k, bound):
        m = make(k)
        f, period = regime_integrand(m), _period(m)
        rng = np.random.default_rng(13)
        # t a few periods out, the fixed ones at the odd indices 1, -3 and 5
        steps = [*rng.uniform(-5.0, 5.0, 16), 1.25, -2.9, 4.6]
        with mp.workdps(30):
            for a in steps:
                t = float(a) * period
                ref = _integrand_ref(m, t)
                assert abs(f(t) - ref) <= bound * max(1.0, abs(ref)), t

class TestEpsilonByQuadrature:
    def test_zero(self):
        for m in (Modulus.real(0.5), Modulus.real(3.0), Modulus.imaginary(1.0)):
            assert epsilon_by_quadrature(0.0, m, 1e-10) == 0.0

    def test_table_values(self):
        assert epsilon_by_quadrature(0.5, Modulus.real(2.0), 1e-10) == pytest.approx(
            0.367975, abs=5e-7)
        assert epsilon_by_quadrature(0.5, Modulus.imaginary(2.0), 1e-10) == pytest.approx(
            0.689051, abs=5e-7)

    def test_agrees_with_transform_on_regime_grid(self):
        for m in (Modulus.real(0.6), Modulus.real(2.5), Modulus.imaginary(1.2)):
            for x in (-2.0, -0.5, 0.25, 0.75, 1.5, 3.0, 4.5):
                gap = abs(epsilon_by_quadrature(x, m, 1e-11) - epsilon_any(x, m))
                assert gap <= 1e-9

    @pytest.mark.parametrize("m, x", [
        (Modulus.imaginary(2.6198767737327864), 0.7509812185831644),  # seed 3, 1.07e-7
        (Modulus.real(1.1609096089558901), -1.3136285704086728),  # seed 3, 2.44e-9
        (Modulus.real(0.7764788049195059), -1.5995178211619139),  # seed 4, 1.96e-9
        (Modulus.imaginary(1.713747898449631), 2.9381119910510254),  # seed 6, 1.32e-9
        (Modulus.real(0.6391032386047667), 1.7517068140772682),  # seed 7, 1.86e-9
        (Modulus.real(1.5021890895516852), -1.263959168834777),  # seed 7, 2.80e-9
    ], ids=repr)
    def test_worst_rows_of_the_long_check(self, m, x):
        # the worst draw of each regime that failed `check --trials 1000 --tol
        # 1e-9` on seeds 3, 4, 6 and 7, with its gap when the rest was one
        # integration over [0, end] however long: the /1023 accept test
        # understated the error of a rest nearly H long.  Over the shorter side
        # of the half period they read 9.0e-14 at most
        assert abs(epsilon_by_quadrature(x, m, 1e-11) - epsilon_any(x, m)) <= 1e-12

    def test_odd_in_x(self):
        m = Modulus.imaginary(1.5)
        plus = epsilon_by_quadrature(1.2, m, 1e-11)
        minus = epsilon_by_quadrature(-1.2, m, 1e-11)
        assert minus == -plus

    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(2.0), Modulus.imaginary(2.0),
                                   Modulus.real(1.0)], ids=repr)
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=repr)
    def test_rejects_non_finite(self, monkeypatch, m, x):
        # refused before the fold, in epsilon_any's words and naming the
        # caller's x, the regime and k: neither the trapezoidal rule nor the
        # bisection is entered (at k = 1 too, where H is inf)
        def entered(*args):
            raise AssertionError("entered with a non-finite x")
        monkeypatch.setattr(quadrature, "_half_period", entered)
        monkeypatch.setattr(quadrature, "integrate", entered)
        text = (f"epsilon_by_quadrature(x={x!r}) fails for the {m.regime.value} modulus "
                f"k={m.k!r}: x={x!r} is not a finite float")
        with pytest.raises(DomainError, match=re.escape(text) + "$"):
            epsilon_by_quadrature(x, m, 1e-10)

    @pytest.mark.parametrize("x", [0.5, -4.0])
    def test_traced_memory_peak(self, x):
        # a node allocates nothing that outlives it, and the integrand is the
        # rule's bound method, not a closure built per call: after a warm-up,
        # one call's traced peak is 128 B in every regime (CPython 3.11), 32 B
        # more where x = -4 folds (the trapezoidal rule's range), and the
        # benchmark bounds its mem_peak_kib to 15 %
        for m in (Modulus.real(0.5), Modulus.real(2.5), Modulus.imaginary(1.5)):
            assert (abs(x) >= m._rule.half) is (x == -4.0)
            epsilon_by_quadrature(x, m, 1e-11)
            tracemalloc.start()
            try:
                epsilon_by_quadrature(x, m, 1e-11)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 200, (m, peak)

    def test_no_convergence_names_the_caller(self):
        # the bisection names only its own interval; the error adds x, the
        # regime and k and keeps the bisection's message.  At i*1e6 the rest's
        # absolute tol/2 is about 5e-17 of its size, below the rounding
        m = Modulus.imaginary(1e6)
        with pytest.raises(ConvergenceError, match=r"^epsilon_by_quadrature\(x=0\.5\) fails "
                           r"for the pure_imaginary modulus k=1000000\.0: no convergence to tol="):
            epsilon_by_quadrature(0.5, m)

    def test_no_convergence_shows_its_interval(self):
        # the interval is printed in full: at tol 1.8e-25 its two ends agree to
        # 14 digits, which a shorter format rounds to one number
        with pytest.raises(ConvergenceError) as info:
            epsilon_by_quadrature(0.5, Modulus.imaginary(1e6))
        a, b = map(float, re.search(r" on \[(\S+), (\S+)\] after ", str(info.value)).groups())
        assert a < b

    @pytest.mark.parametrize("make, k", [(Modulus.real, 0.5), (Modulus.real, 2.0),
                                         (Modulus.imaginary, 1.5)])
    @pytest.mark.parametrize("x, folds", [(0.5, False), (-4.0, True)])
    def test_one_oracle_op_builds_one_kernel(self, monkeypatch, make, k, x, folds):
        # the benchmark's quadrature-oracle op: the Modulus builds its rule's
        # kernel once, and epsilon_any, the half period and the integrand all
        # descend it
        built = []
        init = _Agm.__init__
        monkeypatch.setattr(_Agm, "__init__", lambda self, *a: built.append(a) or init(self, *a))
        m = make(k)
        epsilon_any(x, m)
        epsilon_by_quadrature(x, m, 1e-11)
        assert (abs(x) >= m._rule.half) is folds
        assert len(built) == 1


HALF_PERIOD_MODULI = [Modulus.real(0.0), Modulus.real(0.5), Modulus.real(1.0 - 1e-12),
                      Modulus.real(1.0 + 1e-9), Modulus.real(3.0), Modulus.real(1e6),
                      Modulus.imaginary(0.1), Modulus.imaginary(3.0), Modulus.imaginary(1e7)]


class TestFoldByHalfPeriod:
    # the integrand has period 2H and is even about H; from |x| = H on the
    # oracle adds q half periods of the trapezoidal J to one integration of
    # the rest (the docstring of epsilon_by_quadrature)
    @pytest.mark.parametrize("m", HALF_PERIOD_MODULI, ids=repr)
    def test_half_is_the_integrand_half_period(self, m):
        # H = K(k), K(1/k)/k or K(k1) k1p, against 30-digit mpmath from the exact k
        with mp.workdps(30):
            k = mp.mpf(m.k)
            if m.regime.value == "standard":
                want = mp.ellipk(k * k)
            elif m.regime.value == "large_real":
                want = mp.ellipk(1 / (k * k)) / k
            else:
                want = mp.ellipk(k * k / (1 + k * k)) / mp.sqrt(1 + k * k)
            assert abs(m._rule.half - want) <= 1e-14 * want

    @pytest.mark.parametrize("m", HALF_PERIOD_MODULI, ids=repr)
    def test_half_period_integral_near_mpmath(self, m):
        # J = E(k), k (E - k_c^2 K) at the modulus k_c = 1/k, or E(k1)/k1p,
        # against 30-digit mpmath from the exact k: the worst reads 2.8 ulp, at
        # k = 1 - 1e-12.  At i*1e7 it reads 1.8e-10, from the integrand's own
        # floor (TestIntegrandGrid)
        with mp.workdps(30):
            k = mp.mpf(m.k)
            if m.regime.value == "standard":
                want = mp.ellipe(k * k)
            elif m.regime.value == "large_real":
                c = 1 / (k * k)
                want = k * (mp.ellipe(c) - (1 - c) * mp.ellipk(c))
            else:
                want = mp.sqrt(1 + k * k) * mp.ellipe(k * k / (1 + k * k))
            got = quadrature._half_period(regime_integrand(m), m._rule.half)
            assert abs(got - want) <= (1e-9 if m.k == 1e7 else 1e-15) * want

    def test_node_cap_names_the_caller(self, monkeypatch):
        # real 0.9 needs 16 intervals of the half period; at a cap of 8 the
        # rule stops, and the error names the caller's x, the regime and k
        monkeypatch.setattr(quadrature, "_MAX_NODES", 8)
        with pytest.raises(ConvergenceError, match=(
                r"^epsilon_by_quadrature\(x=4\.0\) fails for the standard modulus k=0\.9: "
                r"no convergence on \[0, .*\] after 8 trapezoidal intervals$")):
            epsilon_by_quadrature(4.0, Modulus.real(0.9))

    def test_no_half_period_at_k_one(self):
        assert Modulus.real(1.0)._rule.half == math.inf

    @pytest.mark.parametrize("x", [1e6, 1e9, 1e12, 1e15, 1e20, -1e300,
                                   math.nextafter(math.inf, 0.0)], ids=repr)
    def test_unit_modulus_past_its_span(self, x):
        # at k = 1 (H = inf) the rest is integrated over [0, min(|x|, S)]: the
        # integral of sech^2 past S = 64 is below 6e-56.  The bisection of
        # [0, |x|] raised ConvergenceError from x = 1e9 on
        m, span = Modulus.real(1.0), quadrature._UNIT_SPAN
        got = epsilon_by_quadrature(x, m, 1e-11)
        assert abs(got - math.copysign(1.0, x)) <= 1e-11
        assert got == epsilon_by_quadrature(math.copysign(span, x), m, 1e-11)

    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(1.0), Modulus.real(5.0),
                                   Modulus.real(100.0), Modulus.imaginary(1.5),
                                   Modulus.imaginary(10.0)], ids=repr)
    def test_one_integration_below_one_half_period(self, m):
        # |x| < H (H = inf at k = 1), bit for bit: up to H/2 the single
        # integration of [0, |x|] to tol, past it J less the integration of
        # [|x|, H] to tol/2
        f, half = regime_integrand(m), m._rule.half
        span = min(half, 40.0)
        for x in (0.3 * span, -0.5 * span, -0.6 * span, 0.999 * span, math.nextafter(span, 0.0)):
            if abs(x) <= 0.5 * half:
                want = integrate(f, 0.0, abs(x), 1e-11).value
            else:
                want = quadrature._half_period(f, half) - integrate(f, abs(x), half, 0.5e-11).value
            assert epsilon_by_quadrature(x, m, 1e-11) == math.copysign(want, x), x

    @pytest.mark.parametrize("m, x", [
        *((Modulus.real(k), x) for k in (2.0, 5.0, 100.0, 1e3, 1e4) for x in (0.5, -3.0)),
        *((Modulus.imaginary(k), 3.0) for k in (1.0, 3.0, 10.0)), (Modulus.real(1e15), 2.5)],
        ids=repr)
    def test_agrees_with_transform_across_many_periods(self, m, x):
        # up to k = 1e3 the whole-interval bisection aliased: 0.24 off at
        # real k = 100, 0.039 at 1e3.  Real 1e15 at x = 2.5 lies past 2^50 H,
        # where the oracle integrated [0, |x|] whole and raised ConvergenceError
        assert abs(epsilon_by_quadrature(x, m, 1e-11) - epsilon_any(x, m)) <= 1e-10

    def test_even_and_odd_half_period_counts(self):
        # q = 1, 2 and 3 half periods before the rest, on either side of the
        # midpoint, in each regime; at x = H, 2H and 4H the rest r is 0, and R
        # is J for odd q and empty for even q
        for m in (Modulus.real(0.5), Modulus.real(2.0), Modulus.imaginary(1.5)):
            half = m._rule.half
            for a in (1.0, 1.3, 1.9, 2.0, 2.2, 2.8, 3.2, 3.7, 4.0):
                x = a * half
                gap = abs(epsilon_by_quadrature(x, m, 1e-12) - epsilon_any(x, m))
                assert gap <= 1e-11, (m, a)

    @pytest.mark.parametrize("m", [Modulus.imaginary(1.5), Modulus.real(0.5), Modulus.real(0.05),
                                   Modulus.real(5.0)], ids=repr)
    def test_far_fold_within_relative_tolerance(self, m):
        # the two-piece fold with tolerances tol/(2n) raised ConvergenceError
        # from about 1.3 2^24 H; q J keeps J's relative error
        x = 1.3 * 2.0 ** 30 * m._rule.half
        want = epsilon_any(x, m)
        assert abs(epsilon_by_quadrature(x, m, 1e-11) - want) <= 1e-9 * abs(want)

    @pytest.mark.parametrize("m, x", [(Modulus.real(5.0), 3.0), (Modulus.real(5.0), -2.6),
                                      (Modulus.imaginary(3.0), 3.0), (Modulus.real(0.5), 2.0),
                                      (Modulus.imaginary(1.5), -2.5), (Modulus.real(0.5), 1.5),
                                      (Modulus.real(0.5), -0.5),
                                      (Modulus.real(2.0), Modulus.real(2.0)._rule.half)],
                             ids=repr)
    def test_intervals_and_tolerance_split(self, monkeypatch, m, x):
        # q = 9, 8, 3, 1, 2, 0, 0 and 1: with end = r for even q and H - r for
        # odd q, one adaptive integration over the shorter side of the half
        # period, [0, end] up to H/2 (end/H = 0.19, 0.32, 0.18 and 0.30) and
        # [end, H] past it (0.55, 0.81, 0.89, and 1 at x = H, an empty
        # interval).  Where q > 0 or end > H/2 it goes to tol/2 and J is the
        # trapezoidal rule's; else to tol, and no J is taken
        seen, halves, half_period = [], [], quadrature._half_period

        def recording(f, a, b, tol):
            seen.append((a, b, tol))
            return integrate(f, a, b, tol)

        def trapezoidal(f, half):
            halves.append(half)
            return half_period(f, half)
        monkeypatch.setattr(quadrature, "integrate", recording)
        monkeypatch.setattr(quadrature, "_half_period", trapezoidal)
        half = m._rule.half
        q, r = divmod(abs(x), half)
        end = half - r if q % 2 else r
        epsilon_by_quadrature(x, m, 1e-11)
        if end > 0.5 * half:
            assert seen == [(end, half, 0.5e-11)] and halves == [half]
        elif q:
            assert seen == [(0.0, end, 0.5e-11)] and halves == [half]
        else:
            assert seen == [(0.0, end, 1e-11)] and halves == []

    @pytest.mark.parametrize("m", [Modulus.real(0.5), Modulus.real(3.0),
                                   Modulus.imaginary(3.0)], ids=repr)
    def test_past_the_reduction_bound(self, m):
        # at x = 1e16, past 2^51 H, the integration of [0, |x|] met the
        # descent's refusal at its last node; the fold's nodes stay in [0, H]
        want = epsilon_any(1e16, m)
        assert abs(epsilon_by_quadrature(1e16, m) - want) <= 1e-15 * abs(want)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        # every node goes through the module's regime_integrand; the list holds
        # the count of nodes evaluated since the fixture was set up
        count = [0]

        def counting(m):
            f = regime_integrand(m)

            def g(t):
                count[0] += 1
                return f(t)
            return g
        monkeypatch.setattr(quadrature, "regime_integrand", counting)
        return count

    def test_evaluations_at_real_five(self, evaluations):
        # the whole interval [0, 3] took 567 evaluations, the fold from 2H 90,
        # the two-piece fold from H 54, and the trapezoidal J with the rest 36
        m = Modulus.real(5.0)
        value = epsilon_by_quadrature(3.0, m, 1e-11)
        assert evaluations[0] <= 36
        assert abs(value - epsilon_any(3.0, m)) <= 1e-10

    def test_evaluations_past_half_the_half_period(self, evaluations):
        # real 0.5 at x = 0.9 H (q = 0): the integration of [0, x] took 63
        # evaluations, the trapezoidal J (9 nodes) less that of [x, H] takes 36
        m = Modulus.real(0.5)
        x = 0.9 * m._rule.half
        value = epsilon_by_quadrature(x, m, 1e-11)
        assert evaluations[0] <= 36
        assert abs(value - epsilon_any(x, m)) <= 1e-11

    def test_evaluations_over_the_default_check(self, evaluations, capsys):
        # the 300 (regime, k, x) draws of `check --seed 0`, 100 per regime, at
        # its oracle tolerance 1e-11: 27 855 evaluations with the fold from 2H,
        # 21 771 with the two-piece fold from H, 15 517 with the trapezoidal J,
        # 11 083 with the rest integrated over the shorter side of the half period
        assert cli.main(["check", "--seed", "0"]) == 0
        assert "100 trials per regime" in capsys.readouterr().out
        assert evaluations[0] <= 11083
