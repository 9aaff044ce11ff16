import copy
import math
import pickle
import re
import struct

import numpy as np
import pytest

import goldens
from epszeta import (DomainError, ElasticaParams, complete_e, complete_k,
                     epsilon, flexural_point, inflexural_point, sample_curve,
                     sncndn, uniform_grid)


class TestParams:
    def test_validation(self):
        for k in (0.0, -0.5, math.inf, math.nan, True, "0.5"):
            with pytest.raises(DomainError, match=re.escape(f"finite k > 0, got k={k!r}")):
                ElasticaParams(k=k)
        with pytest.raises(DomainError, match="borderline solitary loop"):
            ElasticaParams(k=1.0)
        for omega in (0.0, -1.0, math.nan, True):
            with pytest.raises(DomainError,
                               match=re.escape(f"finite omega > 0, got omega={omega!r}")):
                ElasticaParams(k=0.5, omega=omega)

    def test_equality_is_by_value_and_type(self):
        assert ElasticaParams(0.5) == ElasticaParams(k=0.5, omega=1.0)
        assert ElasticaParams(0.5) != ElasticaParams(0.5, 2.0)
        assert ElasticaParams(0.5) != ElasticaParams(2.0)
        assert ElasticaParams(0.5) != (0.5, 1.0)
        assert not ElasticaParams(0.5) == (0.5, 1.0)

    def test_hash_agrees_with_equality(self):
        assert hash(ElasticaParams(0.5)) == hash(ElasticaParams(k=0.5, omega=1.0))
        assert hash(ElasticaParams(0.5, 2.0)) == hash((0.5, 2.0))
        assert len({ElasticaParams(0.5), ElasticaParams(0.5, 1.0), ElasticaParams(2.0)}) == 2

    def test_repr(self):
        assert repr(ElasticaParams(0.5)) == "ElasticaParams(k=0.5, omega=1.0)"
        assert repr(ElasticaParams(3, omega=2)) == "ElasticaParams(k=3, omega=2)"

    @pytest.mark.parametrize("name", ["k", "omega", "other"])
    def test_frozen(self, name):
        p = ElasticaParams(0.5)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(p, name, 2.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(p, name)
        assert p == ElasticaParams(0.5)

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, *(
        pytest.param(lambda v, p=p: pickle.loads(pickle.dumps(v, p)), id=f"pickle{p}")
        for p in range(pickle.HIGHEST_PROTOCOL + 1))])
    def test_copies_round_trip(self, copy_of):
        for p in (ElasticaParams(0.5), ElasticaParams(2.0, 0.25)):
            c = copy_of(p)
            assert type(c) is ElasticaParams and c == p

    def test_unpickled_params_are_validated(self):
        # a stream whose k was altered to 1.0 is refused as the solitary loop
        data = pickle.dumps(ElasticaParams(0.5, 0.25))
        forged = data.replace(struct.pack(">d", 0.5), struct.pack(">d", 1.0))
        assert forged != data
        with pytest.raises(DomainError, match="borderline solitary loop"):
            pickle.loads(forged)

    def test_match(self):
        match ElasticaParams(2.0, 0.25):
            case ElasticaParams(k, omega=1.0):
                got = "unit", k
            case ElasticaParams(k, omega):
                got = "scaled", k, omega
        assert got == ("scaled", 2.0, 0.25)


class TestFlexural:
    def test_starts_at_origin(self):
        pt = flexural_point(0.0, ElasticaParams(k=0.5))
        assert abs(pt.x) <= 1e-14
        assert abs(pt.y) <= 1e-14

    def test_golden_point(self):
        pt = flexural_point(0.7, ElasticaParams(k=0.5))
        assert pt.x == pytest.approx(goldens.ELASTICA_X_07, abs=1e-13)
        assert pt.y == pytest.approx(goldens.ELASTICA_Y_07, abs=1e-13)

    def test_y_vanishes_at_even_quarter_periods(self):
        # cn vanishes at odd multiples of K, so y(2nK) = 0
        k = 0.5
        p = ElasticaParams(k=k)
        for n in (1, 2, 3):
            assert abs(flexural_point(2 * n * complete_k(k), p).y) <= 1e-13

    def test_point_symmetry_through_origin(self):
        # epsilon is odd about K up to the 2E offset and cn(K-u) = -cn(K+u),
        # so both coordinates are odd in u
        p = ElasticaParams(k=0.6, omega=1.3)
        for u in (0.4, 1.1, 3.2):
            a = flexural_point(u, p)
            b = flexural_point(-u, p)
            assert abs(b.x + a.x) <= 1e-13
            assert abs(b.y + a.y) <= 1e-13

    def test_y_bounded_by_2k_over_omega(self):
        p = ElasticaParams(k=0.8, omega=2.0)
        for u in np.linspace(-8, 8, 60):
            assert abs(flexural_point(u, p).y) <= 2.0 * 0.8 / 2.0 + 1e-12

    def test_rejects_large_modulus(self):
        # Modulus is the range check, and it names k
        with pytest.raises(DomainError, match=re.escape("k=2.0")):
            flexural_point(0.1, ElasticaParams(k=2.0))

    def test_descent_failure_names_the_caller(self):
        # the descent sees u + K; the error names u and k
        with pytest.raises(DomainError, match=r"flexural_point\(u=1e\+16\) fails "
                                              r"for the standard modulus k=0\.5"):
            flexural_point(1e16, ElasticaParams(0.5))


class TestInflexural:
    def test_start_point(self):
        pt = inflexural_point(0.0, ElasticaParams(k=2.0))
        assert pt.x == 0.0
        assert pt.y == -4.0

    @pytest.mark.parametrize("ktag, k", [("2", 2.0), ("1E3", 1e3)])
    @pytest.mark.parametrize("utag, u", [("07", 0.7), ("M31", -3.1)])
    def test_golden_points(self, ktag, k, utag, u):
        # relative to max(1, |ref|): y is about -2k.  The worst measured error
        # is 5.0e-16 on x (k = 2, u = -3.1) and 1.1e-16 |y| on y
        pt = inflexural_point(u, ElasticaParams(k=k))
        for got, name in ((pt.x, "X"), (pt.y, "Y")):
            ref = getattr(goldens, f"INFLEX_{name}_{utag}_K{ktag}")
            assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref)), (name, got, ref)

    def test_mirror_symmetry(self):
        # x is odd, y is even: the curve is symmetric about the y axis
        p = ElasticaParams(k=2.0)
        for u in (0.3, 1.4, 2.9):
            a = inflexural_point(u, p)
            b = inflexural_point(-u, p)
            assert abs(b.x + a.x) <= 1e-13
            assert abs(b.y - a.y) <= 1e-13

    def test_period_drift(self):
        # over one period of the reciprocal modulus, x advances by a fixed drift
        k, w = 2.0, 1.0
        p = ElasticaParams(k=k, omega=w)
        kr = 1.0 / k
        period = 2.0 * complete_k(kr) / k
        drift = ((1.0 - 2.0 * k * k) * 2.0 * complete_k(kr)
                 + 2.0 * k * k * 2.0 * complete_e(kr)) / (w * k)
        for u in (0.0, 0.7, 1.9):
            lhs = inflexural_point(u + period, p).x - inflexural_point(u, p).x
            assert lhs == pytest.approx(drift, abs=1e-12)
        assert inflexural_point(0.7 + period, p).y == pytest.approx(
            inflexural_point(0.7, p).y, abs=1e-12)

    def test_y_range_is_dn_range(self):
        k, w = 1.6, 1.0
        p = ElasticaParams(k=k, omega=w)
        lo = -2.0 * k / w
        hi = -2.0 * k * math.sqrt(1.0 - 1.0 / (k * k)) / w
        for u in np.linspace(-6, 6, 60):
            y = inflexural_point(u, p).y
            assert lo - 1e-12 <= y <= hi + 1e-12

    def test_rejects_small_modulus(self):
        with pytest.raises(DomainError, match=r"requires k > 1, got k=0\.5$"):
            inflexural_point(0.1, ElasticaParams(k=0.5))
        with pytest.raises(DomainError, match=r"requires k > 1, got k=0\.5$"):
            sample_curve("inflexural", ElasticaParams(0.5), 0, 1, 3)

    def test_descent_failure_names_the_caller(self):
        # the descent sees ku = 1e16 and 1/k; the error names u and k
        with pytest.raises(DomainError, match=r"inflexural_point\(u=10000000000\.0\) fails "
                                              r"for the large_real modulus k=1000000\.0"):
            inflexural_point(1e10, ElasticaParams(k=1e6))

    def test_huge_modulus_is_domain_error(self):
        # k^2 overflows: x has no finite value
        p = ElasticaParams(k=1e200)
        with pytest.raises(DomainError, match="no finite value"):
            inflexural_point(0.5, p)
        with pytest.raises(DomainError, match="no finite value"):
            sample_curve("inflexural", p, 0.0, 1.0, 5)


@pytest.mark.parametrize("kind, point, k", [("flexural", flexural_point, 0.5),
                                            ("inflexural", inflexural_point, 2.0)])
class TestNonFinitePoint:
    # a subnormal omega scales the point past the float range: it returned (inf, inf)
    def test_point_is_domain_error_naming_u_k_and_omega(self, kind, point, k):
        with pytest.raises(DomainError, match=rf"{kind}_point\(u=1\.0\) has no finite value "
                                              rf"for k={k}, omega=1e-310$"):
            point(1.0, ElasticaParams(k, 1e-310))

    def test_curve_is_domain_error_at_its_first_infinite_point(self, kind, point, k):
        with pytest.raises(DomainError, match=rf"{kind}_point\(u=0\.5\) has no finite value"):
            sample_curve(kind, ElasticaParams(k, 1e-310), 0.5, 1.0, 3)

    def test_large_finite_point_is_kept(self, kind, point, k):
        assert all(math.isfinite(v) for v in point(1.0, ElasticaParams(k, 1e-300)))

    def test_curve_whose_sums_overflow_is_kept(self, kind, point, k):
        # finite points near the float range whose x or y column sums past it:
        # the batch's check fails, and the point-by-point replay returns them
        p = ElasticaParams(k, 1e-308 if kind == "flexural" else 2.5e-308)
        curve = sample_curve(kind, p, 1.5, 2.0, 3)
        assert math.isinf(sum(x for x, _ in curve) + sum(y for _, y in curve))
        assert curve == [point(u, p) for u in uniform_grid(1.5, 2.0, 3)]


def arc_speed_squared(point, u, p, h=1e-5):
    xm, ym = point(u - h, p)
    xp, yp = point(u + h, p)
    return ((xp - xm) / (2 * h)) ** 2 + ((yp - ym) / (2 * h)) ** 2


def test_arc_length_invariant():
    # u is omega times arc length, so the parametric speed is 1/omega
    rng = np.random.default_rng(51)
    for _ in range(50):
        p = ElasticaParams(k=rng.uniform(0.1, 0.95), omega=rng.uniform(0.5, 2.0))
        u = rng.uniform(-6, 6)
        assert abs(arc_speed_squared(flexural_point, u, p) - 1.0 / p.omega ** 2) <= 1e-8
    for _ in range(50):
        p = ElasticaParams(k=rng.uniform(1.05, 4.0), omega=rng.uniform(0.5, 2.0))
        u = rng.uniform(-6, 6)
        assert abs(arc_speed_squared(inflexural_point, u, p) - 1.0 / p.omega ** 2) <= 1e-8


def chain_point(u, k, w):
    """In-flexural point derived from the flexural form.

    Rewrite the flexural formulas with the modulus roles swapped (dn of
    the reciprocal modulus in place of cn), shift u by K(1/k), and
    translate x by the constant the shift produces: the epsilon term
    plus the (1 - 2k^2) K(1/k) piece from the linear part.
    """
    kr = 1.0 / k
    quarter = complete_k(kr)
    eps_const = epsilon(k * quarter, kr)

    def shifted_x(uu):
        return ((1.0 - 2.0 * k * k) * k * uu
                + 2.0 * k * k * (epsilon(k * uu + k * quarter, kr) - eps_const)) / (w * k)

    def shifted_y(uu):
        return -2.0 * k / w * sncndn(k * uu + k * quarter, kr).dn

    x = (shifted_x(u - quarter) + (2.0 * k * k / (w * k)) * eps_const
         + (1.0 - 2.0 * k * k) * quarter / w)
    return x, shifted_y(u - quarter)


def test_flexural_to_inflexural_chain():
    rng = np.random.default_rng(52)
    for _ in range(50):
        k = rng.uniform(1.1, 3.0)
        w = rng.uniform(0.5, 2.0)
        u = rng.uniform(-5, 5)
        cx, cy = chain_point(u, k, w)
        pt = inflexural_point(u, ElasticaParams(k=k, omega=w))
        assert abs(cx - pt.x) <= 1e-10
        assert abs(cy - pt.y) <= 1e-10


class TestSampleCurve:
    def test_endpoint_semantics(self):
        p = ElasticaParams(k=2.0)
        pts = sample_curve("inflexural", p, 0.0, 1.0, 2)
        assert pts[0] == inflexural_point(0.0, p)
        assert pts[1] == inflexural_point(1.0, p)

    def test_count_and_spacing(self):
        p = ElasticaParams(k=0.5)
        quarter = complete_k(0.5)
        pts = sample_curve("flexural", p, -4 * quarter, 4 * quarter, 401)
        assert len(pts) == 401
        # point symmetry of the sampled set around the middle entry
        mid = 200
        for i in (1, 57, 200):
            a, b = pts[mid + i], pts[mid - i]
            assert abs(a.x + b.x) <= 1e-12
            assert abs(a.y + b.y) <= 1e-12

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            sample_curve("flexural", ElasticaParams(k=0.5), 0.0, 0.0, 2)

    def test_rejects_short_grid(self):
        with pytest.raises(DomainError):
            sample_curve("flexural", ElasticaParams(k=0.5), 0.0, 1.0, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            sample_curve("spiral", ElasticaParams(k=0.5), 0.0, 1.0, 5)

    def test_uniform_grid_endpoints_exact(self):
        grid = uniform_grid(0.0, 0.3, 4)
        assert grid[0] == 0.0
        assert grid[-1] == 0.3
        assert len(grid) == 4

    def test_uniform_grid_rejects_non_integer_count(self):
        for n in (2.5, 3.0, True, "4", None):
            with pytest.raises(DomainError, match=re.escape(f"integer n, got {n!r}")):
                uniform_grid(0.0, 1.0, n)
        # and bounds or a span u_max - u_min that are not finite, which would make nan points
        for u_min, u_max, cause in ((-math.inf, 0.0, "finite u_min < u_max"),
                                    (0.0, math.inf, "finite u_min < u_max"),
                                    (-1e308, 1e308, "finite span")):
            with pytest.raises(DomainError, match=cause):
                uniform_grid(u_min, u_max, 3)

    def test_uniform_grid_rejects_empty_range_and_one_point(self):
        for u_min, u_max in ((2.0, 1.0), (1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(DomainError, match=re.escape(
                    f"u_min < u_max, got u_min={u_min!r}, u_max={u_max!r}")):
                uniform_grid(u_min, u_max, 5)
        for n in (1, 0, -3):
            with pytest.raises(DomainError, match=re.escape(f"n >= 2, got n={n!r}")):
                uniform_grid(0, 1, n)

    @pytest.mark.parametrize("kind, point, ks", [
        ("flexural", flexural_point, (0.05, 0.5, 0.95)),
        ("inflexural", inflexural_point, (1.05, 2.0, 5.0)),
    ])
    def test_batch_is_the_single_point_path(self, kind, point, ks):
        # one point formula serves both: the batch reproduces every point bit for bit
        for k in ks:
            p = ElasticaParams(k=k, omega=1.3)
            batch = sample_curve(kind, p, 0.0, 12.0, 600)
            assert batch == [point(u, p) for u in uniform_grid(0.0, 12.0, 600)]
