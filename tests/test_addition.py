"""The addition theorem of epsilon: an identity check of every regime, with no
quadrature and no mpmath.

For every parameter m (DLMF 22.16(ii)),

    epsilon(u + v) = epsilon(u) + epsilon(v) - m sn u sn v sn(u + v),

with m = k^2 for a real modulus k and m = -k^2 for i*k.  The residual is
measured in ulps of |epsilon(u)| + |epsilon(v)| + |epsilon(u + v)|.  The
formula is blind to an added linear term c x, so the slope E/K needs a
second check: epsilon'(0) = dn^2(0) = 1, so epsilon(h)/h -> 1 as h -> 0.

sn comes from the rule's own kernel: sn(x, k) for k <= 1, sn(kx, 1/k)/k
past k = 1 (DLMF 22.17.14), and k1p sn(u/k1p, k1)/dn(u/k1p, k1) for i*k
(DLMF 22.17.8) on the rule's kernel of k1, which is built on the exact
k1p = 1/sqrt(1 + k^2).  `sncndn(u/k1p, k1)` would take the complement of
k1 rounded near 1, which at i*1e6 is off by about 1e-4 relative: the
residual then reads some 1e10 ulps.
"""

import math
import random

import pytest

from epszeta import Modulus, Regime, epsilon_any
from epszeta.extended import _MAX_IMAG, _MAX_LARGE

BELOW_IMAG = math.nextafter(_MAX_IMAG, 0.0)  # the largest admitted i*k


def sn_and_parameter(m):
    """sn(. | m) from the descent of m's rule, and the parameter m."""
    rule = m._rule
    if m.regime is Regime.PURE_IMAGINARY:
        agm = rule.agm

        def sn(x):
            s, _, d, _ = agm.jacobi(x / agm.kp)
            return agm.kp * s / d
        return sn, -m.k * m.k
    if m.regime is Regime.LARGE_REAL:
        k, agm = m.k, rule.agm
        return (lambda x: agm.jacobi(k * x)[0] / k), k * k
    return (lambda x: rule.agm.jacobi(x)[0]), m.k * m.k


def residual_ulps(m, u, v):
    sn, parameter = sn_and_parameter(m)
    eu, ev, ew = epsilon_any(u, m), epsilon_any(v, m), epsilon_any(u + v, m)
    # the product is taken from the parameter down, so that at k = 1e150 the
    # three sn of about 1/k do not underflow
    r = ew - eu - ev + parameter * sn(u) * sn(v) * sn(u + v)
    return abs(r) / math.ulp(abs(eu) + abs(ev) + abs(ew))


def near_one(rng):
    # k uniform in [0, 1) or 1 - 10^-[1, 16], which reaches k = 1 itself
    return rng.random() if rng.random() < 0.5 else 1.0 - 10.0 ** -rng.uniform(1.0, 16.0)


# (band, modulus draw, whether u and v scale by 1/k, bound in ulps).  The worst
# residuals over 20000 draws of each band, u and v uniform in [-3, 3], were
# 2.2, 2.2, 2.0, 141 and 189 ulps.  The i*k loss grows with the conditioning
# of x/k1p; the 141 is ROADMAP item 3's cancellation near x = 0 (k = 16.7,
# |u| and |v| below 0.07), where the bulk of that band stays within 34.
BANDS = [
    ("standard", lambda r: Modulus.real(near_one(r)), False, 4.0),
    ("large_real to 1e3",
     lambda r: Modulus.real(1.0 + 10.0 ** r.uniform(math.log10(2.0 ** -52), 3.0)), False, 4.0),
    ("large_real 1e3 to 1e150", lambda r: Modulus.real(10.0 ** r.uniform(3.0, 150.0)), True, 4.0),
    ("pure_imaginary to 50",
     lambda r: Modulus.imaginary(10.0 ** r.uniform(-6.0, math.log10(50.0))), False, 160.0),
    ("pure_imaginary 1e3 to 2^26", lambda r: Modulus.imaginary(
        min(10.0 ** r.uniform(3.0, math.log10(BELOW_IMAG)), BELOW_IMAG)), False, 280.0),
]


@pytest.mark.parametrize("band, draw, scaled, bound", BANDS, ids=[b[0] for b in BANDS])
def test_addition_theorem(band, draw, scaled, bound):
    rng = random.Random(band)
    worst, at = 0.0, None
    for _ in range(1000):
        m = draw(rng)
        s = 1.0 / m.k if scaled else 1.0  # kx stays within the period reduction
        u, v = rng.uniform(-3.0, 3.0) * s, rng.uniform(-3.0, 3.0) * s
        ulps = residual_ulps(m, u, v)
        if ulps > worst:
            worst, at = ulps, (m, u, v)
    assert worst <= bound, (worst, at)


# epsilon(h)/h at h = 1e-12 on the scale 1/k of the modulus, h = 1e-12/max(1, k),
# where the next Taylor term, m h^2/3, is below the rounding.  The worst over
# the passing moduli is 2 ulps of 1
SLOPE_CASES = [
    pytest.param(Modulus.real, (0.0, 1e-8, 0.3, 0.5, 0.9, 0.999999, 1.0 - 2.0 ** -40, 1.0),
                 id="standard"),
    pytest.param(Modulus.real, (1.0 + 2.0 ** -52, 1.0 + 1e-9, 1.5, 2.0, 10.0, 1e3, 1e8,
                                1e50, 1e100, 1e140, 1e147), id="large_real"),
    pytest.param(Modulus.real, (1e150, _MAX_LARGE), id="large_real past 5e147", marks=(
        pytest.mark.xfail(strict=True, reason=(
            "k Z(kh, 1/k) is formed from Z(kh, 1/k) of about kh/(2k^2), subnormal "
            "from k of about 5e147 on, which loses epsilon's relative precision")))),
    pytest.param(Modulus.imaginary, (1e-6, 0.5, 1.0, 3.0, 50.0, 1e3, 1e5, 1e7, BELOW_IMAG),
                 id="pure_imaginary", marks=pytest.mark.xfail(strict=True, reason=(
                     "ROADMAP item 3: epsilon = (E/K) x + Z cancels by E/K ~ k^2/ln(4k) "
                     "near x = 0"))),
]


@pytest.mark.parametrize("make, ks", SLOPE_CASES)
def test_slope_at_zero(make, ks):
    for k in ks:
        m = make(k)
        for h in (1e-12, -1e-12):
            h = h / max(1.0, k)
            assert abs(epsilon_any(h, m) / h - 1.0) <= 2.0 ** -50, (m, h)
