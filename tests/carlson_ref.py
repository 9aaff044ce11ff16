"""Carlson's RD and RC, the tests' independent oracle for the AGM kernel.

With the library's RF they give K, E and E(phi, k) on a route that shares
no code with the kernel's AGM and King's sum (DLMF 19.25(i)).  RD uses
the duplication theorem
(Carlson, "Computing elliptic integrals by duplication", Numer. Math.
33, 1979; series constants from the 1994 revision, arXiv
math/9409227); RC has stable closed forms in atan/log and is evaluated
directly.
"""

import math

from epszeta import DomainError, rf

# Duplication stops once the normalized deviations |X|, |Y|, |Z| drop
# below this cutoff: the remainder of the truncated series is below
# 3.3*t**8, under 1e-16 at t = 7.7e-3.
_RD_CUT = 7.7e-3


def _require_finite_nonneg(name, vals):
    for v in vals:
        if not (math.isfinite(v) and v >= 0.0):
            raise DomainError(f"{name} arguments must be finite and non-negative, got {vals}")


def rd(x: float, y: float, z: float) -> float:
    """Carlson RD(x,y,z) = (3/2) * integral 0..inf dt / ((t+z) sqrt((t+x)(t+y)(t+z))).

    Symmetric in x and y; z must be positive and at most one of x, y may
    be zero.
    """
    x, y, z = float(x), float(y), float(z)
    _require_finite_nonneg("rd", (x, y, z))
    if z == 0.0:
        raise DomainError("rd requires z > 0")
    if x == 0.0 and y == 0.0:
        raise DomainError("rd diverges when x and y are both zero")
    if x > y:
        x, y = y, x
    mean = mean0 = (x + y + 3.0 * z) / 5.0
    dev = max(abs(mean0 - x), abs(mean0 - y), abs(mean0 - z))
    xn, yn, zn, scale, tail = x, y, z, 1.0, 0.0
    while dev > _RD_CUT * scale * mean:
        sx, sy, sz = math.sqrt(xn), math.sqrt(yn), math.sqrt(zn)
        lam = sx * (sy + sz) + sy * sz
        tail += 1.0 / (scale * sz * (zn + lam))
        xn, yn, zn = (xn + lam) / 4.0, (yn + lam) / 4.0, (zn + lam) / 4.0
        mean = (mean + lam) / 4.0
        scale *= 4.0
    dx = (mean0 - x) / (scale * mean)
    dy = (mean0 - y) / (scale * mean)
    dz = -(dx + dy) / 3.0
    e2 = dx * dy - 6.0 * dz * dz
    e3 = (3.0 * dx * dy - 8.0 * dz * dz) * dz
    e4 = 3.0 * (dx * dy - dz * dz) * dz * dz
    e5 = dx * dy * dz ** 3
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0
              - e2 ** 3 / 16.0 + 3.0 * e3 * e3 / 40.0 + 3.0 * e2 * e4 / 20.0
              + 45.0 * e2 * e2 * e3 / 272.0 - 9.0 * (e3 * e4 + e2 * e5) / 68.0)
    return 3.0 * tail + series / (scale * mean * math.sqrt(mean))


def rc(x: float, y: float) -> float:
    """Carlson RC(x,y) = (1/2) * integral 0..inf dt / (sqrt(t+x) (t+y)).

    Requires x >= 0 and y != 0.  For y < 0 the Cauchy principal value is
    returned through RC(x,y) = sqrt(x/(x-y)) RC(x-y, -y).
    """
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"rc arguments must be finite, got ({x}, {y})")
    if x < 0.0:
        raise DomainError("rc requires x >= 0")
    if y == 0.0:
        raise DomainError("rc is undefined at y = 0")
    if y < 0.0:
        return math.sqrt(x / (x - y)) * rc(x - y, -y)
    if x == 0.0:
        return 0.5 * math.pi / math.sqrt(y)
    if x == y:
        return 1.0 / math.sqrt(x)
    if y > x:
        return math.atan(math.sqrt((y - x) / x)) / math.sqrt(y - x)
    w = math.sqrt((x - y) / x)
    if y > 0.5 * x:
        # log1p form avoids cancellation as y -> x
        return (math.log1p(w) - math.log1p(-w)) / (2.0 * math.sqrt(x - y))
    return math.log((math.sqrt(x) + math.sqrt(x - y)) / math.sqrt(y)) / math.sqrt(x - y)


def carlson_k_e(k):
    # K = RF(0, k'^2, 1), E = K - (k^2/3) RD(0, k'^2, 1)
    kp2 = (1.0 - k) * (1.0 + k)
    big_k = rf(0.0, kp2, 1.0)
    return big_k, big_k - (k * k / 3.0) * rd(0.0, kp2, 1.0)


def carlson_e(phi, k):
    # E(phi, k) = s RF(c^2, w, 1) - (k^2/3) s^3 RD(c^2, w, 1) on the half
    # cell, with s = sin, c = cos and w = 1 - k^2 s^2, plus 2 E(k) per period
    n = round(phi / math.pi)
    s, c = math.sin(phi - n * math.pi), math.cos(phi - n * math.pi)
    w = (1.0 - k * s) * (1.0 + k * s)
    value = s * rf(c * c, w, 1.0) - (k * k / 3.0) * s ** 3 * rd(c * c, w, 1.0)
    return value + 2.0 * n * carlson_k_e(k)[1] if n else value
