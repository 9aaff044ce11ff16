"""High-precision references for the benchmark's verification pass.

Every reference is recomputed in mpmath with at least 30 correct digits,
so it is never timed.  The routes share no code with the library's
double-precision kernels:

- |k| <= 1: epsilon(x, k) = E(am(x, k), k), with am rebuilt from mpmath's
  sn and cn after reducing x by whole periods 2K.
- real k > 1: epsilon(x, k) = k epsilon(kx, 1/k) + (1 - k^2) x (DLMF
  22.17 with 19.7.3), carried at enough digits to absorb the k^2
  cancellation that the double-precision form suffers from.
- imaginary i*k: with k1 = k/sqrt(1+k^2), k1p = 1/sqrt(1+k^2) and
  u = x/k1p, epsilon(x, ik) = (E(am(u, k1), k1) - k1^2 sn cn / dn)/k1p,
  the integral of nd^2 (DLMF 22.17.8, 22.16.27).
- zeta = epsilon - (E(m)/K(m)) x with mpmath's complete integrals at
  m = k^2 or m = -k^2; for m > 1 mpmath's principal value is the
  library's default "lower" branch.

The elastica references evaluate the curve formulas of the flexural and
in-flexural families with these epsilon routes.  The goldens check
compares the library against the frozen values in ``tests/goldens.py``,
which it only reads.
"""

import importlib.util
import math

import mpmath as mp

# A value passes when |got - ref| / max(1, |ref|) is at most ACCURACY_BOUND.
# Beyond GROSS_BOUND it is not merely inaccurate but wrong: when this
# benchmark was written, the library's worst miss on bulk inputs was
# 3e-11 (zeta at imaginary k near 50).
ACCURACY_BOUND = 1e-12
GROSS_BOUND = 1e-8

STANDARD, LARGE_REAL, PURE_IMAGINARY = 0, 1, 2
REGIME_NAMES = ("standard", "large_real", "pure_imaginary")


def rel_err(got, ref):
    """|got - ref| / max(1, |ref|); infinite for a value that is not finite."""
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return math.inf
    return abs(complex(got) - complex(ref)) / max(1.0, abs(ref))


def _digits(k, x):
    # 30 wanted digits, plus what the k^2 cancellation and the period
    # reduction of a large argument eat
    return int(40 + 2 * max(0.0, math.log10(k)) + max(0.0, math.log10(abs(x) or 1.0)))


def _eps_std(x, k):
    # E(am(x, k), k) for 0 < k < 1, all arguments mpf
    m = k * k
    n = mp.nint(x / (2 * mp.ellipk(m)))
    x0 = x - 2 * mp.ellipk(m) * n
    phi = mp.atan2(mp.ellipfun("sn", x0, m), mp.ellipfun("cn", x0, m)) + n * mp.pi
    return mp.ellipe(phi, m)


def _epsilon(x, regime, k):
    if regime == STANDARD:
        if k == 0:
            return x
        if k == 1:
            return mp.tanh(x)
        return _eps_std(x, k)
    if regime == LARGE_REAL:
        return k * _eps_std(k * x, 1 / k) + (1 - k * k) * x
    h = mp.sqrt(1 + k * k)
    k1, k1p = k / h, 1 / h
    m1 = k1 * k1
    u = x / k1p
    n = mp.nint(u / (2 * mp.ellipk(m1)))
    u0 = u - 2 * mp.ellipk(m1) * n
    sn, cn, dn = (mp.ellipfun(f, u0, m1) for f in ("sn", "cn", "dn"))
    phi = mp.atan2(sn, cn) + n * mp.pi
    return (mp.ellipe(phi, m1) - m1 * sn * cn / dn) / k1p


def epsilon_ref(x, regime, k):
    """epsilon(x, .) for the modulus k (real, or i*k when regime is PURE_IMAGINARY)."""
    with mp.workdps(_digits(k, x)):
        return float(_epsilon(mp.mpf(x), regime, mp.mpf(k)))


def zeta_ref(x, regime, k):
    """Z(x, .); complex on the lower branch for real k > 1."""
    with mp.workdps(_digits(k, x)):
        X, K = mp.mpf(x), mp.mpf(k)
        eps = _epsilon(X, regime, K)
        if regime == STANDARD and k in (0, 1):
            return complex(eps if k == 1 else 0.0)
        m = -K * K if regime == PURE_IMAGINARY else K * K
        return complex(eps - mp.ellipe(m) / mp.ellipk(m) * X)


def elastica_ref(kind, k, u, omega=1.0):
    """(x, y) of the elastica curve at arc parameter u."""
    with mp.workdps(40):
        K, U, W = mp.mpf(k), mp.mpf(u), mp.mpf(omega)
        if kind == "flexural":
            m = K * K
            s = U + mp.ellipk(m)
            x = (-U + 2 * (_eps_std(s, K) - mp.ellipe(m))) / W
            y = -2 * K * mp.ellipfun("cn", s, m) / W
        else:
            v = K * U
            x = ((1 - 2 * K * K) * v + 2 * K * K * _eps_std(v, 1 / K)) / (W * K)
            y = -2 * K * mp.ellipfun("dn", v, 1 / (K * K)) / W
        return float(x), float(y)


# (golden name, function, x, regime, k) for every epsilon/zeta golden
_GOLDEN_CASES = (
    ("EPS_05_05", "epsilon", 0.5, STANDARD, 0.5),
    ("EPS_125_08", "epsilon", 1.25, STANDARD, 0.8),
    ("ZETA_05_05", "zeta", 0.5, STANDARD, 0.5),
    ("ZETA_17_06", "zeta", 1.7, STANDARD, 0.6),
    ("EPS_05_2", "epsilon", 0.5, LARGE_REAL, 2.0),
    ("ZETA_05_2", "zeta", 0.5, LARGE_REAL, 2.0),
    ("EPS_05_I05", "epsilon", 0.5, PURE_IMAGINARY, 0.5),
    ("ZETA_05_I05", "zeta", 0.5, PURE_IMAGINARY, 0.5),
    ("EPS_05_I10", "epsilon", 0.5, PURE_IMAGINARY, 1.0),
    ("ZETA_05_I10", "zeta", 0.5, PURE_IMAGINARY, 1.0),
    ("EPS_05_I20", "epsilon", 0.5, PURE_IMAGINARY, 2.0),
    ("ZETA_05_I20", "zeta", 0.5, PURE_IMAGINARY, 2.0),
)


def load_goldens(path):
    """The frozen reference module at ``path``, imported without touching sys.path."""
    spec = importlib.util.spec_from_file_location("bench_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_max_rel_err(goldens, epszeta):
    """Per regime, the largest |got - golden| / |golden| over the epsilon/zeta goldens."""
    worst = dict.fromkeys(REGIME_NAMES, 0.0)
    for name, fn, x, regime, k in _GOLDEN_CASES:
        make = epszeta.Modulus.imaginary if regime == PURE_IMAGINARY else epszeta.Modulus.real
        evaluate = epszeta.epsilon_any if fn == "epsilon" else epszeta.zeta_any
        ref = getattr(goldens, name)
        err = abs(complex(evaluate(x, make(k))) - complex(ref)) / abs(ref)
        worst[REGIME_NAMES[regime]] = max(worst[REGIME_NAMES[regime]], err)
    return worst
