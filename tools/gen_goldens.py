#!/usr/bin/env python3
"""Regenerate tests/goldens.py from mpmath at 40 significant digits.

mpmath is an arbitrary-precision library with its own, unrelated
implementations of the elliptic integrals and Jacobi functions, so these
constants are an independent reference for the double-precision code.
Run from the repository root:

    python3 tools/gen_goldens.py > tests/goldens.py
"""

import math

import mpmath as mp

mp.mp.dps = 40


def f(v):
    return f"{float(v)!r}"


def c(v):
    v = complex(v)
    return f"complex({v.real!r}, {v.imag!r})"


def eps_std(x, k):
    # quadrature of dn^2, deliberately not the amplitude route
    m = mp.mpf(k) ** 2
    return mp.quad(lambda t: mp.ellipfun("dn", t, m) ** 2, [0, mp.mpf(x)])


def eps_any_m(x, m):
    # m is the squared modulus (possibly > 1 or negative); real part taken
    return mp.re(mp.quad(lambda t: mp.ellipfun("dn", t, m) ** 2, [0, mp.mpf(x)]))


def zeta_std(x, k):
    m = mp.mpf(k) ** 2
    return eps_std(x, k) - mp.ellipe(m) / mp.ellipk(m) * mp.mpf(x)


lines = [
    '"""Frozen reference values, generated by tools/gen_goldens.py (mpmath, 40 digits).',
    '',
    'Do not edit by hand; rerun the generator instead.',
    '"""',
    '',
]


def emit(name, text):
    lines.append(f"{name} = {text}")


emit("K_HALF", f(mp.ellipk(mp.mpf("0.25"))))                    # K(k=0.5)
emit("E_HALF", f(mp.ellipe(mp.mpf("0.25"))))                    # E(k=0.5)
emit("K_09", f(mp.ellipk(mp.mpf("0.81"))))                      # K(k=0.9)
emit("E_09", f(mp.ellipe(mp.mpf("0.81"))))                      # E(k=0.9)
emit("RD_021", f(mp.elliprd(0, 2, 1)))
emit("RF_1_2_4", f(mp.elliprf(1, 2, 4)))
emit("RF_002_07_30", f(mp.elliprf(mp.mpf("0.02"), mp.mpf("0.7"), 30)))
emit("RD_05_2_3", f(mp.elliprd(mp.mpf("0.5"), 2, 3)))
emit("RD_0_3_05", f(mp.elliprd(0, 3, mp.mpf("0.5"))))
emit("RC_1_NEG2", f(mp.elliprc(1, -2)))                         # principal value
emit("RC_004_25", f(mp.elliprc(mp.mpf("0.04"), mp.mpf("2.5"))))
emit("IE_07_05", f(mp.ellipe(mp.mpf("0.7"), mp.mpf("0.25"))))   # E(0.7, k=0.5)
emit("IE_25_06", f(mp.ellipe(mp.mpf("2.5"), mp.mpf("0.36"))))   # E(2.5, k=0.6)

# amplitude from the inverse route: am(x,k) solves F(am, k) = x
emit("AM_3_08", f(mp.findroot(lambda p: mp.ellipf(p, mp.mpf("0.64")) - 3, mp.mpf("2"))))
emit("AM_085_0999", f(mp.findroot(lambda p: mp.ellipf(p, mp.mpf("0.999") ** 2) - mp.mpf("0.85"), mp.mpf("0.7"))))

emit("EPS_05_05", f(eps_std("0.5", "0.5")))                     # Table 1 row k=0.5
emit("EPS_125_08", f(eps_std("1.25", "0.8")))
emit("ZETA_05_05", f(zeta_std("0.5", "0.5")))                   # Table 3 row k=0.5
emit("ZETA_17_06", f(zeta_std("1.7", "0.6")))

emit("EPS_05_2", f(eps_any_m("0.5", 4)))                        # Table 1 row k=2
emit("EK_RATIO_2", c(mp.ellipe(4) / mp.ellipk(4)))              # E/K at k=2, principal branch
emit("KK_2", c(mp.ellipk(4)))                                   # K(k=2), principal branch
emit("EE_2", c(mp.ellipe(4)))                                   # E(k=2), principal branch
emit("ZETA_05_2", c(eps_any_m("0.5", 4) - mp.ellipe(4) / mp.ellipk(4) * mp.mpf("0.5")))

for kk in ("0.5", "1.0", "2.0"):
    tag = kk.replace(".", "")
    m = -mp.mpf(kk) ** 2
    e = eps_any_m("0.5", m)
    z = e - mp.re(mp.ellipe(m) / mp.ellipk(m)) * mp.mpf("0.5")
    emit(f"EPS_05_I{tag}", f(e))                                # Table 2
    emit(f"ZETA_05_I{tag}", f(z))                               # Table 4

# flexural elastica at u = 0.7, k = 0.5, omega = 1:
# x = integral 0..u (2 dn^2(t + K) - 1) dt, y = -2 k cn(u + K)
mq = mp.mpf("0.25")
Kq = mp.ellipk(mq)
emit("ELASTICA_X_07", f(mp.quad(lambda t: 2 * mp.ellipfun("dn", t + Kq, mq) ** 2 - 1, [0, mp.mpf("0.7")])))
emit("ELASTICA_Y_07", f(-2 * mp.mpf("0.5") * mp.ellipfun("cn", mp.mpf("0.7") + Kq, mq)))

# the moduli extremes k -> 0 and k -> 1-, at the exact doubles the tests
# pass; 80 digits, because Z(2.5, 1e-12) is about 1e-25 and comes from
# epsilon - (E/K) x with epsilon near 2.5
for tag, k in (("1EM12", 1e-12), ("1M1EM15", 1.0 - 1e-15)):
    with mp.workdps(80):
        mk = mp.mpf(k) ** 2
        emit(f"K_{tag}", f(mp.ellipk(mk)))
        emit(f"E_{tag}", f(mp.ellipe(mk)))
        emit(f"EPS_25_{tag}", f(eps_std("2.5", k)))
        emit(f"ZETA_25_{tag}", f(zeta_std("2.5", k)))


def reduced(u, m):
    # (phi, sn, cn, dn) at u for the parameter m, with the amplitude phi =
    # am(u | m) from sn and cn of the argument reduced by 2K(m)
    n = mp.nint(u / (2 * mp.ellipk(m)))
    u0 = u - 2 * mp.ellipk(m) * n
    sn, cn, dn = (mp.ellipfun(fn, u0, m) for fn in ("sn", "cn", "dn"))
    return mp.atan2(sn, cn) + n * mp.pi, sn, cn, dn


def eps_large_real(x, k):
    # k E(am(kx, 1/k), 1/k) + (1 - k^2) x
    k, x = mp.mpf(k), mp.mpf(x)
    m = 1 / (k * k)
    return k * mp.ellipe(reduced(k * x, m)[0], m) + (1 - k * k) * x


# epsilon at large real k, where the two terms of size k^2 x cancel: 80 digits
for tag, k in (("1E3", "1e3"), ("1E6", "1e6"), ("1E12", "1e12")):
    with mp.workdps(80):
        emit(f"EPS_05_R{tag}", f(eps_large_real("0.5", k)))

# the pair (K, E) continued to large real k, principal branch (the library's
# "lower"): the real part of E cancels in E(1/k) - (1 - 1/k^2) K(1/k)
for tag, k in (("10", "10"), ("1E3", "1e3"), ("1E6", "1e6"), ("5E7", "5e7")):
    m = mp.mpf(k) ** 2
    emit(f"KK_R{tag}", c(mp.ellipk(m)))
    emit(f"EE_R{tag}", c(mp.ellipe(m)))

# zeta, E/K and (K, E) at large real k, principal branch, from 1 + 1e-9, where
# K(1/k) diverges, to 1e150, where x shrinks so that kx stays reducible; the
# moduli and arguments are the exact doubles the tests pass, and the digits
# grow with k because epsilon cancels between terms of size k^2 x
for tag, k, x in (("1P1EM9", 1.0 + 1e-9, 0.5), ("1E8", 1e8, 0.5), ("1E12", 1e12, 0.5),
                  ("1E150", 1e150, 5e-149)):
    with mp.workdps(2 * int(mp.log10(k)) + 40):
        m = mp.mpf(k) ** 2
        ek = mp.ellipe(m) / mp.ellipk(m)
        emit(f"ZETA_R{tag}", c(eps_large_real(x, k) - ek * mp.mpf(x)))
        emit(f"EK_R{tag}", c(ek))
        emit(f"KK_R{tag}", c(mp.ellipk(m)))
        emit(f"EE_R{tag}", c(mp.ellipe(m)))

# Im E at real k just above 1, where it vanishes like pi/2 (k - 1) and the
# tests bound it relative to itself; the exact doubles the tests pass
for tag, k in (("1P1EM11", 1.0 + 1e-11), ("1P1EM9", 1.0 + 1e-9)):
    with mp.workdps(60):
        emit(f"IM_EE_R{tag}", f(mp.im(mp.ellipe(mp.mpf(k) ** 2))))

# the large-real regime from its lower end, k - 1 in {2^-52, 1e-14, 1e-13},
# where K(1/k) diverges and Im E vanishes like pi/2 (k - 1): epsilon and Z at
# x in {0.1, 0.5, 2}, E/K and (K, E), principal branch; k and x are
# the exact doubles the tests pass
for tag, k in (("1P2EM52", 1.0 + 2.0 ** -52), ("1P1EM14", 1.0 + 1e-14),
               ("1P1EM13", 1.0 + 1e-13)):
    with mp.workdps(60):
        m = mp.mpf(k) ** 2
        ek = mp.ellipe(m) / mp.ellipk(m)
        for xtag, x in (("01", 0.1), ("05", 0.5), ("2", 2.0)):
            e = eps_large_real(x, k)
            emit(f"EPS_X{xtag}_R{tag}", f(e))
            emit(f"ZETA_X{xtag}_R{tag}", c(e - ek * mp.mpf(x)))
        emit(f"EK_R{tag}", c(ek))
        emit(f"KK_R{tag}", c(mp.ellipk(m)))
        emit(f"EE_R{tag}", c(mp.ellipe(m)))

# E(phi, k) at its hard corners: phi at and next to odd multiples of pi/2
# as k -> 1-, where F(phi, k) reaches K and K diverges, and the moduli
# 1 and 1e-9; phi and k are the exact doubles the tests pass
for tag, phi, k in (("PI2_1M1EM15", math.pi / 2, 1.0 - 1e-15),
                    ("PI2P1EM9_1M1EM15", math.pi / 2 + 1e-9, 1.0 - 1e-15),
                    ("3PI2_1M1EM15", 3 * math.pi / 2, 1.0 - 1e-15),
                    ("PI2M1EM12_1M1EM12", math.pi / 2 - 1e-12, 1.0 - 1e-12),
                    ("07_1", 0.7, 1.0), ("07_1EM9", 0.7, 1e-9)):
    with mp.workdps(60):
        emit(f"IE_{tag}", f(mp.ellipe(mp.mpf(phi), mp.mpf(k) ** 2)))

# epsilon and Z at large |x| for k = 0.5, real k = 2 (principal branch) and
# i*2, where the error of a double-precision value grows with |x| (the
# tests' conditioning bound): epsilon = E(am(x), k) for k = 0.5, the
# large-real form above for k = 2, and for i*k with k1 = k/h, h =
# sqrt(1 + k^2) and u = x h, (E(am(u, k1), k1) - k1^2 sn cn/dn) h (DLMF
# 22.17.8, 22.16.27); Z = epsilon - (E/K) x, complex only for k = 2
def eps_reduced(x, k):
    m = mp.mpf(k) ** 2
    return mp.ellipe(reduced(mp.mpf(x), m)[0], m)


def eps_imaginary(x, k):
    k, x = mp.mpf(k), mp.mpf(x)
    h = mp.sqrt(1 + k * k)
    m1 = (k / h) ** 2
    phi, sn, cn, dn = reduced(x * h, m1)
    return (mp.ellipe(phi, m1) - m1 * sn * cn / dn) * h


for ktag, m, eps in (("05", mp.mpf("0.25"), lambda x: eps_reduced(x, "0.5")),
                     ("R2", mp.mpf(4), lambda x: eps_large_real(x, 2)),
                     ("I2", mp.mpf(-4), lambda x: eps_imaginary(x, 2))):
    for xtag, x in (("1E6", 1e6), ("M1E6", -1e6), ("1E12", 1e12)):
        with mp.workdps(60):
            e = eps(x)
            z = e - mp.ellipe(m) / mp.ellipk(m) * mp.mpf(x)
            emit(f"EPS_X{xtag}_{ktag}", f(e))
            emit(f"ZETA_X{xtag}_{ktag}", c(z) if ktag == "R2" else f(z))

# in-flexural elastica at omega = 1, in the form of the benchmark's reference
# (bench/reference.py, elastica_ref): x = 2 epsilon(u, k) - u with the
# large-real epsilon above, y = -2k dn(ku, 1/k); 60 digits, as epsilon
# cancels between terms of size k^2 u; k and u are the exact doubles the
# tests pass
for ktag, k in (("2", 2.0), ("1E3", 1e3)):
    for utag, u in (("07", 0.7), ("M31", -3.1)):
        with mp.workdps(60):
            dn = reduced(mp.mpf(k) * mp.mpf(u), 1 / mp.mpf(k) ** 2)[3]
            emit(f"INFLEX_X_{utag}_K{ktag}", f(2 * eps_large_real(u, k) - mp.mpf(u)))
            emit(f"INFLEX_Y_{utag}_K{ktag}", f(-2 * mp.mpf(k) * dn))

# epsilon past the reduction bound |x| = 2^51 K of the descent (of kx for
# real k > 1, of x/k1p for i*k), where the library returns the linear term:
# the exact value, periodic part included, with the digits that reducing x
# by the period takes (log10 |x|) and, for real k > 1, the cancellation
# between terms of size k^2 x; k and x are the exact doubles the tests pass
for tag, eps, k, x in (("05_1E16", eps_reduced, 0.5, 1e16),
                       ("05_M1E20", eps_reduced, 0.5, -1e20),
                       ("0999999_1E20", eps_reduced, 0.999999, 1e20),
                       ("1M2EM40_1E300", eps_reduced, 1.0 - 2.0 ** -40, 1e300),
                       ("R2_1E16", eps_large_real, 2.0, 1e16),
                       ("R2_M1E300", eps_large_real, 2.0, -1e300),
                       ("R1E20_1", eps_large_real, 1e20, 1.0),
                       ("R1E100_1", eps_large_real, 1e100, 1.0),
                       ("I2_1E16", eps_imaginary, 2.0, 1e16),
                       ("I1E3_1E15", eps_imaginary, 1e3, 1e15),
                       ("I1E7_1E12", eps_imaginary, 1e7, 1e12)):
    cancel = 2 * int(mp.log10(k)) if eps is eps_large_real else 0
    with mp.workdps(int(mp.log10(abs(x * k))) + cancel + 40):
        emit(f"EPS_PAST_{tag}", f(eps(x, k)))

print("\n".join(lines))
