#!/usr/bin/env python3
"""Check that two epszeta source trees give the same outputs on the benchmark's rows
and on a fixed list of command lines.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold an `epszeta`
package (a checkout's `src`).  Each side runs in its own interpreter
with its directory first on PYTHONPATH, draws its rows from the
workloads of this checkout's `bench/workloads.py` and records, for every
row, the repr of the operation's output or the type and message of the
exception it raised:

- mixed-points: every pool row of seeds 1 and 2;
- curve-export: every pool row of seed 1;
- quadrature-oracle: the first 3000 pool rows of seed 1;
- `ek_ratio` and `k_e_continued` on both branches, at large-real k with
  k - 1 log-spread from 2^-52 up to `extended._MAX_LARGE` (1.34e154, read
  from this checkout's `src`), the other callers of the large-real rule's
  Legendre relation besides `zeta_any`;
- `zeta_any` on both branches, for moduli of every regime (`MODULI`),
  at each x of `XS`: zeros of both signs, the smallest subnormal, and x
  of both signs and many periods;
- `ek_ratio` on both branches for the standard and i*k moduli of
  `MODULI`;
- every public routine given the int 10**400, past the float range, as
  one argument;
- every public routine that takes an x (`incomplete_e` its phi, the
  curve points their u, `uniform_grid` its u_min and u_max) given each
  x of `X_ARGS` and numpy's scalars: numpy's float32, float64 and int64,
  a Fraction and an int, which are taken as floats, and a bool, numpy's
  bool, a str, bytes, None, a Decimal and a complex (numpy's too), which
  are refused;
- oracle arguments: `epsilon_by_quadrature` at k = 1 (where its half
  period is infinite) at each x of `UNIT_XS`, below, at and past the
  span it integrates there, and at x = 0.5 on real 0.5 given each tol
  of `TOLS`: numpy's float32 and a Fraction, which are taken as floats,
  a str, None, a bool and a complex, which are refused, and 0, a
  negative tol and NaN, which `integrate` refuses;
- the constructors of the checked values, `Modulus(regime, k)` for each
  regime, `Modulus.real`, `Modulus.imaginary` and `ElasticaParams`, each
  given every k of a list: a bool, numpy's bool, a str and bytes, NaN,
  both infinities, a negative k, 10**400, numpy's float64 and float32
  (which the constructors take as floats) and both sides of each regime's
  range bounds (the large-real one read from this checkout's `src`, as
  above); `Modulus` given a regime that is not a `Regime`; and
  `ElasticaParams` at k = 1 and with an omega that is not finite and > 0;
- the seven (x, k) routines of the standard range, `epsilon`, `zeta`,
  `amplitude`, `sncndn` and `incomplete_e` at each x of `XS` and at
  x = 1e17, past the reduction bound, where `epsilon` is its linear
  term, and `complete_k` and `complete_e`, each given every k of
  `XK_KS` (0, 0.5, the float below 1 and 1, each of both signs, and
  0.5j, None and Fraction(1, 2)), numpy's complex128(0.5j) and every k
  of the constructors' list
  above.

It also runs each command line of `COMMANDS` through `epszeta.cli.main`
in-process and records its transcript: the exit code (or the type and
message of the exception that escaped `main`), then stderr and stdout.
The list covers `eval` for every regime, function and format plus the
upper branch, `eval` at the large-real k = 1.0000000000001 (epsilon,
and zeta on both branches), `tables`, `check`, both `elastica` kinds
(also in the benchmark's export shape, 600 samples on [0, 12]), and the
error exits: bad flags, domain errors (among them a curve point past
the float range and one past the reduction bound of its descent), a
tolerance failure and an unwritable `--out` (a path under a missing
directory, the same on both sides).  All of them run in
one process, in order, and the list ends with an export repeated after
the error exits, so that a parser or other state kept from one call to
the next is covered.

The script prints the number of differing rows per workload and of
differing CLI transcripts, with the first few of each, and exits 1 on
any difference, 0 otherwise.  For each group with differing rows it
also prints the largest absolute difference |a - b| and the largest
relative difference |a - b|/max(|a|, |b|) between the numbers of the two
sides' outputs, taken in order, over the differing rows that hold as
many numbers on both sides (a last-bit change shows as about 1e-16
relative, whatever the size of the number), and how many differing
rows hold a different count of numbers.  Each
side takes about 20 s on a shared 2-vCPU host.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# (workload, seed, rows from the first; None for the whole pool)
ROWS = (("mixed-points", 1, None), ("mixed-points", 2, None),
        ("curve-export", 1, None), ("quadrature-oracle", 1, 3000))
BIG = 10 ** 400  # an int past the float range
SHOWN = 5        # differing rows printed per workload
PREVIEW = 300    # characters of an output printed for a differing row
CLI = "cli transcripts"
OUT = "{missing}/curve.csv"  # an --out path under a directory that does not exist
# (constructor, k) of the moduli whose zeta_any and ek_ratio are compared, and the x
MODULI = (("real", 0.0), ("real", 0.5), ("real", 1.0), ("real", 1.0 + 2.0 ** -52), ("real", 2.0),
          ("real", 1e8), ("imaginary", 1e-6), ("imaginary", 1.5), ("imaginary", 1e7))
XS = (0.0, -0.0, 0.7, -0.7, 5e-324, 1e3)
# the x and k of the (x, k) routines of the standard range, besides the k of
# `refusals`: XS and an x past the reduction bound, where epsilon is its linear
# term; k of both signs at 0, 0.5, below 1 and at 1, and a complex, None and a
# Fraction, which no constructor is given there
XK_XS = (*XS, 1e17)
XK_KS = (0.0, 0.5, -0.5, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), 1.0, -1.0,
         0.5j, None, Fraction(1, 2))
# the x of `x_arguments` besides numpy's: a Fraction and an int, which the
# routines take as floats, and what is not a real number
X_ARGS = (Fraction(1, 2), 1, True, "0.5", b"0.5", None, Decimal("0.5"), 0.5j)
# the x of the oracle at k = 1 and its tol besides numpy's float32 (`oracle_arguments`)
UNIT_XS = (19.0, 40.0, 64.0, 1e6, 1e9, 1e20, -1e300)
TOLS = ("1e-10", None, True, 1j, Fraction(1, 10 ** 10), 0, -1.0, math.nan)
# a decimal number standing alone in an output (not part of a name such as k1),
# with the j of a complex part
NUMBER = re.compile(r"(?<![A-Za-z_.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?j?(?![\w.])")


def _eval(regime, fn, fmt, branch="lower"):
    k, modulus = {"standard": ("0.7", "real"), "large_real": ("2.5", "real"),
                  "pure_imaginary": ("2.5", "imaginary")}[regime]
    return ["eval", "--fn", fn, "--x", "0.8", "--k", k, "--modulus", modulus,
            "--format", fmt, "--branch", branch]


def _elastica(kind, k, *extra):
    return ["elastica", "--kind", kind, "--k", k, "--omega", "1.5", "--u-min", "-1",
            "--u-max", "4", "--samples", "40", *extra]


def _bench_export(kind, k):
    # the curve-export workload's command line (bench/workloads.py)
    return ["elastica", "--kind", kind, "--k", k, "--u-min", "0", "--u-max", "12.0",
            "--samples", "600"]


COMMANDS = (
    *(_eval(regime, fn, fmt) for regime in ("standard", "large_real", "pure_imaginary")
      for fn in ("epsilon", "zeta") for fmt in ("text", "json", "csv")),
    *(_eval("large_real", "zeta", fmt, "upper") for fmt in ("text", "json", "csv")),
    ["tables"],
    ["check", "--trials", "20", "--seed", "7"],
    _elastica("flexural", "0.6"),
    _elastica("inflexural", "1.7"),
    _bench_export("flexural", "0.35"),
    _bench_export("inflexural", "3.2"),
    # bad flags: exit 2
    ["eval", "--fn", "gamma", "--x", "0.5", "--k", "0.5"],
    ["elastica", "--kind", "flexural", "--k", "0.5", "--u-min", "1", "--u-max", "0",
     "--samples", "3"],
    _elastica("inflexural", "1.7", "--out", OUT),
    # a large-real k within 1e-12 of 1
    *(["eval", "--fn", fn, "--x", "0.5", "--k", "1.0000000000001", "--branch", branch]
      for fn, branch in (("epsilon", "lower"), ("zeta", "lower"), ("zeta", "upper"))),
    # domain errors: exit 3
    ["eval", "--fn", "zeta", "--x", "0.5", "--k", "1e200"],
    # a curve point past the reduction bound, where the descent fails
    *(["elastica", "--kind", kind, "--k", k, "--u-min", "0", "--u-max", "1e16",
       "--samples", "2"] for kind, k in (("flexural", "0.5"), ("inflexural", "2"))),
    _elastica("flexural", "2"),
    _elastica("inflexural", "0.5"),
    _elastica("flexural", "nan"),
    ["elastica", "--kind", "flexural", "--k", "0.5", "--omega=-1", "--u-min", "0",
     "--u-max", "1", "--samples", "3"],
    # a subnormal omega scales the points past the float range
    *(["elastica", "--kind", kind, "--k", k, "--omega", "1e-310", "--u-min", "0",
       "--u-max", "1", "--samples", "3"] for kind, k in (("flexural", "0.5"),
                                                         ("inflexural", "2"))),
    # tolerance failure: exit 4
    ["check", "--trials", "5", "--tol", "1e-18", "--seed", "3"],
    # the same export as above, after every error exit
    _elastica("flexural", "0.6"),
)


def large_real_ks(top):
    """1000 large-real k = 1 + 10^t, t evenly spread so that k runs from the float
    after 1 to top, the largest k whose k^2 is finite."""
    low, high = math.log10(2.0 ** -52), math.log10(top - 1.0)
    return [min(top, 1.0 + 10.0 ** (low + (high - low) * i / 999)) for i in range(1000)]


def past_the_float_range():
    """(name, call) for every public routine given BIG as one argument."""
    import epszeta as ez
    m_std, m_large, m_imag = ez.Modulus.real(0.5), ez.Modulus.real(2.0), ez.Modulus.imaginary(2.0)
    return (
        *((fn.__name__, lambda fn=fn: fn(BIG, 0.5))
          for fn in (ez.epsilon, ez.zeta, ez.amplitude, ez.sncndn, ez.incomplete_e)),
        ("sncndn at k = 1", lambda: ez.sncndn(BIG, 1.0)),
        *((f"{fn.__name__} {m.regime.value}", lambda fn=fn, m=m: fn(BIG, m))
          for fn in (ez.epsilon_any, ez.zeta_any, ez.epsilon_by_quadrature)
          for m in (m_std, m_large, m_imag)),
        ("flexural_point", lambda: ez.flexural_point(BIG, ez.ElasticaParams(0.5))),
        ("inflexural_point", lambda: ez.inflexural_point(BIG, ez.ElasticaParams(2.0))),
        ("ElasticaParams k", lambda: ez.ElasticaParams(BIG)),
        ("ElasticaParams omega", lambda: ez.ElasticaParams(0.5, BIG)),
        ("uniform_grid u_min", lambda: ez.uniform_grid(-BIG, 0.0, 3)),
        ("uniform_grid u_max", lambda: ez.uniform_grid(0.0, BIG, 3)),
        ("uniform_grid n", lambda: ez.uniform_grid(0.0, 1.0, BIG)),
        ("rf", lambda: ez.rf(1.0, BIG, 2.0)),
    )


def x_arguments():
    """(name, call) for every public routine that takes an x, given each x of
    X_ARGS and numpy's float32, float64, int64, bool and complex128 scalars."""
    import epszeta as ez
    import numpy
    m_std, m_large, m_imag = ez.Modulus.real(0.5), ez.Modulus.real(2.0), ez.Modulus.imaginary(2.0)
    calls = (
        *((fn.__name__, lambda x, fn=fn: fn(x, 0.5))
          for fn in (ez.epsilon, ez.zeta, ez.amplitude, ez.sncndn, ez.incomplete_e)),
        ("sncndn at k = 1", lambda x: ez.sncndn(x, 1.0)),
        *((f"{fn.__name__} {m.regime.value}", lambda x, fn=fn, m=m: fn(x, m))
          for fn in (ez.epsilon_any, ez.zeta_any, ez.epsilon_by_quadrature)
          for m in (m_std, m_large, m_imag)),
        ("flexural_point", lambda x: ez.flexural_point(x, ez.ElasticaParams(0.5))),
        ("inflexural_point", lambda x: ez.inflexural_point(x, ez.ElasticaParams(2.0))),
        ("uniform_grid u_min", lambda x: ez.uniform_grid(x, 3.0, 3)),
        ("uniform_grid u_max", lambda x: ez.uniform_grid(-1.0, x, 3)),
    )
    xs = (numpy.float32(0.7), numpy.float64(0.7), numpy.int64(1), numpy.bool_(True),
          numpy.complex128(0.5j), *X_ARGS)
    return tuple((f"{name} x={x!r}", lambda call=call, x=x: call(x)) for name, call in calls
                 for x in xs)


def oracle_arguments():
    """(name, call) for `epsilon_by_quadrature` at k = 1 at each x of UNIT_XS,
    and at x = 0.5 on real 0.5 given each tol of TOLS and numpy's float32."""
    import epszeta as ez
    import numpy
    unit, m = ez.Modulus.real(1.0), ez.Modulus.real(0.5)
    return (
        *((f"k=1 x={x!r}", lambda x=x: ez.epsilon_by_quadrature(x, unit, 1e-11))
          for x in UNIT_XS),
        *((f"tol={tol!r}", lambda tol=tol: ez.epsilon_by_quadrature(0.5, m, tol))
          for tol in (numpy.float32(1e-10), *TOLS)),
    )


def shown(v):
    return "10**400" if v is BIG else repr(v)


def refusal_ks(top):
    """The k given to each constructor by `refusals`; top is the large-real
    bound, _MAX_LARGE."""
    import numpy
    return (True, numpy.bool_(True), "0.5", b"0.5", math.nan, math.inf, -math.inf, -0.5, BIG,
            # both sides of each regime's range bounds
            numpy.float64(0.5), numpy.float32(0.5), numpy.float64(2.5), numpy.float32(2.5),
            -0.0, 0.0, 5e-324, 1, 1.0, math.nextafter(1.0, 2.0), 1.0 + 1e-12, 2, top,
            math.nextafter(top, math.inf), math.nextafter(2.0 ** 26, 0.0), 2.0 ** 26)


def standard_routines(top):
    """(name, call) for each (x, k) routine of the standard range at each x of
    XK_XS and each k of XK_KS, numpy's complex128(0.5j) and `refusal_ks`;
    `complete_k` and `complete_e` take no x."""
    import epszeta as ez
    import numpy
    ks = (*XK_KS, numpy.complex128(0.5j), *refusal_ks(top))
    return (
        *((f"{fn.__name__}({x!r}, {shown(k)})", lambda fn=fn, x=x, k=k: fn(x, k))
          for fn in (ez.epsilon, ez.zeta, ez.amplitude, ez.sncndn, ez.incomplete_e)
          for x in XK_XS for k in ks),
        *((f"{fn.__name__}({shown(k)})", lambda fn=fn, k=k: fn(k))
          for fn in (ez.complete_k, ez.complete_e) for k in ks),
    )


def refusals(top):
    """(name, call) for each constructor of a checked value given each input it
    may refuse (module docstring); top is the large-real bound, _MAX_LARGE."""
    import numpy
    from epszeta import ElasticaParams, Modulus, Regime
    ks = refusal_ks(top)
    omegas = (0.0, -1.0, math.nan, math.inf, BIG, True, numpy.bool_(True), "1.0", None)
    constructors = (
        *((f"Modulus({regime})", lambda k, regime=regime: Modulus(regime, k)) for regime in Regime),
        ("Modulus.real", Modulus.real), ("Modulus.imaginary", Modulus.imaginary),
        ("ElasticaParams", ElasticaParams))
    return (
        *((f"{name} k={shown(k)}", lambda make=make, k=k: make(k))
          for name, make in constructors for k in ks),
        *((f"Modulus({regime!r}, {k!r})", lambda regime=regime, k=k: Modulus(regime, k))
          for regime in ("standard", None, 0) for k in (0.5, math.nan)),
        *((f"ElasticaParams k={k!r}", lambda k=k: ElasticaParams(k))
          for k in (1, numpy.float64(1.0))),
        *((f"ElasticaParams omega={shown(omega)}", lambda omega=omega: ElasticaParams(0.5, omega))
          for omega in omegas),
    )


def outcome(op, row):
    """The repr of op(*row), or the type and message of what it raised."""
    try:
        return repr(op(*row))
    except Exception as exc:  # a raised error is an output too
        return f"{type(exc).__name__}: {exc}"


def transcript(argv):
    """Exit code (or escaped exception), stderr and stdout of one in-process CLI run."""
    from epszeta.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {main(argv)}"
        except SystemExit as exc:
            status = f"exit {exc.code}"
        except Exception as exc:  # an escaped error is an output too
            status = f"raised {type(exc).__name__}: {exc}"
    return f"{status}\n--- stderr\n{err.getvalue()}--- stdout\n{out.getvalue()}"


def emit(out, missing, top):
    """Write one JSON line per row: [group, index, row, digest, output]."""
    from workloads import WORKLOADS

    def write(key, i, row, text):
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        out.write(json.dumps([key, i, row, digest, text]) + "\n")

    for name, seed, n in ROWS:
        workload = WORKLOADS[name]
        for i, row in enumerate(islice(workload.rows(seed), n or workload.pool)):
            write(f"{name} seed {seed}", i, list(row), outcome(workload.op, row))
    from epszeta import Modulus, ek_ratio, k_e_continued, zeta_any
    for fn in (ek_ratio, k_e_continued):
        rows = [(k, branch) for k in large_real_ks(top) for branch in ("lower", "upper")]
        for i, row in enumerate(rows):
            write(fn.__name__, i, list(row),
                  outcome(lambda k, branch: fn(Modulus.real(k), branch), row))
    moduli = [(f"{make} {k!r}", getattr(Modulus, make)(k)) for make, k in MODULI]
    rows = [(name, m, x, branch) for name, m in moduli for x in XS
            for branch in ("lower", "upper")]
    for i, (name, m, x, branch) in enumerate(rows):
        write("zeta_any", i, [name, x, branch], outcome(zeta_any, (x, m, branch)))
    rows = [(name, m, branch) for name, m in moduli if m.regime.value != "large_real"
            for branch in ("lower", "upper")]
    for i, (name, m, branch) in enumerate(rows):
        write("ek_ratio, standard and i*k", i, [name, branch], outcome(ek_ratio, (m, branch)))
    for i, (name, call) in enumerate(past_the_float_range()):
        write("int past the float range", i, name, outcome(call, ()))
    for i, (name, call) in enumerate(x_arguments()):
        write("x arguments", i, name, outcome(call, ()))
    for i, (name, call) in enumerate(oracle_arguments()):
        write("oracle arguments", i, name, outcome(call, ()))
    for i, (name, call) in enumerate(refusals(top)):
        write("constructor refusals", i, name, outcome(call, ()))
    for i, (name, call) in enumerate(standard_routines(top)):
        write("(x, k) routines", i, name, outcome(call, ()))
    for i, argv in enumerate(COMMANDS):
        argv = [a.format(missing=missing) for a in argv]
        write(CLI, i, " ".join(argv), transcript(argv))


def numbers(text):
    """The numbers of an output, in order."""
    return [complex(n) if n.endswith("j") else float(n) for n in NUMBER.findall(text)]


def largest_differences(text_a, text_b):
    """max |a - b| and max |a - b|/max(|a|, |b|) over the numbers of two
    outputs, or None if their counts differ."""
    a, b = numbers(text_a), numbers(text_b)
    if len(a) != len(b):
        return None
    # equal infinities (an int past the float range reads as one) differ by 0;
    # a finite number against an infinity differs by inf relative as well
    pairs = [(abs(x - y), max(abs(x), abs(y))) for x, y in zip(a, b) if x != y]
    return (max((d for d, _ in pairs), default=0.0),
            max((d / s if s < math.inf else math.inf for d, s in pairs), default=0.0))


def run_side(src, path, missing, top):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(BENCH)]))
    with open(path, "w") as out:
        subprocess.run([sys.executable, __file__, "--emit", missing, repr(top)], env=env,
                       stdout=out, check=True)


def main(argv):
    if argv[:1] == ["--emit"]:
        emit(sys.stdout, argv[1], float(argv[2]))
        return 0
    if len(argv) != 2 or not all((Path(a) / "epszeta").is_dir() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each argument must be a directory that holds the epszeta package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "parent.jsonl", Path(tmp) / "change.jsonl"]
        missing = str(Path(tmp) / "missing")
        # the large-real bound of this checkout, the same on both sides
        sys.path.insert(0, str(ROOT / "src"))
        from epszeta.extended import _MAX_LARGE
        for src, path in zip(argv, paths):
            run_side(src, path, missing, _MAX_LARGE)
        counts, shown = {}, {}
        # per group: max |a - b| and max |a - b|/max(|a|, |b|), rows of unequal counts
        largest, uneven = {}, {}
        with open(paths[0]) as a, open(paths[1]) as b:
            for line_a, line_b in zip(a, b, strict=True):
                key, i, row, digest_a, text_a = json.loads(line_a)
                digest_b, text_b = json.loads(line_b)[3:]
                counts.setdefault(key, 0)
                if digest_a != digest_b:
                    counts[key] += 1
                    if len(shown.setdefault(key, [])) < SHOWN:
                        shown[key].append((i, row, text_a[:PREVIEW], text_b[:PREVIEW]))
                    diff = largest_differences(text_a, text_b)
                    if diff is None:
                        uneven[key] = uneven.get(key, 0) + 1
                    else:
                        largest[key] = [max(pair) for pair in zip(largest.get(key, diff), diff)]
    for key, count in counts.items():
        print(f"{key}: {count} differing {'transcripts' if key == CLI else 'rows'}")
        if count:
            absolute, relative = largest.get(key, (0.0, 0.0))
            print(f"  largest numeric difference {absolute:.3g} absolute, {relative:.3g} "
                  f"relative, {uneven.get(key, 0)} with a different count of numbers")
        for i, row, text_a, text_b in shown.get(key, []):
            print(f"  row {i} {row}\n    parent: {text_a}\n    change: {text_b}")
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
