#!/usr/bin/env python3
"""Measure a change against its parent, end to end and call by call, and print JSON.

    python3 tools/bench_pair.py PARENT CHANGE

PARENT and CHANGE are checkout roots, each holding `bench/run.py`,
`src/epszeta` and `tests/goldens.py`, which the benchmark reads.  The
JSON printed has three parts:

- `end_to_end`: for each workload of CHANGE's BENCHMARK.json, `PAIRS`
  pairs of `bench/run.py --seed SEED --trace 0` runs of its
  `run_seconds`, the parent's and the change's one after the other (the
  order flipped on every other pair), each in its own interpreter.
  Every metric keeps its runs, the median and quartiles of each side,
  and the number of pairs the change wins in the direction
  BENCHMARK.json calls better (ties count for neither), beside `failed`
  and `correct`.
- `micro_us`: both source trees loaded in this one process under
  different package names, and each call below timed for each side in
  turn, `MICRO_ROUNDS` rounds; the median of each side in microseconds
  per call, and the change's ratio to the parent.
- `startup_cpu_ms`: the CPU time (user + system) of a fresh interpreter
  that runs `import epszeta`, with and without `-S -I`, or one
  `epszeta.cli eval`, for each side, beside a bare interpreter that only
  sets the same `sys.path`; `STARTUP_RUNS` rounds, each starting every
  row for the parent and the change one after the other (the order
  flipped on every other round), and the median of each side in
  milliseconds.  `-S` leaves out `site`, whose `.pth` files may import
  modules before epszeta does, and `-I` the environment.

It takes about 40 minutes on a shared 2-vCPU host.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

PAIRS, SEED = 10, 1
MICRO_ROUNDS = 15
STARTUP_RUNS = 21
PATH_CODE = "import sys; sys.path.insert(0, sys.argv[1]); "
# (name, interpreter flags, code after PATH_CODE); the bare rows set the path only
STARTUPS = (
    ("bare", (), "pass"),
    ("import epszeta", (), "import epszeta"),
    ("cli eval --fn zeta --x 0.5 --k 2", (),
     "from epszeta.cli import main; main(['eval', '--fn', 'zeta', '--x', '0.5', '--k', '2'])"),
    ("bare -S -I", ("-S", "-I"), "pass"),
    ("import epszeta -S -I", ("-S", "-I"), "import epszeta"),
)


def bench_run(root, workload, seconds):
    """The result line of one `bench/run.py --trace 0` run of the checkout at root."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


def end_to_end(roots, workloads, better, seconds):
    runs = {w: ([], []) for w in workloads}
    for i in range(PAIRS):
        for w in workloads:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[w][side].append(bench_run(roots[side], w, seconds))
                print(f"pair {i + 1}/{PAIRS} {w} {('parent', 'change')[side]}", file=sys.stderr)
    table = {}
    for w, sides in runs.items():
        row = {"failed": [[r["failed"] for r in s] for s in sides],
               "correct": all(r["correct"] for s in sides for r in s)}
        for name, entry in sides[0][0]["metrics"].items():
            values = [[r["metrics"][name]["value"] for r in s] for s in sides]
            sign = 1 if better[name] == "higher" else -1
            row[name] = {"unit": entry["unit"],
                         "parent": statistics.median(values[0]),
                         "change": statistics.median(values[1]),
                         "parent_quartiles": quartiles(values[0]),
                         "change_quartiles": quartiles(values[1]),
                         "change_wins": sum(sign * (c - p) > 0 for p, c in zip(*values)),
                         "parent_runs": values[0], "change_runs": values[1]}
        table[w] = row
    return table


def load(name, root):
    """The epszeta package of the checkout at root, imported as `name`."""
    pkg = Path(root) / "src" / "epszeta"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def micro_calls(pkg):
    """(name, calls per timing, call) for one loaded package."""
    ez = sys.modules[pkg.__name__ + ".extended"]
    agm = sys.modules[pkg.__name__ + ".jacobi"]._Agm
    rule = ez._rule(ez.Modulus.real(2.0))
    params = pkg.ElasticaParams(0.35)
    # one quadrature node of each regime's integrand, at one t
    nodes = [(m.regime.value, pkg.regime_integrand(m)) for m in (
        pkg.Modulus.real(0.5), pkg.Modulus.real(2.0), pkg.Modulus.imaginary(1.0))]
    return (
        ("Modulus.real(2.0)", 50000, lambda: pkg.Modulus.real(2.0)),
        ("Modulus.imaginary(1.0)", 50000, lambda: pkg.Modulus.imaginary(1.0)),
        ("_Agm(0.5)", 20000, lambda: agm(0.5)),
        ("_LargeReal(2).legendre()", 20000, rule.legendre),
        ("epsilon_any(0.5, real 2)", 10000, lambda: pkg.epsilon_any(0.5, pkg.Modulus.real(2.0))),
        ("zeta_any(0.5, real 2)", 10000, lambda: pkg.zeta_any(0.5, pkg.Modulus.real(2.0))),
        ("ek_ratio(real 2)", 10000, lambda: pkg.ek_ratio(pkg.Modulus.real(2.0))),
        ("k_e_continued(real 1.2)", 10000, lambda: pkg.k_e_continued(pkg.Modulus.real(1.2))),
        ("k_e_continued(real 5)", 10000, lambda: pkg.k_e_continued(pkg.Modulus.real(5.0))),
        ("epsilon_any(0.5, imag 1)", 10000,
         lambda: pkg.epsilon_any(0.5, pkg.Modulus.imaginary(1.0))),
        ("zeta_any(0.5, imag 1)", 10000, lambda: pkg.zeta_any(0.5, pkg.Modulus.imaginary(1.0))),
        *((f"integrand node ({regime})", 100000, lambda f=f: f(0.7)) for regime, f in nodes),
        ("epsilon_by_quadrature(0.5, real 0.5, 1e-11)", 2000,
         lambda: pkg.epsilon_by_quadrature(0.5, pkg.Modulus.real(0.5), 1e-11)),
        ("sample_curve(flexural, 600)", 100,
         lambda: pkg.sample_curve("flexural", params, 0.0, 12.0, 600)),
    )


def micro(roots):
    sides = [micro_calls(load(f"epszeta_{tag}", root))
             for tag, root in zip(("parent", "change"), roots)]
    times = {name: ([], []) for name, _, _ in sides[0]}
    for _ in range(MICRO_ROUNDS):
        for calls in zip(*sides):
            for side, (name, number, call) in enumerate(calls):
                times[name][side].append(timeit.timeit(call, number=number) / number * 1e6)
    table = {}
    for name, (parent, change) in times.items():
        p, c = statistics.median(parent), statistics.median(change)
        table[name] = {"parent": round(p, 3), "change": round(c, 3), "ratio": round(c / p, 3)}
    return table


def child_cpu_ms(root, flags, code):
    """CPU time (user + system) in milliseconds of a fresh interpreter running
    PATH_CODE + code with the `src` of the checkout at root on its path."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, *flags, "-c", PATH_CODE + code, str(Path(root) / "src")],
                   check=True, capture_output=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime) * 1e3


def startup(roots):
    times = {name: ([], []) for name, _, _ in STARTUPS}
    for i in range(STARTUP_RUNS):
        for name, flags, code in STARTUPS:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[name][side].append(child_cpu_ms(roots[side], flags, code))
    return {name: {"parent": round(statistics.median(p), 2),
                   "change": round(statistics.median(c), 2)}
            for name, (p, c) in times.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    roots = [str(Path(r).resolve()) for r in (args.parent, args.change)]
    spec = json.loads((Path(roots[1]) / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "end_to_end": {"command": f"bench/run.py --seed {SEED} --seconds {seconds} --trace 0, "
                                  f"{PAIRS} alternating pairs",
                       **end_to_end(roots, workloads, better, seconds)},
        "micro_us": {"rounds": MICRO_ROUNDS, **micro(roots)},
        "startup_cpu_ms": {"runs": STARTUP_RUNS, **startup(roots)},
    }
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
