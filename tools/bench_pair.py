#!/usr/bin/env python3
"""Measure a change against its parent, end to end and call by call, and print JSON.

    python3 tools/bench_pair.py PARENT CHANGE

PARENT and CHANGE are checkout roots, each holding `bench/run.py`,
`src/epszeta` and `tests/goldens.py`, which the benchmark reads.  The
JSON printed has eight parts:

- `end_to_end`: for each workload of CHANGE's BENCHMARK.json, `PAIRS`
  pairs of `bench/run.py --seed SEED --trace 0` runs of its
  `run_seconds`, the parent's and the change's one after the other (the
  order flipped on every other pair), each in its own interpreter.
  Every metric keeps its runs, the median and quartiles of each side,
  and the number of pairs the change wins in the direction
  BENCHMARK.json calls better (ties count for neither), beside `failed`
  and `correct`.  Before the first run the `__pycache__` directories of
  both checkouts' `src` and `bench` are removed, and every run is made
  with PYTHONDONTWRITEBYTECODE=1, so that `setup_s` is measured as on a
  fresh clone, with `src/epszeta` compiled from source by each child: a
  tree left with bytecode by an earlier run imports about 0.012 s
  faster.  (PYTHONPYCACHEPREFIX would hide the bytecode of the standard
  library and of site-packages too, and slow the bare interpreter that
  `setup_s` is scaled by.)  Every run measures the same `setup_s`, the
  start-up of a fresh interpreter, whatever its workload, so
  `pooled.setup_s` gives it once more over the runs of all workloads,
  each pair of runs kept as a pair: three times the pairs of one
  workload's copy.
- `per_layer`: for each workload, one `bench/run.py --seed SEED --trace 1`
  run of `TRACE_SECONDS` per side, the change's after the parent's: the
  per-layer metrics of each side (call and evaluation counts per op,
  self time per op, the per-regime maximum error), beside `failed` and
  `correct`.
- `counts`: for each side, in its own interpreter, the operations of a
  fixed prefix of the rows of seed SEED (`COUNT_ROWS`) run untimed,
  with counters on `_Agm` builds, the calls of its `phase`, `cos_phase`
  and `phases` (and the x that `phases` descends), the evaluations of
  every rule's `integrand`, split into those of the trapezoidal J (the
  `_half_period` calls) and those of the rest (the `integrate` calls),
  and the `newton_cotes_8` panels, which are the rest's alone.  The trace
  of `per_layer` sees public names only and its runs stop at a time, so
  the same work reads as different counts; these read equal where the
  two sides do the same work.
- `micro_us`: both source trees loaded in this one process under
  different package names, and each call below timed for each side in
  turn, `MICRO_ROUNDS` rounds, the order flipped on every other round;
  the median and quartiles of each side in microseconds per call, the
  change's ratio to the parent as the median of its per-round ratios,
  with their quartiles (a ratio of the two sides' medians would take in
  the host's drift between rounds), and the number of rounds the change
  is faster in.  A row on a held `Modulus` builds it outside the timed
  call.
- `micro_aa_us`: the same for the parent tree loaded twice, under two
  package names, its first load in the place of the parent and its
  second in that of the change.  The code is the same on both sides, so
  the spread of each row's ratio is the noise floor of that row in this
  file: a micro ratio says something only where its quartiles clear
  that spread, which each `micro_us` row states as `clears_aa`, true
  when its ratio quartiles lie wholly above or wholly below those of its
  `micro_aa_us` row.  A micro row supports a claim only where its
  `clears_aa` holds.  The rows of `epsilon`, `zeta` and `complete_k`
  are the only record of what the (x, k) routines cost, as no workload
  calls them.
- `startup_cpu_ms`: the CPU time (user + system) of a fresh interpreter
  that runs `import epszeta`, with and without `-S -I`, or one
  `epszeta.cli eval`, for each side, beside a bare interpreter that only
  sets the same `sys.path`; `STARTUP_RUNS` rounds, each starting every
  row for the parent and the change one after the other (the order
  flipped on every other round).  A bare row gives its own time; every
  other row gives its time less the bare row with the same flags of the
  same round and side, which cancels the host's drift between rounds.
  Each side has the median and quartiles of its rounds, in
  milliseconds.  `-S` leaves out `site`, whose `.pth` files may import
  modules before epszeta does, and `-I` the environment.
- `cli_wall_s`: the wall time in seconds of a fresh interpreter running
  each command of `CLI_COMMANDS` with the checkout's `src` on
  PYTHONPATH: the two 600-sample `elastica` exports of the benchmark's
  shape, `tables`, `check --trials 1000` and the tier-1 suite of the
  checkout; `CLI_ROUNDS` rounds, alternating as above, with the medians,
  quartiles, per-round ratios and `change_wins` of a micro row, beside
  the exit codes seen (an exit 4 of `check`, a failed cross-check, is
  recorded, not raised).  `cli_wall_aa_s` is the same for the parent
  checkout run on both sides, and each `cli_wall_s` row states
  `clears_aa` as a micro row does.

It takes about an hour on a shared 2-vCPU host.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import timeit
from collections import Counter
from itertools import islice
from pathlib import Path

PAIRS, SEED = 10, 1
# (workload, rows) of the `counts` part, the first rows of seed SEED
COUNT_ROWS = (("quadrature-oracle", 3000), ("curve-export", 50), ("mixed-points", 20000))
TRACE_SECONDS = 10
MICRO_ROUNDS = 15
STARTUP_RUNS = 21
PATH_CODE = "import sys; sys.path.insert(0, sys.argv[1]); "
# (name, interpreter flags, code after PATH_CODE); the bare rows set the path only,
# and every other row is reported less the bare row with its flags
STARTUPS = (
    ("bare", (), "pass"),
    ("import epszeta", (), "import epszeta"),
    ("cli eval --fn zeta --x 0.5 --k 2", (),
     "from epszeta.cli import main; main(['eval', '--fn', 'zeta', '--x', '0.5', '--k', '2'])"),
    ("bare -S -I", ("-S", "-I"), "pass"),
    ("import epszeta -S -I", ("-S", "-I"), "import epszeta"),
)
CLI_ROUNDS = 11
EXPORT = ("--u-min", "0", "--u-max", "12", "--samples", "600")
# (name, arguments after the interpreter), run in the checkout's root
CLI_COMMANDS = (
    ("elastica flexural k=0.5", ("-m", "epszeta.cli", "elastica", "--kind", "flexural",
                                 "--k", "0.5", *EXPORT)),
    ("elastica inflexural k=2", ("-m", "epszeta.cli", "elastica", "--kind", "inflexural",
                                 "--k", "2", *EXPORT)),
    ("tables", ("-m", "epszeta.cli", "tables")),
    ("check --trials 1000", ("-m", "epszeta.cli", "check", "--trials", "1000")),
    ("tier-1 pytest", ("-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors")),
)


def bench_run(root, workload, seconds, trace=0):
    """The result line of one `bench/run.py` run of the checkout at root,
    which writes no bytecode."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values):
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


def clear_bytecode(roots):
    """Remove the bytecode caches of each checkout's `src` and `bench`."""
    for root in roots:
        for part in ("src", "bench"):
            for cache in list((Path(root) / part).rglob("__pycache__")):
                shutil.rmtree(cache)


def end_to_end(roots, workloads, better, seconds):
    clear_bytecode(roots)
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
            row[name] = metric_row(entry["unit"], values, better[name])
        table[w] = row
    setup = [[v for w in workloads for v in table[w]["setup_s"][side + "_runs"]]
             for side in ("parent", "change")]
    table["pooled"] = {"setup_s": metric_row("s", setup, better["setup_s"])}
    return table


def metric_row(unit, values, better):
    """The row of one metric from the runs [parent, change] of its pairs."""
    sign = 1 if better == "higher" else -1
    return {"unit": unit,
            "parent": statistics.median(values[0]), "change": statistics.median(values[1]),
            "parent_quartiles": quartiles(values[0]), "change_quartiles": quartiles(values[1]),
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(*values)),
            "parent_runs": values[0], "change_runs": values[1]}


def per_layer(roots, workloads):
    table = {}
    for w in workloads:
        sides = [bench_run(root, w, TRACE_SECONDS, trace=1) for root in roots]
        print(f"traced {w}", file=sys.stderr)
        row = {"failed": [r["failed"] for r in sides], "correct": all(r["correct"] for r in sides)}
        for name, entry in sides[0]["metrics"].items():
            row[name] = {"unit": entry["unit"], "parent": sides[0]["metrics"][name]["value"],
                         "change": sides[1]["metrics"][name]["value"]}
        table[w] = row
    return table


def count_rows(root):
    """Print, as JSON, the counts of the `counts` part (module docstring) for
    the checkout at root; run in an interpreter of its own."""
    for part in ("bench", "src"):
        sys.path.insert(0, str(Path(root) / part))
    from workloads import WORKLOADS
    jacobi, extended, quadrature = (sys.modules["epszeta." + name]
                                    for name in ("jacobi", "extended", "quadrature"))
    tally = Counter()

    def count(owner, attribute, key, sized=False):
        fn = vars(owner)[attribute]

        def counted(*args, **kwargs):
            tally[key] += 1
            if sized:
                tally[key + " x"] += len(args[1])
            return fn(*args, **kwargs)

        setattr(owner, attribute, counted)

    agm = jacobi._Agm
    count(agm, "__init__", "_Agm builds")
    for name in ("phase", "cos_phase"):
        count(agm, name, "_Agm." + name)
    count(agm, "phases", "_Agm.phases", sized=True)
    for rule in vars(extended).values():
        if isinstance(rule, type) and "integrand" in vars(rule):
            count(rule, "integrand", "integrand evals")
    count(quadrature, "newton_cotes_8", "newton_cotes_8 panels")
    count(quadrature, "integrate", "integrate calls")
    half_period = quadrature._half_period

    def trapezoidal(*args):
        # the integrand evaluations made inside one trapezoidal J
        tally["_half_period calls"] += 1
        before = tally["integrand evals"]
        try:
            return half_period(*args)
        finally:
            tally["integrand evals, trapezoidal J"] += tally["integrand evals"] - before

    quadrature._half_period = trapezoidal
    result = {}
    for name, rows in COUNT_ROWS:
        workload = WORKLOADS[name]
        tally.clear()
        for row in islice(workload.rows(SEED), rows):
            try:
                workload.op(*row)
            except Exception:
                tally["raised"] += 1
        if tally["integrand evals"]:
            tally["integrand evals, rest"] = (tally["integrand evals"]
                                              - tally["integrand evals, trapezoidal J"])
        result[name] = dict(sorted(tally.items()))
    print(json.dumps(result))


def counts(roots):
    """The `counts` part: each side's counts and the change less the parent,
    where it differs."""
    code = (f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
            "import bench_pair; bench_pair.count_rows(sys.argv[1])")
    sides = [json.loads(subprocess.run(
        [sys.executable, "-c", code, root], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}).stdout) for root in roots]
    table = {}
    for name, rows in COUNT_ROWS:
        parent, change = (side[name] for side in sides)
        table[name] = {"rows": rows, "parent": parent, "change": change,
                       "change_less_parent": {key: change.get(key, 0) - parent.get(key, 0)
                                              for key in sorted({*parent, *change})
                                              if change.get(key) != parent.get(key)}}
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
    agm = sys.modules[pkg.__name__ + ".jacobi"]._Agm
    panel = sys.modules[pkg.__name__ + ".quadrature"].newton_cotes_8
    params, inflexural = pkg.ElasticaParams(0.35), pkg.ElasticaParams(2.3)
    # one quadrature node of each regime's integrand, at one t
    held = [("real 0.5", pkg.Modulus.real(0.5)), ("real 2", pkg.Modulus.real(2.0)),
            ("imag 1", pkg.Modulus.imaginary(1.0))]
    nodes = [(m.regime.value, pkg.regime_integrand(m)) for _, m in held]
    return (
        ("Modulus.real(0.5)", 50000, lambda: pkg.Modulus.real(0.5)),
        ("Modulus.real(2.0)", 50000, lambda: pkg.Modulus.real(2.0)),
        ("Modulus.imaginary(1.0)", 50000, lambda: pkg.Modulus.imaginary(1.0)),
        ("ElasticaParams(0.35)", 50000, lambda: pkg.ElasticaParams(0.35)),
        ("_Agm(0.5)", 20000, lambda: agm(0.5)),
        # the (x, k) routines, which no workload calls: each call builds the
        # standard Modulus of |k| (epsilon, zeta) or the kernel of k (complete_k)
        ("epsilon(0.5, 0.5)", 10000, lambda: pkg.epsilon(0.5, 0.5)),
        ("zeta(0.5, 0.5)", 10000, lambda: pkg.zeta(0.5, 0.5)),
        ("epsilon(0.5, 1.0)", 20000, lambda: pkg.epsilon(0.5, 1.0)),
        ("complete_k(0.5)", 20000, lambda: pkg.complete_k(0.5)),
        ("epsilon_any(0.5, real 0.5)", 10000,
         lambda: pkg.epsilon_any(0.5, pkg.Modulus.real(0.5))),
        ("zeta_any(0.5, real 0.5)", 10000, lambda: pkg.zeta_any(0.5, pkg.Modulus.real(0.5))),
        ("epsilon_any(0.5, real 2)", 10000, lambda: pkg.epsilon_any(0.5, pkg.Modulus.real(2.0))),
        ("zeta_any(0.5, real 2)", 10000, lambda: pkg.zeta_any(0.5, pkg.Modulus.real(2.0))),
        ("ek_ratio(real 2)", 10000, lambda: pkg.ek_ratio(pkg.Modulus.real(2.0))),
        ("k_e_continued(real 1.2)", 10000, lambda: pkg.k_e_continued(pkg.Modulus.real(1.2))),
        ("k_e_continued(real 5)", 10000, lambda: pkg.k_e_continued(pkg.Modulus.real(5.0))),
        ("epsilon_any(0.5, imag 1)", 10000,
         lambda: pkg.epsilon_any(0.5, pkg.Modulus.imaginary(1.0))),
        ("zeta_any(0.5, imag 1)", 10000, lambda: pkg.zeta_any(0.5, pkg.Modulus.imaginary(1.0))),
        *((f"epsilon_any(0.5, held {name})", 20000, lambda m=m: pkg.epsilon_any(0.5, m))
          for name, m in held),
        *((f"zeta_any(0.5, held {name})", 20000, lambda m=m: pkg.zeta_any(0.5, m))
          for name, m in held),
        *((f"ek_ratio(held {name})", 50000, lambda m=m: pkg.ek_ratio(m)) for name, m in held),
        *((f"integrand node ({regime})", 100000, lambda f=f: f(0.7)) for regime, f in nodes),
        # past K = 1.69 of real 0.5, where the node's descent reduces t by the period
        ("integrand node (standard) outside the primary cell", 100000,
         lambda: nodes[0][1](5.0)),
        ("newton_cotes_8 panel (standard)", 20000, lambda: panel(nodes[0][1], 0.0, 0.5)),
        ("epsilon_by_quadrature(0.5, real 0.5, 1e-11)", 2000,
         lambda: pkg.epsilon_by_quadrature(0.5, pkg.Modulus.real(0.5), 1e-11)),
        ("epsilon_by_quadrature(0.5, real 2.5, 1e-11)", 1000,
         lambda: pkg.epsilon_by_quadrature(0.5, pkg.Modulus.real(2.5), 1e-11)),
        ("epsilon_by_quadrature(0.5, imag 1.5, 1e-11)", 2000,
         lambda: pkg.epsilon_by_quadrature(0.5, pkg.Modulus.imaginary(1.5), 1e-11)),
        # many half periods of the integrand in [0, x]
        ("epsilon_by_quadrature(3.0, real 5, 1e-11)", 200,
         lambda: pkg.epsilon_by_quadrature(3.0, pkg.Modulus.real(5.0), 1e-11)),
        ("epsilon_by_quadrature(3.0, imag 3, 1e-11)", 200,
         lambda: pkg.epsilon_by_quadrature(3.0, pkg.Modulus.imaginary(3.0), 1e-11)),
        # one half period and part of the next
        ("epsilon_by_quadrature(2.0, real 0.5, 1e-11)", 1000,
         lambda: pkg.epsilon_by_quadrature(2.0, pkg.Modulus.real(0.5), 1e-11)),
        ("epsilon_by_quadrature(1.2, imag 1.5, 1e-11)", 1000,
         lambda: pkg.epsilon_by_quadrature(1.2, pkg.Modulus.imaginary(1.5), 1e-11)),
        ("sample_curve(flexural, 600)", 100,
         lambda: pkg.sample_curve("flexural", params, 0.0, 12.0, 600)),
        ("sample_curve(inflexural, 600)", 100,
         lambda: pkg.sample_curve("inflexural", inflexural, 0.0, 12.0, 600)),
        ("flexural_point(0.7)", 10000, lambda: pkg.flexural_point(0.7, params)),
    )


def timed_row(parent, change, digits):
    """The row of one timed call or command from the times of its rounds, the
    lower the better: each side's median and quartiles, the median and
    quartiles of the per-round ratios change / parent, and the rounds the
    change is faster in."""
    ratios = [b / a for a, b in zip(parent, change)]
    return {"parent": round(statistics.median(parent), digits),
            "change": round(statistics.median(change), digits),
            "ratio": round(statistics.median(ratios), 3),
            "parent_quartiles": quartiles(parent), "change_quartiles": quartiles(change),
            "ratio_quartiles": quartiles(ratios),
            "change_wins": sum(b < a for a, b in zip(parent, change))}


def mark_aa(rows, aa):
    """Mark each row `clears_aa` where its ratio quartiles lie wholly above or
    wholly below those of its A/A row."""
    for name, row in rows.items():
        low, _, high = row["ratio_quartiles"]
        aa_low, _, aa_high = aa[name]["ratio_quartiles"]
        row["clears_aa"] = high < aa_low or low > aa_high


def micro(roots, tags):
    """The micro rows of the trees at roots, loaded as epszeta_<tag> (module
    docstring); the first root and tag are the parent's side."""
    sides = [micro_calls(load(f"epszeta_{tag}", root)) for tag, root in zip(tags, roots)]
    times = {name: ([], []) for name, _, _ in sides[0]}
    for i in range(MICRO_ROUNDS):
        for calls in zip(*sides):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                name, number, call = calls[side]
                times[name][side].append(timeit.timeit(call, number=number) / number * 1e6)
    return {name: timed_row(parent, change, 3) for name, (parent, change) in times.items()}


def micro_sections(roots):
    """The `micro_us` and `micro_aa_us` parts (module docstring)."""
    rows = micro(roots, ("parent", "change"))
    aa = micro([roots[0], roots[0]], ("parent_a", "parent_b"))
    mark_aa(rows, aa)
    return ({"rounds": MICRO_ROUNDS, **rows},
            {"rounds": MICRO_ROUNDS, "sides": "the parent tree loaded twice", **aa})


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
        bare = {}  # flags -> this round's bare time of each side
        for name, flags, code in STARTUPS:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                ms = child_cpu_ms(roots[side], flags, code)
                if code == "pass":
                    bare[flags, side] = ms
                else:
                    ms -= bare[flags, side]
                times[name][side].append(ms)
    return {name: {"parent": round(statistics.median(p), 2),
                   "change": round(statistics.median(c), 2),
                   "parent_quartiles": quartiles(p), "change_quartiles": quartiles(c)}
            for name, (p, c) in times.items()}


def wall_s(root, args):
    """(wall seconds, exit code) of `python args` in the checkout at root."""
    env = {**os.environ, "PYTHONPATH": str(Path(root) / "src")}
    start = time.perf_counter()
    code = subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True).returncode
    return time.perf_counter() - start, code


def cli_wall(roots):
    times = {name: ([], []) for name, _ in CLI_COMMANDS}
    codes = {name: (set(), set()) for name, _ in CLI_COMMANDS}
    for i in range(CLI_ROUNDS):
        for name, args in CLI_COMMANDS:
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                seconds, code = wall_s(roots[side], args)
                times[name][side].append(seconds)
                codes[name][side].add(code)
    return {name: {**timed_row(p, c, 4), "exit_codes": [sorted(s) for s in codes[name]]}
            for name, (p, c) in times.items()}


def cli_sections(roots):
    """The `cli_wall_s` and `cli_wall_aa_s` parts (module docstring)."""
    rows = cli_wall(roots)
    aa = cli_wall([roots[0], roots[0]])
    mark_aa(rows, aa)
    return ({"rounds": CLI_ROUNDS, **rows},
            {"rounds": CLI_ROUNDS, "sides": "the parent checkout on both sides", **aa})


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
        "per_layer": {"command": f"bench/run.py --seed {SEED} --seconds {TRACE_SECONDS} "
                                 "--trace 1, one run per side",
                      **per_layer(roots, workloads)},
        "counts": {"seed": SEED, **counts(roots)},
    }
    result["micro_us"], result["micro_aa_us"] = micro_sections(roots)
    result["startup_cpu_ms"] = {"runs": STARTUP_RUNS, "less": "the bare row with the same flags",
                                **startup(roots)}
    result["cli_wall_s"], result["cli_wall_aa_s"] = cli_sections(roots)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
