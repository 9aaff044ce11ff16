#!/usr/bin/env python3
"""Run one benchmark workload against the epszeta sources of this checkout.

    python3 bench/run.py --workload mixed-points --seed 1 --seconds 30 --trace 0

One caller in one thread runs a closed loop: each operation starts when
the previous one has returned.  Before the clock starts the run draws a
fixed pool of distinct input rows from --seed (Workload.pool); the loop
runs them in order and starts again from the first when it reaches the
end.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced stretches over the same
inputs (see spans.py) and prints the per-layer metrics.  Either way every
pool row is checked once (see workloads.py), rows the loop did not reach
are run untimed first, and every repeat must reproduce the row's first
output.  So ``attempted`` is the pool size and ``failed`` the number of
failing rows, the same for the same seed however fast the host is.  One
JSON line of details is printed, and the last line of standard output
is the result:

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

Times are reported at the reference speed defined in timing.py.  The
run exits with code 2, printing no result, when the checkout has no
epszeta sources.  See README.md in this directory for the metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from array import array
from itertools import islice
from pathlib import Path

from timing import latency_stats, run_loop

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDENS = ROOT / "tests" / "goldens.py"

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "ok_share": "share",
    "mem_peak_kib": "KiB",
}
PER_LAYER = {
    "carlson.calls_per_op": "count",
    "carlson.self_us_per_op": "us",
    "jacobi.complete_calls_per_op": "count",
    "jacobi.amplitude_calls_per_op": "count",
    "jacobi.self_us_per_op": "us",
    "epsilon_zeta.calls_per_op": "count",
    "epsilon_zeta.self_us_per_op": "us",
    "extended.self_us_per_op": "us",
    "quadrature.integrand_evals_per_op": "count",
    "quadrature.panels_per_op": "count",
    "quadrature.self_us_per_op": "us",
    "elastica.self_us_per_op": "us",
    "cli.self_us_per_op": "us",
    "harness.self_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "accuracy.max_rel_err.standard": "rel",
    "accuracy.max_rel_err.large_real": "rel",
    "accuracy.max_rel_err.pure_imaginary": "rel",
}

WARMUP_S = 1.0          # untimed calls on a separate stream before the clock starts
SETUP_RUNS = 11         # pairs of fresh interpreters timed for setup_s, after one untimed pair
REF_BARE_S = 0.060      # start-up CPU time of a bare interpreter at the reference speed
TRACE_CHUNK_S = 0.5     # untraced stretch; the traced one repeats its inputs
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from epszeta import Modulus, zeta_any; "
              "print(repr(zeta_any(0.5, Modulus.real(2.0))))")
BARE_CODE = "import sys; sys.path.insert(0, sys.argv[1]); print(repr(0.5))"


def draw_pool(rows, n, typecodes):
    """The first n rows of a stream, stored column-wise."""
    columns = [array(tc) for tc in typecodes]
    for row in islice(rows, n):
        for column, value in zip(columns, row):
            column.append(value)
    return columns


def child_cpu_s(code):
    """CPU time (user + system) of a fresh interpreter running ``code``, and its output."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return cpu, (done.returncode, done.stdout.strip())


def measure_setup():
    """Start-up time, at reference speed, of a fresh interpreter that imports
    epszeta and prints one zeta_any value; and the set of its outputs.

    Each start is paired with a bare interpreter started right after it;
    the median ratio of their CPU times, times REF_BARE_S, is the time
    the start would take on a host where the bare one takes REF_BARE_S.
    """
    ratios, outputs = [], set()
    for i in range(SETUP_RUNS + 1):
        cpu, output = child_cpu_s(SETUP_CODE)
        bare, _ = child_cpu_s(BARE_CODE)
        if i:
            ratios.append(cpu / bare)
        outputs.add(output)
    return REF_BARE_S * statistics.median(ratios), outputs


def memory_peak(workload, columns):
    """tracemalloc peak, in KiB, over the first operations of ``columns`` (untimed)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for row in islice(zip(*columns), workload.mem_ops):
            try:
                workload.op(*row)
            except Exception:  # failures are counted on the pool
                pass
        return (tracemalloc.get_traced_memory()[1] - base) / 1024.0
    finally:
        tracemalloc.stop()


def same_output(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a is b or repr(a) == repr(b)


def first_outputs(workload, columns, outputs):
    """The first output of every pool row: the loop's, then, untimed, the rows it missed."""
    n_pool = len(columns[0])
    firsts = list(outputs[:n_pool])
    for i in range(len(firsts), n_pool):
        try:
            firsts.append(workload.op(*(c[i] for c in columns)))
        except Exception as exc:  # a failing operation is a result, not a crash
            firsts.append(exc)
    return firsts


def changed_rows(firsts, outputs):
    """Pool rows whose output in ``outputs``, a loop from row 0 that wraps, differs from the first."""
    n_pool = len(firsts)
    return {i % n_pool for i, out in enumerate(outputs)
            if not same_output(out, firsts[i % n_pool])}


def check_pool(workload, columns, firsts, changed=frozenset()):
    """Cheap checks on every row's first output, mpmath checks on the first ``n_check``.

    A row in ``changed`` gave another output on a repeat: it fails and
    makes the run incorrect.  Returns (failed rows, failed rows that make
    the run incorrect, details).
    """
    failed = required_failed = checked = 0
    reasons, worst = {}, {"rel_err": 0.0}
    for i, out in enumerate(firsts):
        row = tuple(c[i] for c in columns)
        found = set()
        reason = workload.check(row, out)
        if reason:
            found.add(reason)
        if i < workload.n_check:
            bad, err = workload.verify(row, out)
            found.update(bad)
            checked += 1
            if err > worst["rel_err"]:
                worst = {"rel_err": err, "op": i, "row": list(row)}
        if i in changed:
            found.add("output changed on a repeat")
        if found:
            failed += 1
            required_failed += i in changed or any(workload.required(row, r) for r in found)
            for r in found:
                key = f"{workload.label(row)}: {r}"
                reasons[key] = reasons.get(key, 0) + 1
    return failed, required_failed, {"failures": reasons, "mpmath_checked": checked,
                                     "mpmath_worst": worst, "required_failed": required_failed}


def end_to_end(workload, columns, seconds, mem_columns):
    import epszeta

    setup_s, setup_outputs = measure_setup()
    mem_kib = memory_peak(workload, mem_columns)
    loop = run_loop(workload.op, columns, seconds)
    firsts = first_outputs(workload, columns, loop.outputs)
    changed = changed_rows(firsts, loop.outputs)
    failed, required_failed, detail = check_pool(workload, columns, firsts, changed)
    expected = (0, repr(epszeta.zeta_any(0.5, epszeta.Modulus.real(2.0))))
    stats = latency_stats(loop.cpu_us, workload.tail_pct)
    attempted = len(firsts)
    timed = len(loop.outputs)
    metrics = {
        "setup_s": setup_s,
        "throughput_ops_s": timed / (sum(loop.wall_us) / 1e6),
        "op_p50_us": stats["p50_us"],
        "op_tail_us": stats["tail_us"],
        "ok_share": (attempted - failed) / attempted,
        "mem_peak_kib": mem_kib,
    }
    detail.update(latency=stats, fail_share={"failed": failed, "attempted": attempted,
                                             "value": failed / attempted},
                  timed_ops=timed, untimed_ops=len(firsts) - min(timed, len(firsts)),
                  loop_wall_s=loop.wall_s, speed=loop.speed,
                  setup_outputs=sorted(setup_outputs))
    correct = required_failed == 0 and setup_outputs == {expected}
    return correct, attempted, failed, metrics, END_TO_END, detail


def per_layer(workload, columns, seconds):
    import epszeta
    from reference import golden_max_rel_err, load_goldens
    from spans import LAYERS, Tracer

    tracer = Tracer()
    outputs, traced, speeds = [], [], []
    untraced_us = traced_us = 0.0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        plain = run_loop(workload.op, columns, TRACE_CHUNK_S, first=len(outputs))
        with tracer:
            wrapped = run_loop(workload.op, columns, seconds, call=tracer.run,
                               first=len(outputs), limit=len(plain.outputs))
        outputs += plain.outputs
        traced += wrapped.outputs
        untraced_us += sum(plain.wall_us)
        traced_us += sum(wrapped.wall_us)
        speeds.append(wrapped.speed)
    firsts = first_outputs(workload, columns, outputs)
    changed = changed_rows(firsts, outputs) | changed_rows(firsts, traced)
    failed, required_failed, detail = check_pool(workload, columns, firsts, changed)
    trace_changed = sum(not same_output(a, b) for a, b in zip(outputs, traced))
    ops = tracer.ops
    calls = tracer.calls
    metrics = {
        "carlson.calls_per_op": sum(v for k, v in calls.items() if k.startswith("carlson.")) / ops,
        "jacobi.complete_calls_per_op": (calls["jacobi.complete_k"]
                                         + calls["jacobi.complete_e"]) / ops,
        "jacobi.amplitude_calls_per_op": calls["jacobi.amplitude"] / ops,
        "epsilon_zeta.calls_per_op": sum(v for k, v in calls.items()
                                         if k.startswith("epsilon_zeta.")) / ops,
        "quadrature.integrand_evals_per_op": tracer.integrand_evals / ops,
        "quadrature.panels_per_op": calls["quadrature.newton_cotes_8"] / ops,
        "trace.overhead_ratio": traced_us / untraced_us,
    }
    speed = statistics.median(speeds)
    for layer in LAYERS + ("harness",):
        metrics[f"{layer}.self_us_per_op"] = tracer.self_ns[layer] * speed / ops / 1e3
    for regime, err in golden_max_rel_err(load_goldens(GOLDENS), epszeta).items():
        metrics[f"accuracy.max_rel_err.{regime}"] = err
    detail.update(traced_ops=ops, untraced_ops=len(outputs), trace_changed_outputs=trace_changed,
                  speed=speed, calls_per_op={k: v / ops for k, v in sorted(calls.items())})
    correct = required_failed == 0 and trace_changed == 0
    return correct, len(firsts), failed, metrics, PER_LAYER, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "epszeta" / "__init__.py").is_file() or not GOLDENS.is_file():
        print(f"bench: {ROOT} holds no epszeta checkout (src/epszeta, tests/goldens.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    run_loop(workload.op, draw_pool(workload.rows(f"warmup-{args.seed}"), 4096,
                                    workload.typecodes), WARMUP_S)
    columns = draw_pool(workload.rows(args.seed), workload.pool, workload.typecodes)
    if args.trace:
        result = per_layer(workload, columns, args.seconds)
    else:
        # memory is measured on rows outside the pool, so a cache it fills stays cold for the loop
        mem_columns = draw_pool(workload.rows(f"memory-{args.seed}"), workload.mem_ops,
                                workload.typecodes)
        result = end_to_end(workload, columns, args.seconds, mem_columns)
    correct, attempted, failed, metrics, units, detail = result
    detail.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  pool=workload.pool, python=sys.version.split()[0])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
