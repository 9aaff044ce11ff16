"""Closed-loop timing, reported at a fixed reference speed of the host.

The benchmark host is a shared 2-vCPU virtual machine.  Its speed drifts
by up to 1.8x over seconds to minutes as other tenants load the
hardware, and its scheduler stalls a thread for about 4 ms a few times
a second.  Two measures keep the numbers about the program:

- An operation's latency is the calling thread's CPU time, which leaves
  out the stalls; its wall time is kept for throughput.
- Every CAL_EVERY_NS the loop times a fixed calibration kernel in CPU
  time, and each operation's times are multiplied by REF_CAL_US over the
  latest calibration.  Every time then reads as it would at the
  reference speed, the speed at which the kernel takes REF_CAL_US.  The
  speed changes within tens of milliseconds, so the latest calibration
  tracks it better than any smoothed or run-wide one: over 12 runs of
  20 s it left 2-5% between run medians, where run-wide scaling left
  5-12% and no scaling 10-26%.
"""

import math
import statistics
import time
from array import array
from typing import NamedTuple

REF_CAL_US = 400.0           # calibration CPU time that defines the reference speed
CAL_EVERY_NS = 20_000_000
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _calibration_work(n=40):
    # A frozen copy of the library's two inner loops as they were when
    # this benchmark was written, Carlson duplication and the AGM
    # amplitude, so the kernel slows down as the library does when the
    # host is busy.  It must never follow later changes to the library.
    acc = 0.0
    for i in range(n):
        x, y, z = sorted((0.0, 0.3 + 0.01 * (i & 7), 1.0))
        mean = mean0 = (x + y + z) / 3.0
        scale = 1.0
        while max(mean0 - x, z - mean0) > 1.1e-2 * scale * mean:
            sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
            lam = sx * (sy + sz) + sy * sz
            x, y, z = (x + lam) / 4.0, (y + lam) / 4.0, (z + lam) / 4.0
            mean = (mean + lam) / 4.0
            scale *= 4.0
        a, b = 1.0, math.sqrt(0.51)
        ratios = []
        for _ in range(32):
            half_sum, c = 0.5 * (a + b), 0.5 * (a - b)
            a, b = half_sum, math.sqrt(a * b)
            ratios.append(c / a)
            if abs(c) <= 1e-16 * a:
                break
        phi = math.ldexp(a * 0.7, len(ratios))
        for r in reversed(ratios):
            phi = 0.5 * (phi + math.asin(min(1.0, max(-1.0, r * math.sin(phi)))))
        acc += phi + mean
    return acc


def calibration_us():
    """CPU time, in us, of one pass of the calibration loop."""
    t0 = time.thread_time_ns()
    _calibration_work()
    return (time.thread_time_ns() - t0) / 1e3


class Loop(NamedTuple):
    outputs: list   # per operation: its result, or the exception it raised
    cpu_us: list    # per operation: thread CPU time at reference speed
    wall_us: list   # per operation: wall time at reference speed
    wall_s: float   # the loop's own wall time, calibrations included, as measured
    speed: float    # median over the loop of REF_CAL_US / calibration time


def run_loop(op, columns, seconds, call=None, first=0, limit=None):
    """Run ``op`` on pool rows first, first+1, ... until ``seconds`` pass or ``limit`` ops.

    ``call(op, row)`` replaces ``op(*row)`` when given.  Rows wrap around
    at the end of the pool.
    """
    n_pool = len(columns[0])
    outputs, cpu, wall = [], array("q"), array("q")
    scale, speeds = [], []
    clock, cpu_clock = time.perf_counter_ns, time.thread_time_ns
    limit = math.inf if limit is None else limit
    start = clock()
    deadline = start + int(seconds * 1e9)
    next_cal = start
    i = 0
    while i < limit:
        if clock() >= next_cal:
            speeds.append(REF_CAL_US / calibration_us())
            next_cal = clock() + CAL_EVERY_NS
        row = tuple(c[(first + i) % n_pool] for c in columns)
        w0 = clock()
        c0 = cpu_clock()
        try:
            out = op(*row) if call is None else call(op, row)
        except Exception as exc:  # a failing operation is a result, not a crash
            out = exc
        c1 = cpu_clock()
        w1 = clock()
        outputs.append(out)
        cpu.append(c1 - c0)
        wall.append(w1 - w0)
        scale.append(speeds[-1] / 1e3)
        i += 1
        if w1 >= deadline:
            break
    return Loop(outputs, [c * f for c, f in zip(cpu, scale)], [w * f for w, f in zip(wall, scale)],
                (clock() - start) / 1e9, statistics.median(speeds))


def latency_stats(values_us, tail_pct=TAIL_LADDER[0]):
    """Median and tail of per-operation times.

    The tail is the nearest-rank ``tail_pct`` percentile, or the next
    lower percentile of TAIL_LADDER while fewer than TAIL_MIN_BEYOND
    samples lie beyond it.
    """
    s = sorted(values_us)
    n = len(s)
    for pct in (p for p in TAIL_LADDER if p <= tail_pct):
        rank = max(1, math.ceil(round(pct / 100.0 * n, 6)))
        if n - rank >= TAIL_MIN_BEYOND:
            break
    return {"p50_us": statistics.median(s), "tail_pct": pct, "tail_us": s[rank - 1],
            "beyond": n - rank, "samples": n}
