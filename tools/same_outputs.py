#!/usr/bin/env python3
"""Check that two epszeta source trees give the same outputs on the benchmark's rows.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold an `epszeta`
package (a checkout's `src`).  Each side runs in its own interpreter
with its directory first on PYTHONPATH, draws its rows from the
workloads of this checkout's `bench/workloads.py` and records, for every
row, the repr of the operation's output or the type and message of the
exception it raised:

- mixed-points: every pool row of seeds 1 and 2;
- curve-export: every pool row of seed 1;
- quadrature-oracle: the first 3000 pool rows of seed 1.

The script prints the number of differing rows per workload and the
first few of them, and exits 1 on any difference, 0 otherwise.  Each
side takes about 20 s on a shared 2-vCPU host.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (workload, seed, rows from the first; None for the whole pool)
ROWS = (("mixed-points", 1, None), ("mixed-points", 2, None),
        ("curve-export", 1, None), ("quadrature-oracle", 1, 3000))
SHOWN = 5        # differing rows printed per workload
PREVIEW = 300    # characters of an output printed for a differing row


def outcome(op, row):
    """The repr of op(*row), or the type and message of what it raised."""
    try:
        return repr(op(*row))
    except Exception as exc:  # a raised error is an output too
        return f"{type(exc).__name__}: {exc}"


def emit(out):
    """Write one JSON line per row: [workload, seed, index, digest, preview]."""
    from workloads import WORKLOADS
    for name, seed, n in ROWS:
        workload = WORKLOADS[name]
        for i, row in enumerate(islice(workload.rows(seed), n or workload.pool)):
            text = outcome(workload.op, row)
            digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
            out.write(json.dumps([name, seed, i, list(row), digest, text[:PREVIEW]]) + "\n")


def run_side(src, path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(Path(src).resolve()), str(BENCH)]))
    with open(path, "w") as out:
        subprocess.run([sys.executable, __file__, "--emit"], env=env, stdout=out, check=True)


def main(argv):
    if argv == ["--emit"]:
        emit(sys.stdout)
        return 0
    if len(argv) != 2 or not all((Path(a) / "epszeta").is_dir() for a in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each argument must be a directory that holds the epszeta package", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / "parent.jsonl", Path(tmp) / "change.jsonl"]
        for src, path in zip(argv, paths):
            run_side(src, path)
        counts, shown = {}, {}
        with open(paths[0]) as a, open(paths[1]) as b:
            for line_a, line_b in zip(a, b, strict=True):
                name, seed, i, row, digest_a, text_a = json.loads(line_a)
                digest_b, text_b = json.loads(line_b)[4:]
                key = f"{name} seed {seed}"
                counts.setdefault(key, 0)
                if digest_a != digest_b:
                    counts[key] += 1
                    if len(shown.setdefault(key, [])) < SHOWN:
                        shown[key].append((i, row, text_a, text_b))
    for key, count in counts.items():
        print(f"{key}: {count} differing rows")
        for i, row, text_a, text_b in shown.get(key, []):
            print(f"  row {i} {row}\n    parent: {text_a}\n    change: {text_b}")
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
