"""Tests of the benchmark itself: inputs, verifier, tracer and result contract.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import epszeta
import reference as ref
import run
import timing
import workloads
from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[2]
ALL = list(workloads.WORKLOADS.values())


def first_rows(workload, seed, n=200):
    return list(islice(workload.rows(seed), n))


@pytest.mark.parametrize("workload", ALL, ids=lambda w: w.name)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert first_rows(workload, 7) == first_rows(workload, 7)
    assert first_rows(workload, 7) != first_rows(workload, 8)


def test_pool_is_a_prefix_of_the_stream():
    w = workloads.WORKLOADS["mixed-points"]
    small = run.draw_pool(w.rows(3), 50, w.typecodes)
    large = run.draw_pool(w.rows(3), 500, w.typecodes)
    assert all(list(a) == list(b[:50]) for a, b in zip(small, large))


def test_failure_count_does_not_depend_on_how_far_the_loop_got():
    w = workloads.WORKLOADS["mixed-points"]
    columns = run.draw_pool(w.rows(1), 600, w.typecodes)
    counts = set()
    for n_loop in (0, 250, 600, 1500):
        loop = timing.run_loop(w.op, columns, 60.0, limit=n_loop) if n_loop else None
        outputs = loop.outputs if loop else []
        firsts = run.first_outputs(w, columns, outputs)
        assert len(firsts) == 600
        assert run.changed_rows(firsts, outputs) == set()
        failed, _, _ = run.check_pool(w, columns, firsts)
        counts.add(failed)
    assert len(counts) == 1 and counts.pop() > 0  # the edge rows' known defects show


def test_a_repeat_with_another_output_fails_its_row_and_the_run():
    w = workloads.WORKLOADS["quadrature-oracle"]
    columns = run.draw_pool(w.rows(2), 6, w.typecodes)
    firsts = run.first_outputs(w, columns, [])
    value, quad = firsts[1]
    repeats = firsts + [firsts[0], (value * (1 + 1e-15), quad)]
    changed = run.changed_rows(firsts, repeats)
    assert changed == {1}
    failed, required_failed, detail = run.check_pool(w, columns, firsts, changed)
    assert failed >= 1 and required_failed >= 1
    assert any("output changed on a repeat" in key for key in detail["failures"])


def test_mixed_points_draws_every_regime_and_edge_class():
    w = workloads.WORKLOADS["mixed-points"]
    rows = first_rows(w, 1, 5000)
    regimes = [r[1] for r in rows]
    assert all(0.25 < regimes.count(g) / len(rows) < 0.42 for g in range(3))
    assert {r[2] for r in rows} == set(range(len(w.TAGS)))
    assert 0.07 < sum(r[2] != 0 for r in rows) / len(rows) < 0.13
    for fn, regime, tag, k, x in rows:
        assert not (1.0 < k < 1.0 + 1e-12)  # the library rejects this sliver by design


def namespace_snapshot():
    """Identity of every attribute the tracer may patch: module globals and class dicts."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "epszeta" or name.startswith("epszeta."):
            for attr, obj in vars(module).items():
                snap[(name, attr)] = obj
                if isinstance(obj, type):
                    for cattr, cobj in vars(obj).items():
                        snap[(name, attr, cattr)] = cobj
    return snap


def test_tracer_patches_lookup_sites_and_restores_them():
    before = namespace_snapshot()
    with Tracer():
        assert epszeta.jacobi.rf is not before[("epszeta.jacobi", "rf")]
        assert epszeta.epsilon_zeta.amplitude is not before[("epszeta.epsilon_zeta", "amplitude")]
        assert epszeta.quadrature.newton_cotes_8 is not before[
            ("epszeta.quadrature", "newton_cotes_8")]
        assert epszeta.quadrature.regime_integrand is not before[
            ("epszeta.quadrature", "regime_integrand")]
        assert epszeta.epsilon_any is not before[("epszeta", "epsilon_any")]
        # the same function is wrapped once, whichever namespace it is looked up in
        assert epszeta.jacobi.rf is epszeta.carlson.rf is epszeta.rf
    after = namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_an_exception():
    before = namespace_snapshot()
    with pytest.raises(epszeta.DomainError):
        with Tracer():
            epszeta.complete_k(2.0)
    after = namespace_snapshot()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", ALL, ids=lambda w: w.name)
def test_self_time_is_within_total_time(workload):
    tracer = Tracer()
    rows = first_rows(workload, 5, 2 if workload.name == "curve-export" else 30)
    with tracer:
        for row in rows:
            try:
                tracer.run(workload.op, row)
            except Exception:
                pass
    assert tracer.ops == len(rows)
    assert tracer.total_ns > 0
    for layer, ns in tracer.self_ns.items():
        assert 0 <= ns <= tracer.total_ns, layer
    assert sum(tracer.self_ns.values()) == tracer.total_ns
    assert set(tracer.self_ns) <= set(LAYERS) | {"harness"}


def test_traced_quadrature_counts_panels_and_integrand_evaluations():
    tracer = Tracer()
    with tracer:
        tracer.run(workloads.QuadratureOracle.op, (0, 0.5, 0.5))
    panels = tracer.calls["quadrature.newton_cotes_8"]
    assert panels >= 3
    assert tracer.integrand_evals == 9 * panels


def test_traced_outputs_equal_untraced_outputs():
    w = workloads.WORKLOADS["mixed-points"]
    rows = first_rows(w, 2, 100)
    plain = [w.op(*r) for r in rows if r[2] == 0]
    tracer = Tracer()
    with tracer:
        traced = [tracer.run(w.op, r) for r in rows if r[2] == 0]
    assert all(run.same_output(a, b) for a, b in zip(plain, traced))


@pytest.mark.parametrize("name, regime, k, x, fn", [
    ("EPS_05_05", ref.STANDARD, 0.5, 0.5, "epsilon"),
    ("ZETA_17_06", ref.STANDARD, 0.6, 1.7, "zeta"),
    ("EPS_05_2", ref.LARGE_REAL, 2.0, 0.5, "epsilon"),
    ("ZETA_05_2", ref.LARGE_REAL, 2.0, 0.5, "zeta"),
    ("EPS_05_I20", ref.PURE_IMAGINARY, 2.0, 0.5, "epsilon"),
    ("ZETA_05_I05", ref.PURE_IMAGINARY, 0.5, 0.5, "zeta"),
])
def test_references_reproduce_the_goldens(name, regime, k, x, fn):
    goldens = ref.load_goldens(ROOT / "tests" / "goldens.py")
    got = (ref.epsilon_ref if fn == "epsilon" else ref.zeta_ref)(x, regime, k)
    golden = getattr(goldens, name)
    assert ref.rel_err(got, golden) <= 1e-15


def test_elastica_reference_reproduces_the_golden():
    goldens = ref.load_goldens(ROOT / "tests" / "goldens.py")
    x, y = ref.elastica_ref("flexural", 0.5, 0.7)
    assert x == pytest.approx(goldens.ELASTICA_X_07, rel=1e-15)
    assert y == pytest.approx(goldens.ELASTICA_Y_07, rel=1e-15)


def test_verifier_flags_a_wrong_value():
    w = workloads.WORKLOADS["mixed-points"]
    row = (workloads.ZETA, ref.LARGE_REAL, 0, 2.5, 1.25)
    good = w.op(*row)
    assert w.verify(row, good)[0] == []
    assert w.verify(row, good * (1 + 1e-10))[0] == ["accuracy"]
    assert w.verify(row, good * (1 + 1e-6))[0] == ["gross error"]
    assert w.check(row, complex(math.nan, 0.0)) == "non-finite"
    assert w.check(row, epszeta.DomainError("x")) == "raised DomainError"
    assert w.required(row, "gross error") and not w.required(row, "accuracy")
    edge = (workloads.ZETA, ref.LARGE_REAL, 4, 2.5e6, 1.25)
    assert not w.required(edge, "gross error")


def test_oracle_verifier_flags_a_gap_and_a_wrong_value():
    w = workloads.WORKLOADS["quadrature-oracle"]
    row = (ref.STANDARD, 0.5, 0.5)
    value, quad = w.op(*row)
    assert w.check(row, (value, quad)) is None
    assert w.verify(row, (value, quad))[0] == []
    assert w.check(row, (value, quad + 1e-8)) == "oracle gap"
    assert "gross error" in w.verify(row, (value + 1e-6, quad))[0]
    assert not w.required(row, "oracle gap") and w.required(row, "gross error")


def test_curve_verifier_flags_a_wrong_point():
    w = workloads.WORKLOADS["curve-export"]
    row = (0.4, 2.5)
    out = w.op(*row)
    assert w.check(row, out) is None
    assert w.verify(row, out)[0] == []
    lines = out[0][1].split("\n")
    u, x, y = lines[1 + 60].split(",")
    lines[1 + 60] = f"{u},{float(x) * (1 + 1e-9)!r},{y}"
    bad = ((0, "\n".join(lines)), out[1])
    assert w.check(row, bad) is None  # still well-formed
    assert w.verify(row, bad)[0] == ["accuracy"]
    assert w.check(row, ((0, "u,x,y\n1,2,3\n"), out[1])) == "malformed csv"


@pytest.mark.parametrize("n, pct", [(15, 50.0), (100, 90.0), (1000, 99.0),
                                    (10_000, 99.9), (100_000, 99.99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    stats = timing.latency_stats([float(i) for i in range(n, 0, -1)])
    assert stats["tail_pct"] == pct
    assert stats["beyond"] >= timing.TAIL_MIN_BEYOND or pct == 50.0
    assert stats["tail_us"] == n - stats["beyond"] == round(pct / 100 * n)


def test_loop_scales_times_by_the_calibration():
    w = workloads.WORKLOADS["mixed-points"]
    columns = run.draw_pool(w.rows(4), 300, w.typecodes)
    loop = timing.run_loop(w.op, columns, 60.0, limit=300)
    assert len(loop.outputs) == len(loop.cpu_us) == len(loop.wall_us) == 300
    assert all(c > 0 and w_ > 0 for c, w_ in zip(loop.cpu_us, loop.wall_us))
    assert loop.speed > 0


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "mixed-points",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
