"""Tests of the benchmark itself: span arithmetic, the percentile rule,
seed determinism, and agreement of BENCHMARK.json with spec.json.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_times_on_nested_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("leaf", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 6.0, 7.5, 3),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.5]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"calls": 2, "self_s": 3.5}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_tracer_records_nesting_and_restores_entry_points():
    from fatflats import bounds, interpolation
    from fatflats.schemes import build_theorem_b_family
    scheme = build_theorem_b_family("a", {"r": 1, "s": 1}).to_scheme()
    originals = (bounds.upper_bounds, bounds.alpha_symbolic,
                 interpolation.alpha_symbolic,
                 interpolation.AdaptedTablesModP.block)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bounds.upper_bounds(scheme, 2)
    finally:
        tracer.uninstall()
    assert originals == (bounds.upper_bounds, bounds.alpha_symbolic,
                         interpolation.alpha_symbolic,
                         interpolation.AdaptedTablesModP.block)
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "bounds" and names.count("interpolation.alpha") == 2
    for s in tracer.spans[1:]:
        parent = tracer.spans[s[tracing.PARENT]]
        assert parent[tracing.START] <= s[tracing.START] <= s[tracing.END] \
            <= parent[tracing.END]
    assert min(tracing.self_times(tracer.spans)) >= 0


def test_percentile_needs_ten_samples_beyond():
    assert tracing.percentile(list(range(99)), 0.9) is None
    assert tracing.percentile(list(range(100)), 0.9) == 89
    assert tracing.percentile([5.0], 0.9) is None
    assert tracing.percentile(list(range(21)), 0.5) == 10


def _probe_digest(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])["digest"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_gives_byte_identical_inputs(workload):
    wl = workloads.WORKLOADS[workload]
    text = wl.encode(wl.build(3))
    assert text == wl.encode(wl.build(3))
    assert _probe_digest(workload, 3) == workloads.digest(text)
    assert wl.encode(wl.build(4)) != text


def test_benchmark_json_matches_spec():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    for kind in ("end_to_end", "per_layer"):
        want = [m for m in spec["metrics"] if m["kind"] == kind]
        assert [m["name"] for m in bench[kind]] == [m["name"] for m in want]
        for b, s in zip(bench[kind], want):
            assert (b["unit"], b["better"]) == (s["unit"], s["better"])
            assert b.get("bound") == s.get("bound")
