"""fatflats benchmark: one named workload, closed loop, one client.

    python3 perfbench/run.py --workload star-p4-double --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Each run is a fresh process, as each ``fatflats`` CLI call is.
The next query starts only when the previous one returned.  A run repeats
whole passes over the workload's queries while another pass still fits in
``--seconds`` (always at least one), clearing the library's caches before
each pass so that every pass starts cold.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one
untraced pass and then traced passes, and prints the per-layer metrics
derived from their spans.  Every answer is checked.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A readable report with the environment stamp precedes it, and the same
data goes to ``perfbench/out/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
BUILD_REPEATS = 3
CHILD_TIMEOUT_S = 120


def _cap_blas_threads():
    """BLAS threads at most nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(max(1, min(current, nproc)))
    return nproc


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_probe(args, workloads):
    """Child process: import, build and validate the inputs, then report
    the clock at which they were ready and their digest."""
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready,
                      "digest": workloads.digest(wl.encode(inputs))}))
    return 0


def _measure_setup(args):
    """setup_s samples: process start to inputs ready, in fresh processes
    (CLOCK_MONOTONIC is shared between processes)."""
    samples, digests = [], set()
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        reply = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(reply["ready"] - start)
        digests.add(reply["digest"])
    return samples, digests


def _clear_caches():
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("fatflats"):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    gc.collect()


@dataclass
class PassResult:
    wall: float
    latencies: list
    outcomes: list
    failures: dict  # query index -> reason
    run_errors: list
    tracer: object = None


def _run_pass(wl, inputs, queries, reference, tracer=None):
    """One closed-loop pass over every query, starting with cold caches."""
    from workloads import Outcome
    _clear_caches()
    latencies, outcomes, failures = [], [], {}
    start = time.perf_counter()
    for i, query in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        t0 = time.perf_counter()
        try:
            outcome = wl.run(*query)
        except Exception as exc:  # a failing query is counted, not fatal
            outcome = Outcome(answer=None,
                              error=f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if outcome.error:
            failures[i] = outcome.error
    wall = time.perf_counter() - start
    wrong, run_errors = wl.check(inputs, outcomes)
    for i, error in wrong.items():
        failures.setdefault(i, error)
    if reference is not None:
        for i, (o, want) in enumerate(zip(outcomes, reference)):
            if _canonical(o.answer) != _canonical(want):
                failures.setdefault(i, f"answer {o.answer} differs from the "
                                       f"stored reference {want}")
    return PassResult(wall, latencies, outcomes, failures, run_errors, tracer)


def _canonical(answer):
    return json.dumps(answer, sort_keys=True)


def _layer_metrics(spans, wall, answers):
    layers = tracing.layer_totals(spans)
    modp = tracing.modp_details(spans)

    def get(name, key="self_s"):
        return layers.get(name, {}).get(key, 0)

    eliminations = get("linalg.modp", "calls") + get("linalg.qq", "calls")
    out = {
        "linalg.modp.calls": get("linalg.modp", "calls"),
        "linalg.modp.self_s": get("linalg.modp"),
        "linalg.modp.cells": get("linalg.modp", "cells"),
        "linalg.modp.ops": get("linalg.modp", "ops"),
        "linalg.modp.max_call_s": modp["max_call_s"],
        "linalg.modp.confirm_s": modp["confirm_s"],
        "linalg.modp.wall_frac": get("linalg.modp") / wall,
        "linalg.qq.calls": get("linalg.qq", "calls"),
        "linalg.qq.self_s": get("linalg.qq"),
        "linalg.qq.cells": get("linalg.qq", "cells"),
        "interpolation.tables_modp.self_s": get("interpolation.tables_modp"),
        "interpolation.tables_modp.degrees_built":
            get("interpolation.tables_modp", "degrees"),
        "interpolation.block.self_s": get("interpolation.block"),
        "interpolation.block.rows": get("interpolation.block", "rows"),
        "interpolation.tables_qq.self_s": get("interpolation.tables_qq"),
        "interpolation.tables_qq.degrees_built":
            get("interpolation.tables_qq", "degrees"),
        "interpolation.membership_q.self_s":
            get("interpolation.membership_q"),
        "interpolation.membership_p.self_s":
            get("interpolation.membership_p"),
        "interpolation.alpha.calls": get("interpolation.alpha", "calls"),
        "interpolation.alpha.self_s": get("interpolation.alpha"),
        "interpolation.search.degrees_tried":
            modp["primary_calls"] + get("linalg.qq", "calls"),
        "interpolation.search.useful_frac":
            answers["resolved"] / eliminations if eliminations else 0.0,
        "bounds.self_s": get("bounds"),
        "divisors.calls": get("divisors", "calls"),
        "divisors.self_s": get("divisors"),
        "classify.calls": get("classify", "calls"),
        "classify.self_s": get("classify"),
        "serialization.self_s": get("serialization"),
        "serialization.bytes": get("serialization", "bytes"),
    }
    for key in ("escalations", "cap_hits", "prime_replacements"):
        name = f"interpolation.search.{key}"
        out[name] = answers[name]
    return out


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(nproc):
    import numpy
    return {"commit": _git_commit(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": nproc, "cpu": _cpu_model()}


def _load_json(name):
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def _run_passes(args, wl, inputs, queries, reference):
    """Untraced passes (in trace mode: exactly one) and, in trace mode,
    traced passes; repeats while another pass fits in ``--seconds``."""
    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        tracer = None
        if args.trace and untraced:
            tracer = tracing.Tracer()
            tracer.install()
        try:
            result = _run_pass(wl, inputs, queries, reference, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        (untraced if tracer is None else traced).append(result)
        if args.trace and not traced:
            continue
        if time.perf_counter() - t_start + result.wall > args.seconds:
            return untraced, traced


def _traced_metrics(traced, untraced_wall, build_times):
    from workloads import answer_metrics
    per_pass = [_layer_metrics(r.tracer.spans, r.wall,
                               answer_metrics(r.outcomes, len(r.failures)))
                for r in traced]
    layer = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    traced_wall = statistics.median(r.wall for r in traced)
    layer.update({
        "schemes.build_s": statistics.median(build_times),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    return layer


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "fatflats" / "__init__.py").is_file():
        print(f"error: no fatflats sources under {SRC}", file=sys.stderr)
        return 2
    nproc = _cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args, workloads)

    spec = _load_json("spec.json")
    reference = _load_json("reference.json").get(
        f"{args.workload}:{args.seed}")
    setup_samples, digests = _measure_setup(args)
    wl = workloads.WORKLOADS[args.workload]
    build_times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        inputs = wl.build(args.seed)
        build_times.append(time.perf_counter() - t0)
        digests.add(workloads.digest(wl.encode(inputs)))
    run_errors = []
    if len(digests) != 1:
        run_errors.append("the same seed built different inputs")

    untraced, traced = _run_passes(args, wl, inputs, wl.queries(inputs),
                                   reference)
    results = untraced + traced
    failures = {(n, i): e for n, r in enumerate(results)
                for i, e in r.failures.items()}
    for r in results:
        run_errors.extend(e for e in r.run_errors if e not in run_errors)
    answers = workloads.answer_metrics(
        [o for r in results for o in r.outcomes], len(failures))
    latencies = [t for r in untraced for t in r.latencies]
    p90 = tracing.percentile(latencies, 0.9)
    values = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r.wall for r in untraced),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": None if p90 is None else p90 * 1e3,
        "query_samples": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "failed_frac": answers["failed_frac"],
        "witness_q_frac": answers["witness_q_frac"],
    }
    if args.trace:
        values.update(_traced_metrics(traced, values["wall_s"], build_times))

    wanted = "per_layer" if args.trace else "end_to_end"
    shown = {m["name"]: m["unit"] for m in spec["metrics"]
             if m["kind"] == wanted}
    attempted = sum(len(r.outcomes) for r in results)
    correct = not failures and not run_errors
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if traced:
        with open(OUT / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for n, r in enumerate(traced):
                r.tracer.write(fh, n)
    env = _environment(nproc)
    problems = [f"pass {n} query {i}: {e}"
                for (n, i), e in sorted(failures.items())] + run_errors
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": attempted, "failed": len(failures),
              "problems": problems,
              "untraced_pass_walls_s": [r.wall for r in untraced],
              "setup_samples_s": setup_samples, "metrics": values}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    units = {m["name"]: m["unit"] for m in spec["metrics"]}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)}+{len(traced)}")
    print("environment " + json.dumps(env))
    for name, value in values.items():
        print(f"  {name:42s} {value!s:>24} {units.get(name, '')}")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in shown.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
