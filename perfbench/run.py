#!/usr/bin/env python3
"""Run one benchmark workload against the cstardyn sources of this checkout.

    python3 perfbench/run.py --workload pd_survey --seed 1 --seconds 25 --trace 0

One client issues the workload's requests in a closed loop: the next request
goes out when the previous one has returned and been checked.  Whole passes
over the request list run until ``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics, measured with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics: self time and call count per layer and per named function, counts
computed from the input sizes, the tracing overhead, and the error rate.  It
also fails the run when tracing changes any request's stdout.

Every metric is printed as ``name = value unit``; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the run environment (and the spans, when traced), goes
to ``perfbench/out/``.  BLAS and OpenMP are pinned to one thread in this
process.  Exit code 2, with no result line, when the checkout has no
``src/cstardyn`` package.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import LAYERS, ROOT_LAYER, Tracer, installed, summarize

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 3
TAIL_BEYOND = 10
SELF_SUM_SLACK_S = 1e-6

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
FUNCTIONS = (
    "crossed.build_reduced",
    "crossed.is_completely_positive",
    "crossed.verify_covariant",
    "multiplier.pd_sample_oracle",
    "multiplier.is_positive_definite",
    "multiplier.coefficient",
    "multiplier.span_dimension",
    "multiplier.trace_image_sample",
    "equivrep.verify_equivariant",
    "equivrep.gns_from_pd",
    "equivrep.fell_absorption_unitary",
    "cocycle.verify_cocycle",
    "serialize.system_from_json",
)
# computed from the request list and the reports, not measured by spans
COMPUTED = {
    "crossed.cp_dim_max": "count",
    "crossed.cp_bytes_max": "B",
    "crossed.build_reduced.reuse_ratio": "ratio",
    "multiplier.pd_sample_oracle.trials": "count",
    "multiplier.pd_sample_oracle.violation_ratio": "ratio",
    "core.group_order_max": "count",
    "core.assoc_bytes_max": "B",
    "serialize.payload_bytes": "B",
}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in LAYERS + FUNCTIONS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **COMPUTED,
    "trace.overhead_s": "s",
    "error_rate": "ratio",
}


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_package() -> float:
    """Import cstardyn from this checkout's ``src``; return the seconds taken."""
    src = ROOT / "src"
    if not (src / "cstardyn" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cstardyn package under {src}")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import cstardyn
    import cstardyn.generators  # noqa: F401  (used by the input generation)

    took = perf_counter() - start
    if Path(cstardyn.__file__).resolve().parent != src / "cstardyn":
        raise ImportError(f"cstardyn was imported from {cstardyn.__file__}, not {src}")
    return took


@dataclass
class Outcome:
    wall: float
    digest: str
    facts: dict
    error: str | None


def execute(request, tracer=None) -> Outcome:
    """Run one request with stdout and stderr captured, then check it.  A
    request that raises or fails its check is a failed request."""
    out, err = io.StringIO(), io.StringIO()
    result, error, facts = None, None, {}
    start = perf_counter()
    if tracer is not None:
        tracer.begin(f"{ROOT_LAYER}.{request.kind}", ROOT_LAYER)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            result = request.call()
    except (Exception, SystemExit) as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end()
    wall = perf_counter() - start
    stdout = out.getvalue()
    if error is None:
        try:
            facts = request.check(result, stdout, request.expect) or {}
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(wall, hashlib.sha256(stdout.encode()).hexdigest(), facts, error)


def run_pass(requests, tracer=None) -> tuple[list[Outcome], float]:
    start = perf_counter()
    outcomes = [execute(r, tracer) for r in requests]
    return outcomes, perf_counter() - start


def tail(latencies: list[float]) -> tuple[float, float]:
    """The value at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile; the maximum when there are too few."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_BEYOND - 1
    if idx < 0:
        return ordered[-1], 100.0
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def blas_threads(numpy) -> int | None:
    """Thread count reported by the OpenBLAS that numpy bundles, if any."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def set_up(build, name: str, seed: int) -> tuple[object, list[float], list[Outcome], bool]:
    """Generate the inputs and run the warm-up requests, SETUP_REPEATS times;
    the repeats must produce identical inputs."""
    times, outcomes, digests = [], [], set()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        workload = build(name, seed)
        outcomes += [execute(r) for r in workload.warmup]
        times.append(perf_counter() - start)
        digests.add(workload.digest())
    return workload, times, outcomes, len(digests) == 1


def mark_changed(outcomes: list[Outcome], reference: list[Outcome], why: str) -> None:
    for o, ref in zip(outcomes, reference):
        if o.error is None and o.digest != ref.digest:
            o.error = why


def end_to_end(requests, seconds: float) -> tuple[dict, list[list[Outcome]], dict]:
    passes, walls, start = [], [], perf_counter()
    while True:
        outcomes, wall = run_pass(requests)
        if passes:
            mark_changed(outcomes, passes[0], "stdout differs from the first pass")
        passes.append(outcomes)
        walls.append(wall)
        if perf_counter() - start >= seconds:
            break
    loop_s = perf_counter() - start
    # per-request medians over the passes: the sample count is the number of
    # requests whatever the number of passes, so percentiles stay comparable
    latencies = [statistics.median(p[i].wall for p in passes) for i in range(len(requests))]
    tail_s, tail_pct = tail(latencies)
    # the median pass, so that a burst of load from elsewhere on the machine
    # during one pass does not set the figure
    rates = [sum(o.error is None for o in p) / wall for p, wall in zip(passes, walls)]
    metrics = {
        "throughput_rps": statistics.median(rates),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
    }
    detail = {
        "pass_walls_s": walls,
        "loop_s": loop_s,
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail_pct,
        "request_walls_s": {r.label: [p[i].wall for p in passes] for i, r in enumerate(requests)},
    }
    return metrics, passes, detail


def computed_counts(requests, outcomes: list[Outcome]) -> dict:
    pd = [(r, o) for r, o in zip(requests, outcomes) if r.kind == "pd"]
    order = max((r.group_order for r in requests), default=0)
    cp_dim = max((r.cp_dim for r in requests), default=0)
    return {
        "crossed.cp_dim_max": cp_dim,
        "crossed.cp_bytes_max": cp_dim * cp_dim * 16,
        "crossed.build_reduced.reuse_ratio": 1 - len({r.system_key for r, _ in pd}) / len(pd) if pd else 0.0,
        "multiplier.pd_sample_oracle.trials": sum(r.trials for r, _ in pd),
        "multiplier.pd_sample_oracle.violation_ratio": (
            sum(bool(o.facts.get("oracle_violation")) for _, o in pd) / len(pd) if pd else 0.0
        ),
        "core.group_order_max": order,
        "core.assoc_bytes_max": 2 * order**3 * 8,
        "serialize.payload_bytes": sum(r.payload_bytes for r in requests),
    }


def per_layer(requests, seconds: float) -> tuple[dict, list[list[Outcome]], dict]:
    tracer = Tracer()
    passes, summaries, span_log, walls = [], [], [], {"untraced": [], "traced": []}
    gap = 0.0
    start = perf_counter()
    while True:
        # alternate which half of the pair runs first, so that drift in the
        # machine's speed does not land on one side
        if len(summaries) % 2 == 0:
            plain, plain_s = run_pass(requests)
        with installed(tracer):
            traced, traced_s = run_pass(requests, tracer)
        if len(summaries) % 2 == 1:
            plain, plain_s = run_pass(requests)
        spans = tracer.take()
        summary = summarize(spans)
        gap = max(gap, summary["self_sum_gap_s"])
        mark_changed(traced, plain, "stdout differs with tracing on")
        passes += [plain, traced]
        summaries.append(summary)
        span_log.append(spans)
        walls["untraced"].append(plain_s)
        walls["traced"].append(traced_s)
        if perf_counter() - start >= seconds:
            break

    def median_of(table: str, key: str, slot: int) -> float:
        return statistics.median(s[table].get(key, (0.0, 0))[slot] for s in summaries)

    metrics = {}
    for table, names in (("layers", LAYERS), ("names", FUNCTIONS)):
        for name in names:
            metrics[f"{name}.self_s"] = median_of(table, name, 0)
            metrics[f"{name}.calls"] = int(median_of(table, name, 1))
    metrics.update(computed_counts(requests, passes[0]))
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
    detail = {
        "pass_walls_s": walls,
        "request_self_s": median_of("layers", ROOT_LAYER, 0),
        "self_sum_gap_s": gap,
        "computed": sorted(COMPUTED),
        "spans": {"fields": ["name", "layer", "start", "end", "parent"], "passes": span_log},
    }
    return metrics, passes, detail


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float, build=None) -> tuple[dict, dict]:
    """One benchmark run; returns the result line and the full record.
    ``build`` replaces the workload builder (the smoke test shrinks inputs)."""
    import workloads

    build = build or (lambda n, s: workloads.BUILDERS[n](s))
    workload, setup_times, warm, same_inputs = set_up(build, name, seed)
    if trace:
        metrics, passes, detail = per_layer(workload.requests, seconds)
    else:
        metrics, passes, detail = end_to_end(workload.requests, seconds)
        metrics["setup_s"] = import_s + statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    everything = warm + [o for p in passes for o in p]
    attempted = len(everything)
    failed = sum(o.error is not None for o in everything)
    if trace:
        metrics["error_rate"] = failed / attempted
    units = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and same_inputs and detail.get("self_sum_gap_s", 0.0) <= SELF_SUM_SLACK_S
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "result": result,
        "setup": {"import_s": import_s, "repeats_s": setup_times, "same_inputs": same_inputs},
        "failures": _failures(workload, warm, passes),
        "detail": detail,
    }
    return result, record


def _failures(workload, warm: list[Outcome], passes: list[list[Outcome]]) -> list[dict]:
    labelled = list(zip(workload.warmup * SETUP_REPEATS, warm))
    labelled += [pair for p in passes for pair in zip(workload.requests, p)]
    return [{"request": r.label, "error": o.error} for r, o in labelled if o.error is not None]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["pd_survey", "cp_ladder", "rep_verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    pin_threads()
    try:
        import_s = load_package()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    record["environment"] = environment()

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record))
    print(f"environment: {json.dumps(record['environment'])}")
    for failure in record["failures"]:
        print(f"FAILED {failure['request']}: {failure['error']}")
    for key in ("pass_walls_s", "latency_samples", "latency_tail_percentile", "request_self_s", "self_sum_gap_s"):
        if key in record["detail"]:
            print(f"{key} = {record['detail'][key]}")
    if "error_rate" not in result["metrics"]:
        print(f"error_rate = {result['failed'] / result['attempted']} ratio")
    for key, metric in result["metrics"].items():
        print(f"{key} = {metric['value']} {metric['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
