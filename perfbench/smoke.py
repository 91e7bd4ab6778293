#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload on its warm-up requests only (one pass, untraced and
traced), and checks that the result line carries exactly the metrics that
``BENCHMARK.json`` names, each with its unit, with no failed request.  Then
runs one request against a deliberately wrong expectation and checks that
``error_rate`` rises above 0 and the run is marked incorrect, so the output
checks are shown to be able to fail.  Takes about half a minute.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    run.pin_threads()
    import_s = run.load_package()
    import workloads

    def tiny(name, seed):
        w = workloads.BUILDERS[name](seed)
        return workloads.Workload(w.warmup, w.warmup)

    def wrong(name, seed):
        w = tiny(name, seed)
        first = w.requests[0]
        bad = dataclasses.replace(first, expect={"pd": not first.expect["pd"]})
        return workloads.Workload([bad] + w.requests[1:], w.warmup)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS), "workload names differ")
    for table, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[table]}
        expect(named == units, f"BENCHMARK.json {table} differs from run.py")

    for name in workloads.BUILDERS:
        for trace in (False, True):
            result, _ = run.run(name, 0, 0, trace, import_s, build=tiny)
            units = run.PER_LAYER if trace else run.END_TO_END
            metrics = result["metrics"]
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {result}")
            expect(list(metrics) == list(units), f"{name} trace={trace}: metric names {list(metrics)}")
            for key, unit in units.items():
                value = metrics[key]["value"]
                expect(metrics[key]["unit"] == unit, f"{name}: {key} has unit {metrics[key]['unit']}")
                expect(isinstance(value, (int, float)) and value == value, f"{name}: {key} = {value!r}")
            print(f"{name} trace={trace}: {len(metrics)} metrics, {result['attempted']} requests, ok")

    result, _ = run.run("pd_survey", 0, 0, True, import_s, build=wrong)
    rate = result["metrics"]["error_rate"]["value"]
    expect(rate > 0 and not result["correct"], f"a wrong expectation went unnoticed: {result}")
    print(f"wrong expectation: error_rate = {rate}, correct = {result['correct']}, ok")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
