#!/usr/bin/env python3
"""Quick self-check of the benchmark. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs a small-size untraced and a
small-size traced run, and checks that each metric BENCHMARK.json lists is
printed with its unit and a finite value, and that every answer was right.
It then runs `regular` once more with one SAP answer deliberately
corrupted and checks that the error counter counts exactly that answer.
Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small", "1"] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result, specs, label):
    metrics = result["metrics"]
    names = [s["name"] for s in specs]
    if sorted(metrics) != sorted(names):
        sys.exit(f"{label}: metrics {sorted(metrics)} != {sorted(names)}")
    for spec in specs:
        m = metrics[spec["name"]]
        if m["unit"] != spec["unit"]:
            sys.exit(f"{label}: {spec['name']} unit {m['unit']} != {spec['unit']}")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            sys.exit(f"{label}: {spec['name']} has no finite value")


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        name = wl["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(name, trace)
            label = f"{name} trace={trace}"
            check_metrics(r, bench[key], label)
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                sys.exit(f"{label}: correct={r['correct']} failed={r['failed']} attempted={r['attempted']}")
            print(f"ok  {label}: {len(r['metrics'])} metrics, {r['attempted']} answers checked")

    r = run("regular", 1, ["--corrupt", "1"])
    rate = r["metrics"]["slide_error_rate"]["value"]
    if r["correct"] or r["failed"] != 1 or not math.isclose(rate, 1 / r["attempted"]):
        sys.exit(f"corrupted answer not counted: correct={r['correct']} failed={r['failed']} rate={rate}")
    print(f"ok  regular --corrupt: 1 of {r['attempted']} answers counted wrong, slide_error_rate {rate}")


if __name__ == "__main__":
    main()
