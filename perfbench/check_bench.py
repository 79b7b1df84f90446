"""Self-check of the benchmark's output contract; takes a few minutes.

Usage, from the root of a checkout:

    python3 perfbench/check_bench.py

Runs every workload for one second untraced and traced.  It
checks that the last stdout line has exactly the result keys, that the run
is correct, and that it reports every metric BENCHMARK.json declares, each
with its declared unit.  It also checks that the benchmark fails without
printing a result when the package sources are missing.  Exits 1 on the
first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"FAIL: {message}")
    sys.exit(1)


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(proc, declared, label):
    if proc.returncode != 0:
        fail(f"{label}: exit code {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: not correct: {result['attempted']} attempted, {result['failed']} failed")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail(f"{label}: missing {sorted(set(declared) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        entry = metrics[name]
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            fail(f"{label}: {name} is {entry}, declared unit {unit}")
        if not isinstance(entry["value"], (int, float)):
            fail(f"{label}: {name} value {entry['value']!r} is not a number")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if end_to_end.get("setup_s") != "s":
        fail("setup_s is not declared in seconds")
    if any(m["bound"] > 0.25 for m in bench["end_to_end"]):
        fail("an end-to-end bound exceeds 0.25")
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = f"{workload} --trace {trace}"
            check_result(run(ROOT, workload, trace), declared, label)
            print(f"ok: {label}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, workloads[0], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("without the package sources the benchmark must fail and print nothing")
    print("ok: fails without the package sources")


if __name__ == "__main__":
    main()
