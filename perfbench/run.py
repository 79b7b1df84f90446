"""circuitbench's benchmark: run one workload for a fixed time and report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up several times in fresh interpreters, one before each job and
at least nine in all (the median is `setup_s`), and runs whole jobs back to
back, closed loop, on one thread, stopping at the job boundary nearest to S
seconds.  Every job does the same items in the same order.  Item
latencies are corrected for the host's speed, gauged with a fixed reference
loop, and each item's time is its median over the jobs, so that the times
measure the program rather than the host's slow spells.  With --trace 0 it
prints the end-to-end metrics; with --trace 1 it alternates untraced and
traced jobs and prints the per-layer metrics and the tracing overhead.  Every job's outputs are checked against expected answers.  The
last line of stdout is one JSON object; a readable table goes to stderr and
a full report, with spans, to .bench_out/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up probes run between jobs, so that they sample the host across the
# whole run as the jobs do, not only at its start.
PROBES_PER_JOB = 1
MIN_PROBES = 9
# Each item's time is its median over at least this many repetitions.
MIN_JOBS = 3
# A bare `python -c pass` takes about BARE_START_S on the baseline host at
# its fast speed.
BARE_START_S = 0.05

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_values(job):
    """Per-layer metric values of one traced job (without the overhead)."""
    layers = job.layers

    def field(layer, key):
        return layers.get(layer, {}).get(key, 0)

    # "<layer>.<field>" reads a field of the layer's aggregate (calls, self_s,
    # total_s or a counter); the rest are derived below.
    values = {}
    for name in PER_LAYER:
        layer, _, key = name.rpartition(".")
        values[name] = field(layer, key)
    values["circuits.modeval.per_compile"] = _ratio(
        field("circuits.modeval", "calls"), field("circuits.compile", "calls")
    )
    calls = field("primes.is_prime", "calls")
    values["primes.is_prime.repeat_ratio"] = _ratio(calls - field("primes.is_prime", "distinct"), calls)
    values["systems.solve.assign_per_s"] = _ratio(
        field("systems.solve", "assignments"), field("systems.solve", "total_s")
    )
    values["cli.import_s"] = statistics.median(job.import_s) if job.import_s else 0.0
    return values


def item_times(jobs):
    """Each item's latency at the host's fast speed, median over the jobs.

    Item i is the same work in every job of a run (a job cut short by a
    failure has fewer items).  Each latency is divided by the host slowdown
    measured just before the item, so that a run that falls in one of the
    host's slow spells reads like one that does not."""
    count = max(len(j.latencies) for j in jobs)
    return [
        statistics.median(
            j.latencies[i] / j.slowdowns[i] for j in jobs if i < len(j.latencies)
        )
        for i in range(count)
    ]


def percentile(sorted_values, pct):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def probe_setup(workloads, workload, seed):
    """Seconds from starting a fresh interpreter until its inputs are ready
    (import circuitbench and generate the workload's inputs), and seconds
    that a bare interpreter started just before took to start and exit.

    Start-up slows down with the host as a whole, and the in-process
    reference loop did not track it, so the set-up is gauged against a bare
    start, which no change to circuitbench can move."""
    t0 = time.perf_counter()
    workloads.run_child([sys.executable, "-c", "pass"], cwd=ROOT)
    bare = time.perf_counter() - t0
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
        "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5]).setup()"
    )
    cmd = [sys.executable, "-c", code, str(BENCH), str(SRC), workload, str(seed), str(ROOT)]
    t0 = time.perf_counter()
    code, _, _ = workloads.run_child(cmd, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed, bare


def run_jobs(wl, seconds, trace, probe):
    """Rounds of set-up probes and one whole job, back to back, stopping at
    the round boundary nearest to `seconds` (rounds last the median round
    time so far); with tracing, untraced and traced jobs alternate.
    Returns the jobs and the set-up probes."""
    jobs, probes, rounds = [], [], []
    min_jobs = 2 if trace else MIN_JOBS
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probes += [probe() for _ in range(PROBES_PER_JOB)]
        traced = trace and len(jobs) % 2 == 1
        job = wl.run(len(jobs), traced)
        job.traced = traced
        jobs.append(job)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(jobs) >= min_jobs and elapsed + statistics.median(rounds) / 2 > seconds:
            break
    while len(probes) < MIN_PROBES:
        probes.append(probe())
    return jobs, probes


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "circuitbench" / "__init__.py").is_file():
        print(f"error: no circuitbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    wl.setup()
    wl.expect()

    jobs, probes = run_jobs(
        wl, args.seconds, args.trace, lambda: probe_setup(workloads, args.workload, args.seed)
    )
    failed = 0
    attempted = 0
    for k, job in enumerate(jobs):
        attempted += len(job.latencies)
        failed += len(job.failures) + wl.check(k, job)
    once_attempted, once_failed = wl.check_once(jobs)
    attempted += once_attempted
    failed += once_failed

    plain = [j for j in jobs if not j.traced]
    traced = [j for j in jobs if j.traced]
    items = item_times(plain)
    latencies = sorted(t * 1000 for t in items)
    e2e = {
        "setup_s": statistics.median(wall / bare for wall, bare in probes) * BARE_START_S,
        "job_s": sum(items),
        "items_per_s": len(items) / sum(items),
        "item_p50_ms": percentile(latencies, 50),
        "item_tail_ms": percentile(latencies, wl.tail_pct),
        # After the first job, before the run's own records of later jobs
        # add to the process: the same measure however many jobs a run holds.
        "peak_rss_mb": plain[0].peak_rss_kb / 1024,
    }
    absent = {}
    layers = {}
    if traced:
        per_job = [layer_values(j) for j in traced]
        layers = {name: statistics.median(v[name] for v in per_job) for name in per_job[0]}
        layers["trace.overhead_s"] = sum(item_times(traced)) - e2e["job_s"]
        for j in traced:
            absent.update(j.absent)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item": wl.item,
        "end_to_end": e2e,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "item_samples": len(latencies),
        "item_tail_pct": wl.tail_pct,
        "item_samples_beyond_tail": sum(1 for t in latencies if t > e2e["item_tail_ms"]),
        "setup_probes": [{"wall_s": wall, "bare_s": bare} for wall, bare in probes],
        "jobs": [
            {
                "seconds": j.seconds,
                "median_slowdown": statistics.median(j.slowdowns),
                "traced": j.traced,
                "items": len(j.latencies),
                "failures": j.failures[:20],
                "work": wl.work(j),
            }
            for j in jobs
        ],
        "per_layer": layers,
        "absent_layers": absent,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(),
        },
        "spans": [s for j in traced for s in j.spans],
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report), encoding="utf-8")

    shown = layers if args.trace else e2e
    units = PER_LAYER if args.trace else END_TO_END
    log = sys.stderr
    print(f"{args.workload} seed={args.seed} jobs={len(jobs)} items={len(latencies)} "
          f"attempted={attempted} failed={failed}", file=log)
    for name, value in shown.items():
        print(f"  {name:36s} {value:14.6g} {units[name]}", file=log)
    print(f"  {'failed_ratio':36s} {report['failed_ratio']:14.6g} ratio", file=log)
    if not args.trace:
        print(f"  item_tail_ms is p{wl.tail_pct:g} of {len(latencies)} items, each its "
              f"median of {len(plain)} jobs", file=log)
    for name, reason in sorted(absent.items()):
        print(f"  absent: {name}: {reason}", file=log)

    metrics = {name: {"value": value, "unit": units[name]} for name, value in shown.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
