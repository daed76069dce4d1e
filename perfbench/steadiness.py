#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

    python3 perfbench/steadiness.py [--runs N] [--seed0 S] [--seconds T] [--workloads a,b]
                                    [--raw values.json]
    python3 perfbench/steadiness.py --determinism [--workloads a,b]

Runs every workload N times, interleaved (round i runs each workload once,
rotating the order), each time with another seed, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4), the
interquartile spread as a share of the median, and min/max. End-to-end
spreads are compared with the bounds in BENCHMARK.json (flagged above a
third of the bound). Any throughput metric within 0.1% of an offered rate
the benchmark reports is flagged: it echoes the load, it does not measure.

--determinism runs the traced mode twice with one seed per workload and
checks that the deterministic cost counters repeat exactly.

Exit code 1 if a run fails, a spread exceeds its bound, an echo is found,
or a counter does not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
DETERMINISTIC = [
    "serve.allocs_per_query", "serve.into_allocs_per_query", "kv.keys_per_query",
    "diss.wire_bytes_per_update", "store.fsyncs_per_commit", "mq.bytes_per_update",
    "sampling.edges_offered_per_update", "diss.msgs_per_frame", "store.ckpt_bytes",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        return None, {}
    offered = {}
    for l in lines:
        if l.startswith("# offered "):
            name, value = l[len("# offered "):].split()[:2]
            offered[name] = float(value)
    return json.loads(lines[-1]), offered


def spread_table(values_by_metric, bounds):
    bad = False
    print("%-40s %14s %14s %14s %8s %14s %14s  %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "min", "max", "bound"))
    for name, values in values_by_metric.items():
        if len(values) >= 2:
            q1, med, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = med = q3 = values[0]
        rel = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None:
            note = "%.3f" % bound
            if name != "setup_s" and rel > bound:
                note += "  OVER BOUND"
                bad = True
            elif rel > bound / 3:
                note += "  above bound/3"
        print("%-40s %14.6g %14.6g %14.6g %8.4f %14.6g %14.6g  %s" %
              (name, med, q1, q3, rel, min(values), max(values), note))
    return bad


def steadiness(args, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {w: {} for w in workloads}
    offered = {w: {} for w in workloads}
    failed = False
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            result, off = run_once(w, args.seed0 + i, seconds, 0)
            if result is None or not result["correct"]:
                print("run failed: %s seed %d" % (w, args.seed0 + i))
                failed = True
                continue
            offered[w].update(off)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("  %s seed %d done" % (w, args.seed0 + i), file=sys.stderr)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(values, f, indent=1)
    for w in workloads:
        print("\n== %s (%d runs) ==" % (w, len(next(iter(values[w].values()), []))))
        if not values[w]:
            continue
        failed |= spread_table(values[w], bounds)
        for name, vals in values[w].items():
            if not name.endswith("_per_s") and "qps" not in name:
                continue
            for rate_name, rate in offered[w].items():
                if rate > 0 and abs(statistics.median(vals) - rate) <= 0.001 * rate:
                    print("ECHO: %s median %.6g is within 0.1%% of offered %s = %.6g" %
                          (name, statistics.median(vals), rate_name, rate))
                    failed = True
    return failed


def determinism(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    failed = False
    for w in workloads:
        a, _ = run_once(w, args.seed0, seconds, 1)
        b, _ = run_once(w, args.seed0, seconds, 1)
        if a is None or b is None:
            print("%s: traced run failed" % w)
            failed = True
            continue
        for name in DETERMINISTIC:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            same = va == vb
            failed |= not same
            print("%-14s %-36s %16.10g %16.10g  %s" % (w, name, va, vb,
                                                       "repeats" if same else "DIFFERS"))
    return failed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    parser.add_argument("--workloads", type=lambda s: s.split(","), default=None)
    parser.add_argument("--determinism", action="store_true")
    parser.add_argument("--raw", default="", help="write every run's values to this JSON file")
    args = parser.parse_args()
    spec = load_spec()
    failed = determinism(args, spec) if args.determinism else steadiness(args, spec)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
