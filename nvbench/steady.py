#!/usr/bin/env python3
"""Steadiness mode: how much each metric of a workload moves between runs.

    python3 nvbench/steady.py --workload cg4_simulate --runs 10 --sets 2

Runs nvbench/run.py `runs` times per set for run_seconds of BENCHMARK.json,
each run with its own seed (run i of set s uses seed 1 + s*runs + i). For
every end-to-end metric it prints each set's median, quartiles and
IQR/median, and how far the last set's median moved from the first set's in
the metric's "worse" direction, both against the bound in BENCHMARK.json.
The spread target is a third of the bound. Results and the machine context
of every run are written to <build dir>/steady/<workload>.json. Exits 1 when
a run fails or a spread or a drift exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    context = next((json.loads(l[len("context: "):]) for l in lines
                    if l.startswith("context: ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode or result is None or not result["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        return None, context
    return {k: m["value"] for k, m in result["metrics"].items()}, context


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    specs = {m["name"]: m for m in bench["end_to_end"]}

    sets, contexts, ok = [], [], True
    for s in range(args.sets):
        runs = []
        for i in range(args.runs):
            seed = 1 + s * args.runs + i
            metrics, context = run_once(args.workload, seed)
            contexts.append(dict(context, set=s, seed=seed))
            if metrics is None:
                print("set %d seed %d: run failed" % (s, seed))
                ok = False
                continue
            if context.get("overloaded"):
                print("set %d seed %d: load average exceeded nproc" % (s, seed))
            runs.append(metrics)
            print("set %d seed %d: %s" % (s, seed, " ".join(
                "%s=%.6g" % (k, v) for k, v in metrics.items() if k in specs)), flush=True)
        sets.append(runs)

    report = {"workload": args.workload, "seconds": bench["run_seconds"], "contexts": contexts,
              "metrics": {}}
    print("\n%-34s %12s %12s %12s %9s %8s %9s" % (
        "metric", "median", "q1", "q3", "iqr/med", "bound", "drift"))
    for name in sorted({k for runs in sets for r in runs for k in r if k in specs}):
        spec = specs[name]
        bound = spec["bound"]
        rows = []
        for runs in sets:
            values = [r[name] for r in runs if name in r]
            if len(values) >= 2:
                rows.append(spread(values))
        if not rows:
            continue
        drift = None
        if len(rows) >= 2 and rows[0][0]:
            change = (rows[-1][0] - rows[0][0]) / abs(rows[0][0])
            drift = change if spec.get("better") == "lower" else -change
        flags = []
        if any(r[3] > bound for r in rows):
            flags.append("SPREAD>BOUND")
        elif any(r[3] > bound / 3 for r in rows):
            flags.append("spread>bound/3")
        if drift is not None and drift > bound:
            flags.append("DRIFT>BOUND")
        ok = ok and not any(f.isupper() for f in flags)
        for i, (med, q1, q3, rel) in enumerate(rows):
            print("%-34s %12.6g %12.6g %12.6g %9.4f %8s %9s %s" % (
                name if i == 0 else "  (set %d)" % i, med, q1, q3, rel, bound,
                "" if drift is None or i != len(rows) - 1 else "%+.4f" % drift,
                " ".join(flags) if i == len(rows) - 1 else ""))
        report["metrics"][name] = {"sets": [dict(zip(("median", "q1", "q3", "iqr_rel"), r))
                                            for r in rows], "drift": drift, "bound": bound,
                                   "flags": flags}
    bdir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(os.path.join(bdir, "steady"), exist_ok=True)
    with open(os.path.join(bdir, "steady", args.workload + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
