#!/usr/bin/env python3
"""Benchmark-gated perf baseline for the memory-system simulator.

Runs the google-benchmark microbenchmark suite (bench_memsim_micro) with
--benchmark_out, then compares each benchmark's real_time against the
checked-in baseline (bench/baselines/BENCH_memsim.json by default) and fails
when any benchmark regressed beyond the tolerance. Refresh the baseline on a
quiet machine with --update after intentional perf changes.

The campaign benchmarks also export deterministic simulation counters
(golden_accesses, golden_nvm_writes, profile_samples). Counters present in
both the baseline and the fresh run must match exactly — the simulator's
work must not change shape under a perf PR. After an intentional behaviour
change, merge fresh counters into the baseline without touching its timings
via --update-counters.

Typical use:

    cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build-bench -j --target bench_memsim_micro
    python3 scripts/bench_baseline.py --binary build-bench/bench/bench_memsim_micro

CI runs with a generous --tolerance (shared runners are noisy); the recorded
numbers in bench/baselines/ are the authoritative before/after evidence for
perf PRs (BENCH_memsim.pre.json preserves the pre-optimisation timings).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "bench" / "baselines" / "BENCH_memsim.json"

# Deterministic simulation counters the benchmarks export; only these are
# diffed, so incidental google-benchmark fields never match. dirty_blocks is
# BM_Postmortem's dirty-block population — the scan's candidate set must not
# silently change shape under a perf PR any more than the campaign's work.
COUNTER_NAMES = ("golden_accesses", "golden_nvm_writes", "profile_samples",
                 "dirty_blocks")


def load_times(path: pathlib.Path) -> dict[str, tuple[float, str]]:
    """Benchmark name -> (real_time, time_unit) from a --benchmark_out JSON."""
    with path.open() as fh:
        doc = json.load(fh)
    times: dict[str, tuple[float, str]] = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate (mean/median/stddev) rows
        times[bench["name"]] = (float(bench["real_time"]), bench.get("time_unit", "ns"))
    return times


def load_counters(path: pathlib.Path) -> dict[str, dict[str, float]]:
    """Benchmark name -> {counter: value} for the allowlisted counters."""
    with path.open() as fh:
        doc = json.load(fh)
    counters: dict[str, dict[str, float]] = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type", "iteration") != "iteration":
            continue
        found = {name: float(bench[name]) for name in COUNTER_NAMES if name in bench}
        if found:
            counters[bench["name"]] = found
    return counters


def compare_counters(baseline: dict[str, dict[str, float]],
                     fresh: dict[str, dict[str, float]]) -> int:
    """Counters present in BOTH sides must match exactly (the simulation is
    deterministic); one-sided counters are reported but never fail, so a
    telemetry-OFF run (profile counters zero) can still gate timings."""
    mismatches = 0
    for name in sorted(set(baseline) & set(fresh)):
        for counter in sorted(set(baseline[name]) & set(fresh[name])):
            base_value = baseline[name][counter]
            cur_value = fresh[name][counter]
            if base_value != cur_value:
                print(f"{name}/{counter}: baseline {base_value:.0f} != "
                      f"current {cur_value:.0f}  << COUNTER MISMATCH")
                mismatches += 1
    only = sorted(set(fresh) - set(baseline))
    for name in only:
        print(f"{name}: counters not in baseline (record with --update-counters)")
    return mismatches


def merge_counters(baseline_path: pathlib.Path, result_path: pathlib.Path) -> int:
    """Copy the fresh run's allowlisted counters into the baseline file's
    matching benchmark entries, leaving every timing untouched."""
    with baseline_path.open() as fh:
        doc = json.load(fh)
    fresh = load_counters(result_path)
    merged = 0
    for bench in doc.get("benchmarks", []):
        update = fresh.get(bench.get("name", ""))
        if not update:
            continue
        for counter, value in update.items():
            bench[counter] = value
            merged += 1
    baseline_path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"merged {merged} counter value(s) into {baseline_path}")
    return 0 if merged else 2


def run_suite(binary: pathlib.Path, out: pathlib.Path, bench_filter: str,
              min_time: float) -> None:
    cmd = [
        str(binary),
        f"--benchmark_out={out}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True)


def compare(baseline: dict[str, tuple[float, str]],
            fresh: dict[str, tuple[float, str]], tolerance: float,
            subset: bool) -> int:
    """Compare fresh against baseline; with subset=True (a filtered run),
    baseline entries absent from fresh are skipped instead of failing."""
    regressions = 0
    width = max((len(n) for n in baseline), default=10)
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  ratio")
    for name in sorted(baseline):
        base_time, unit = baseline[name]
        if name not in fresh:
            if not subset:
                print(f"{name:<{width}}  {base_time:>10.1f}{unit}  {'MISSING':>12}  -")
                regressions += 1
            continue
        cur_time, cur_unit = fresh[name]
        if cur_unit != unit:
            print(f"{name:<{width}}  unit mismatch: {unit} vs {cur_unit}")
            regressions += 1
            continue
        ratio = cur_time / base_time if base_time > 0 else float("inf")
        flag = "" if ratio <= tolerance else "  << REGRESSION"
        print(f"{name:<{width}}  {base_time:>10.1f}{unit}  {cur_time:>10.1f}{unit}"
              f"  {ratio:>5.2f}x{flag}")
        if ratio > tolerance:
            regressions += 1
    extra = sorted(set(fresh) - set(baseline))
    for name in extra:
        cur_time, unit = fresh[name]
        print(f"{name:<{width}}  {'(new)':>12}  {cur_time:>10.1f}{unit}  -")
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary",
                        default=str(REPO_ROOT / "build-bench" / "bench" /
                                    "bench_memsim_micro"),
                        help="bench_memsim_micro binary (Release build)")
    parser.add_argument("--baseline", default=str(DEFAULT_BASELINE),
                        help="checked-in baseline JSON to compare against")
    parser.add_argument("--out", default="",
                        help="where to write the fresh --benchmark_out JSON "
                             "(default: a temporary file)")
    parser.add_argument("--parse-only", metavar="RESULT_JSON", default="",
                        help="skip running the binary; compare this existing "
                             "--benchmark_out JSON against the baseline")
    parser.add_argument("--filter", default="",
                        help="--benchmark_filter regex passed to the binary")
    parser.add_argument("--min-time", type=float, default=0.2,
                        help="--benchmark_min_time per benchmark (seconds)")
    parser.add_argument("--tolerance", type=float, default=1.30,
                        help="fail when current/baseline real_time exceeds "
                             "this ratio (default 1.30)")
    parser.add_argument("--update", action="store_true",
                        help="write the fresh results over the baseline file "
                             "instead of comparing")
    parser.add_argument("--update-counters", action="store_true",
                        help="merge the fresh run's simulation counters into "
                             "the baseline file without touching its timings")
    args = parser.parse_args()

    if args.parse_only:
        result_path = pathlib.Path(args.parse_only)
    else:
        binary = pathlib.Path(args.binary)
        if not binary.exists():
            print(f"error: benchmark binary not found: {binary}", file=sys.stderr)
            return 2
        if args.out:
            result_path = pathlib.Path(args.out)
        else:
            result_path = pathlib.Path(tempfile.mkstemp(suffix=".json")[1])
        run_suite(binary, result_path, args.filter, args.min_time)

    fresh = load_times(result_path)
    if not fresh:
        print("error: no benchmark results parsed", file=sys.stderr)
        return 2

    baseline_path = pathlib.Path(args.baseline)
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(result_path.read_text())
        print(f"baseline updated: {baseline_path} ({len(fresh)} benchmarks)")
        return 0

    if not baseline_path.exists():
        print(f"error: baseline not found: {baseline_path} "
              "(record one with --update)", file=sys.stderr)
        return 2
    if args.update_counters:
        return merge_counters(baseline_path, result_path)
    regressions = compare(load_times(baseline_path), fresh, args.tolerance,
                          subset=bool(args.filter) or bool(args.parse_only))
    mismatches = compare_counters(load_counters(baseline_path),
                                  load_counters(result_path))
    if regressions or mismatches:
        if regressions:
            print(f"FAIL: {regressions} benchmark(s) regressed beyond "
                  f"{args.tolerance:.2f}x", file=sys.stderr)
        if mismatches:
            print(f"FAIL: {mismatches} simulation counter(s) diverged from "
                  "the baseline", file=sys.stderr)
        return 1
    print("OK: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
