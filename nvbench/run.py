#!/usr/bin/env python3
"""EasyCrash benchmark: one command for every workload (see README.md).

    python3 nvbench/run.py --workload ft_restart --seed 1 --trace 0

Run from the repository root. Builds nvct and the probe from source into
$CARGO_TARGET_DIR (default .bench_build), runs whole jobs of the workload for
--seconds (default: run_seconds of BENCHMARK.json), checks every job's outputs
and prints, as the last stdout line, one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ledger of a traced run. Exits 1 when an output check fails (after
printing the result) and 2 when the benchmark cannot run at all (no sources,
build failure, unknown workload).
"""
import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_SEED = 1
JOB_TIMEOUT_S = 150

# Why each workload exists is in README.md. `threads` is the campaign's
# restart worker count; the sweep producer joins the restart pool once it has
# captured every point, so restarts run on threads + 1 lanes.
WORKLOADS = {
    "ft_restart": {"kind": "nvct", "app": "ft", "scale": 1, "tests": 500,
                   "threads": 2, "journal": True, "setup_repeat": 7},
    "cg4_simulate": {"kind": "nvct", "app": "cg", "scale": 4, "tests": 24,
                     "threads": 2, "journal": False, "setup_repeat": 5},
    "mg_workflow": {"kind": "workflow", "app": "mg", "scale": 1, "tests": 300,
                    "threads": 1, "journal": False, "setup_repeat": 7},
}


class BenchError(Exception):
    """The benchmark cannot run (as opposed to a failed output check)."""


def note(msg):
    print(msg, flush=True)


# ---- build ------------------------------------------------------------------

def build(root):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        raise BenchError("no EasyCrash sources under " + root)
    bdir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmake_dir = os.path.join(bdir, "cmake")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs,
                      "--target", "nvct", "nvbench_probe"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return bdir, os.path.join(cmake_dir, "tools", "nvct"), os.path.join(cmake_dir, "nvbench_probe")


def run_seconds(root):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            return json.load(f)["run_seconds"]
    except (OSError, ValueError, KeyError):
        raise BenchError("no run_seconds in " + os.path.join(root, "BENCHMARK.json"))


def machine_context(bdir, load_before):
    cpu_model, mhz = "", ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and not cpu_model:
                    cpu_model = value.strip()
                elif key == "cpu MHz" and not mhz:
                    mhz = value.strip()
    except OSError:
        pass
    cache = {}
    cache_path = os.path.join(bdir, "cmake", "CMakeCache.txt")
    if os.path.isfile(cache_path):
        with open(cache_path) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)", line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = subprocess.run([compiler or "c++", "-dumpfullversion"], capture_output=True,
                             text=True).stdout.strip() if compiler else ""
    nproc = len(os.sched_getaffinity(0))
    load_after = os.getloadavg()[0]
    return {
        "nproc": nproc, "cpu_model": cpu_model, "cpu_mhz": mhz,
        "load_before": round(load_before, 2), "load_after": round(load_after, 2),
        "overloaded": max(load_before, load_after) > nproc,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": (os.path.basename(compiler) + " " + version).strip(),
        "telemetry": cache.get("EASYCRASH_TELEMETRY", "ON"),
    }


# ---- jobs ---------------------------------------------------------------------

def run_job(cmd, out_path):
    """Run one job; wall time, CPU and peak RSS of it and its reaped workers."""
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        # Worker children die with their parent (PR_SET_PDEATHSIG), so
        # killing the job's own process stops the whole job.
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "out": text}


def read_csv(path):
    """(bytes, responses) of a per-test CSV, or (b"", None) when unreadable."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return b"", None
    lines = data.decode().splitlines()
    if not lines:
        return data, None
    col = lines[0].split(",").index("response")
    return data, [row.split(",")[col] for row in lines[1:]]


def tally(responses):
    return [responses.count(s) for s in ("S1", "S2", "S3", "S4")]


def nvct_job(wl, seed, work, nvct, traced=False):
    csv, journal = os.path.join(work, "job.csv"), os.path.join(work, "job.jsonl")
    for path in (csv, journal):
        if os.path.exists(path):
            os.remove(path)
    cmd = [nvct, "--app", wl["app"], "--tests", str(wl["tests"]), "--seed", str(seed),
           "--threads", str(wl["threads"]), "--no-progress", "--csv-out", csv]
    if wl["scale"] != 1:
        cmd += ["--scale", str(wl["scale"])]
    if wl["journal"]:
        cmd += ["--journal", journal]
    if traced:
        cmd += ["--trace-out", os.path.join(work, "trace.jsonl"),
                "--metrics-out", os.path.join(work, "metrics.json")]
    job = run_job(cmd, os.path.join(work, "job.out"))
    problems = []
    m = re.search(r"^\s+tests:\s+(\d+)", job["out"], re.M)
    decided = int(m.group(1)) if m else 0
    m = re.search(r"trial failures:\s+(\d+)", job["out"])
    failures = int(m.group(1)) if m else 0
    data, responses = read_csv(csv)
    if job["rc"] != 0:
        problems.append("nvct exited %d" % job["rc"])
    if responses is None or len(responses) != decided:
        problems.append("CSV rows disagree with the summary's test count")
    if decided + failures != wl["tests"]:
        problems.append("S1+S2+S3+S4+failures != N")
    if wl["journal"]:
        kinds = []
        if os.path.exists(journal):
            with open(journal) as f:
                kinds = [json.loads(line).get("type") for line in f if line.strip()]
        if kinds.count("trial") != decided or kinds.count("trial_failure") != failures:
            problems.append("journal disagrees with the summary")
    job.update(planned=wl["tests"], decided=decided, failures=failures,
               tally=tally(responses or []), digest=hashlib.sha256(data).hexdigest(),
               problems=problems, csv=csv, journal=journal if wl["journal"] else "")
    return job


def workflow_job(wl, seed, work, probe, traced=False):
    for name in ("baseline", "everywhere", "validation"):
        path = os.path.join(work, name + ".csv")
        if os.path.exists(path):
            os.remove(path)
    cmd = [probe, "workflow", "--app", wl["app"], "--tests", str(wl["tests"]),
           "--seed", str(seed), "--work", work]
    if traced:
        cmd += ["--trace-out", os.path.join(work, "trace.jsonl"),
                "--metrics-out", os.path.join(work, "metrics.json")]
    job = run_job(cmd, os.path.join(work, "job.out"))
    problems = [] if job["rc"] == 0 else ["workflow probe exited %d" % job["rc"]]
    summary = {}
    try:
        summary = json.loads(job["out"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        problems.append("workflow probe printed no summary")
    planned = decided = failures = 0
    counts = [0, 0, 0, 0]
    digest = hashlib.sha256(summary.get("plan", "").encode())
    for name, c in summary.get("campaigns", {}).items():
        data, responses = read_csv(os.path.join(work, name + ".csv"))
        digest.update(data)
        planned += c["planned"]
        decided += c["tests"]
        failures += c["failures"]
        counts = [a + b for a, b in zip(counts, c["tally"])]
        if c["tests"] + c["failures"] != c["planned"]:
            problems.append(name + ": S1+S2+S3+S4+failures != N")
        if responses is None or tally(responses) != c["tally"]:
            problems.append(name + ": CSV disagrees with the campaign tally")
    if summary.get("interrupted"):
        problems.append("workflow interrupted")
    validated = "validation" in summary.get("campaigns", {})
    job.update(planned=planned or 3 * wl["tests"], decided=decided, failures=failures,
               tally=counts, digest=digest.hexdigest(), problems=problems,
               plans=(summary.get("everywhere_plan", "none"),
                      summary.get("plan", "none") if validated else "none"))
    return job


def run_workload_job(wl, seed, work, tools, traced=False):
    nvct, probe = tools
    if wl["kind"] == "nvct":
        return nvct_job(wl, seed, work, nvct, traced)
    return workflow_job(wl, seed, work, probe, traced)


def job_seed(seed, j):
    """Campaign seed of the run's j-th job: job 0 runs the run's own seed, and
    later jobs draw fresh crash points, so a run's median spans several draws."""
    return seed + j * 1000003


def check_jobs(name, seed, jobs):
    """Cross-job checks: jobs given one seed agree, and the pinned seed's
    outputs equal the values recorded in expected.json."""
    problems = []
    if len({j["digest"] for j in jobs}) > 1:
        problems.append("jobs of one seed produced different outputs")
    if seed == PINNED_SEED:
        with open(os.path.join(HERE, "expected.json")) as f:
            expected = json.load(f).get(name)
        if expected and (jobs[0]["digest"] != expected["digest"] or
                         jobs[0]["tally"] != expected["tally"]):
            problems.append("outputs differ from the values recorded for seed %d" % seed)
    return problems


def failed_trials(job, whole_job_failed):
    bad = job["planned"] if (job["problems"] or whole_job_failed) else job["failures"]
    return min(job["planned"], bad)


def probe_json(cmd, out_path):
    job = run_job(cmd, out_path)
    if job["rc"] != 0:
        sys.stderr.write(job["out"][-4000:])
        raise BenchError("probe failed: " + " ".join(cmd[1:3]))
    return json.loads(job["out"].strip().splitlines()[-1])


# ---- the two kinds of run ---------------------------------------------------------

def measure(name, wl, seed, seconds, work, tools):
    setup = probe_json([tools[1], "setup", "--app", wl["app"], "--scale", str(wl["scale"]),
                        "--repeat", str(wl["setup_repeat"])], os.path.join(work, "setup.out"))
    jobs = []
    start = time.perf_counter()
    while not jobs or time.perf_counter() - start < seconds:
        jobs.append(run_workload_job(wl, job_seed(seed, len(jobs)), work, tools))
        j = jobs[-1]
        note("job %d (seed %d): %.3f s, %d/%d decided, tally %s, csv sha256 %s%s" % (
            len(jobs), job_seed(seed, len(jobs) - 1), j["wall"], j["decided"], j["planned"],
            j["tally"], j["digest"], "".join("; PROBLEM: " + p for p in j["problems"])))
        if j["problems"]:
            break
    problems = check_jobs(name, seed, jobs[:1]) + [p for j in jobs for p in j["problems"]]
    attempted = sum(j["planned"] for j in jobs)
    failed = sum(failed_trials(j, bool(problems)) for j in jobs)
    decided = [max(1, j["decided"]) for j in jobs]
    metrics = {
        "trials_per_s": (statistics.median(d / j["wall"] for d, j in zip(decided, jobs)), "trials/s"),
        "setup_s": (statistics.median(setup["golden_s"]), "s"),
        "cpu_ms_per_trial": (statistics.median(1e3 * j["cpu"] / d for d, j in zip(decided, jobs)), "ms"),
        "peak_rss_mb": (statistics.median(j["rss_mb"] for j in jobs), "MB"),
        "ok_trial_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    return problems, attempted, failed, metrics


def program_counts(work):
    """Exact counts the program reports in its own telemetry files, and the
    summed duration of each phase it traced, in ms."""
    restarts, phase_ms = 0, {}
    with open(os.path.join(work, "trace.jsonl")) as f:
        for line in f:
            if '"phase_end"' not in line:
                continue
            event = json.loads(line)
            phase = event.get("phase")
            restarts += phase == "restart"
            phase_ms[phase] = phase_ms.get(phase, 0.0) + 1e-6 * event.get("duration_ns", 0)
    with open(os.path.join(work, "metrics.json")) as f:
        counters = json.load(f)["counters"]
    return {"runtime.sweep_captures": counters.get("campaign.sweep_captures", 0),
            "runtime.restarts_executed": restarts}, phase_ms


def trace(name, wl, seed, work, tools):
    plain = run_workload_job(wl, seed, work, tools)
    # Two traced jobs of one seed: the program's exact counts must repeat.
    traced, program = [], []
    for _ in range(2):
        traced.append(run_workload_job(wl, seed, work, tools, traced=True))
        program.append(program_counts(work))
    jobs = [plain] + traced
    problems = check_jobs(name, seed, jobs) + [p for j in jobs for p in j["problems"]]
    if program[0][0] != program[1][0]:
        problems.append("the program's exact counts differ between two traced jobs")
    counts, phase_ms = program[0]
    select_ms = [phase_ms.get(p, 0.0) for p in ("object_selection", "region_selection")]

    cmd = [tools[1], "replay", "--app", wl["app"], "--scale", str(wl["scale"]),
           "--tests", str(wl["tests"]), "--seed", str(seed), "--work", work]
    if wl["kind"] == "workflow":
        cmd += ["--workflow", "--everywhere-plan", plain["plans"][0],
                "--validation-plan", plain["plans"][1]]
    else:
        cmd += ["--workers", str(wl["threads"]), "--csv", traced[-1]["csv"]]
        if wl["journal"]:
            cmd += ["--journal", traced[-1]["journal"]]
    r = probe_json(cmd, os.path.join(work, "replay.out"))
    if r["mismatched"]:
        problems.append("%d replayed trials differ from the job's outputs" % r["mismatched"])
    if r["count_mismatches"]:
        problems.append("the replay's exact counts differ between its two passes")

    lanes = wl["threads"] + 1
    transport_s = r["transport_roundtrip_us"] * 1e-6 * (r["captures"] + r["restarts"])
    simulate_s = r["golden_s"] + r["sweep_s"] + r["postmortem_s"]
    restart_s = r["restart_s"] / lanes
    critical = (simulate_s + restart_s + transport_s +
                (r["journal_s"] if wl["journal"] else 0.0) + 1e-3 * sum(select_ms))
    counts.update({
        "memsim.golden_accesses": int(r["golden_accesses"]),
        "memsim.postmortem_blocks_compared": int(r["postmortem_blocks_compared"]),
        "runtime.restart_distinct_inputs": int(r["restart_distinct_inputs"]),
    })
    metrics = {
        "runtime.golden_s": (r["golden_s"], "s"),
        "memsim.golden_ns_per_access": (1e9 * r["golden_s"] / max(1, r["golden_accesses"]), "ns"),
        "runtime.sweep_s": (r["sweep_s"], "s"),
        "memsim.postmortem_us_per_capture_p50": (r["postmortem_us_p50"], "us"),
        "memsim.postmortem_us_per_capture_p99": (r["postmortem_us_p99"], "us"),
        "runtime.restart_ms_p50": (r["restart_ms_p50"], "ms"),
        "runtime.restart_ms_p99": (r["restart_ms_p99"], "ms"),
        "crash.worker_spawn_ms": (r["worker_spawn_ms"], "ms"),
        "crash.transport_roundtrip_us": (r["transport_roundtrip_us"], "us"),
        "crash.capture_bytes": (r["capture_bytes"], "bytes"),
        "crash.journal_append_us": (r["journal_append_us"], "us"),
        "crash.journal_bytes": (r["journal_bytes"], "bytes"),
        "crash.merge_ms": (r["merge_ms"], "ms"),
        "crash.report_ms": (r["report_ms"], "ms"),
        "runtime.persist_us": (r.get("persist_us", 0.0), "us"),
        "core.select_objects_ms": (select_ms[0], "ms"),
        "core.select_regions_ms": (select_ms[1], "ms"),
        "stats.spearman_us": (r.get("spearman_us", 0.0), "us"),
        "crash.unattributed_s": (plain["wall"] - critical, "s"),
        "telemetry.trace_overhead_pct": (
            100.0 * (statistics.mean(j["wall"] for j in traced) - plain["wall"]) / plain["wall"], "%"),
        "ledger.restart_pct": (100.0 * restart_s / critical, "%"),
        "ledger.simulate_pct": (100.0 * simulate_s / critical, "%"),
        "ledger.covered_pct": (100.0 * critical / plain["wall"], "%"),
    }
    metrics.update({k: (v, "count") for k, v in sorted(counts.items())})
    note("ledger: wall %.3f s, critical path %.3f s (golden %.3f + sweep %.3f + "
         "post-mortem %.3f + restarts %.3f/%d + transport %.3f + journal %.3f)" % (
             plain["wall"], critical, r["golden_s"], r["sweep_s"], r["postmortem_s"],
             r["restart_s"], lanes, transport_s, r["journal_s"] if wl["journal"] else 0.0))
    attempted = sum(j["planned"] for j in jobs) + int(r["checked"])
    failed = sum(failed_trials(j, bool(problems)) for j in jobs) + int(r["mismatched"])
    return problems, attempted, min(failed, attempted), metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=PINNED_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.workload not in WORKLOADS:
            raise BenchError("unknown workload %r (have: %s)" % (args.workload, ", ".join(WORKLOADS)))
        load_before = os.getloadavg()[0]
        root = os.getcwd()
        bdir, nvct, probe = build(root)
        work = os.path.join(bdir, "work", args.workload)
        os.makedirs(work, exist_ok=True)
        wl = WORKLOADS[args.workload]
        if args.trace:
            problems, attempted, failed, metrics = trace(args.workload, wl, args.seed, work,
                                                         (nvct, probe))
        else:
            seconds = args.seconds or run_seconds(root)
            problems, attempted, failed, metrics = measure(args.workload, wl, args.seed,
                                                           seconds, work, (nvct, probe))
    except BenchError as e:
        print("nvbench: " + str(e), file=sys.stderr)
        return 2
    context = machine_context(bdir, load_before)
    note("context: " + json.dumps(context, sort_keys=True))
    if context["overloaded"]:
        note("WARNING: load average exceeded nproc during this run")
    for p in problems:
        note("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
