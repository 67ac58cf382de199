"""lattice-equiv benchmark: census, volume representatives and deciders.

Usage (from the root of a checkout):

    python3 bench/run.py --workload census|volume-reps|decide \
        --seed N --seconds S --trace 0|1

Every timed job runs in a fresh interpreter (bench/job.py) that imports
the library from src/.  The run repeats rounds of its workload's jobs for
about --seconds (at least one round), checks every output, prints each
metric with its unit, a run record, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  It exits non-zero
without that line if a job cannot run at all.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced job, next to an untraced job on the same inputs.  README.md in
this directory defines each metric and the end-to-end metric each
per-layer metric should move.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB = HERE / "job.py"
JOB_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402

# Sizes of the real workloads; selftest.py runs the same code at tiny ones.
FULL = {
    "census_side": 4,
    "census_expected": [33041, 1517, 1264],  # H, K, A of box:4
    "volumes": [6, 8],
    "volumes_expected": [9, 17],
    "decide_pairs": 1000,  # per round; 10 % of the pairs are 3d
    "probe_pairs": 3000,   # at least 1,000 so that 10 lie beyond p99
    "setup_samples": 8,    # half before the rounds, half after
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_2w_s": "s",
    "decide_ms_p50": "ms",
    "decide_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """A job could not run; the benchmark prints no result."""


def spawn(spec):
    spec = dict(spec, spawned=time.monotonic())
    # A session of its own, so a timeout can stop the job's pool workers too.
    return subprocess.Popen(
        [sys.executable, str(JOB), json.dumps(spec)], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)


def run_jobs(*specs):
    """Run the jobs concurrently and return their reports in order.

    Jobs that take part in timing say "ready" after their set-up and wait
    for a line on stdin, so that concurrent jobs start their timed work
    together and a slower set-up does not stretch the 2-process wall time.
    """
    procs = [spawn(spec) for spec in specs]
    try:
        if not specs[0].get("setup_only"):
            for proc in procs:
                if proc.stdout.readline().strip() != "ready":
                    break  # the job failed; communicate() reports it
            for proc in procs:
                try:
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                except BrokenPipeError:
                    pass  # the job failed; communicate() reports it
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=JOB_TIMEOUT_S)
            if proc.returncode != 0:
                raise BenchError(f"job exited with {proc.returncode}: "
                                 f"{err.strip()[-2000:]}")
            reports.append(json.loads(out.strip().splitlines()[-1]))
        return reports
    except subprocess.TimeoutExpired:
        raise BenchError(f"a job ran longer than {JOB_TIMEOUT_S} s") from None
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def span_of(reports):
    """Reference seconds from the first report's start to the last one's
    end, each job's part scaled by the speed of its own core."""
    start = min(r["t_start"] for r in reports)
    return max((r["t_end"] - start) * r["speed"] for r in reports)


# Per workload: the serial job and the jobs that run the same work on two
# processes.  Census uses the library's own pool (workers=2); the others
# have none, so their independent parts run in two concurrent interpreters.

def census_jobs(size, seed, rnd):
    base = {"job": "census", "side": size["census_side"],
            "expected": size["census_expected"], "seed": seed, "round": rnd}
    return (dict(base, workers=1, probe=size["probe_pairs"]),
            [dict(base, workers=2)])


def volume_reps_jobs(size, seed, rnd):
    base = {"job": "volume-reps", "seed": seed, "round": rnd}
    pairs = list(zip(size["volumes"], size["volumes_expected"]))
    serial = dict(base, volumes=size["volumes"],
                  expected=size["volumes_expected"], probe=size["probe_pairs"])
    return serial, [dict(base, volumes=[v], expected=[e]) for v, e in pairs]


def decide_jobs(size, seed, rnd):
    base = {"job": "decide", "seed": seed, "round": rnd,
            "pairs": size["decide_pairs"]}
    return (dict(base, part=[0, 1]),
            [dict(base, part=[0, 2], compare=True),
             dict(base, part=[1, 2], compare=True)])


WORKLOADS = {
    "census": census_jobs,
    "volume-reps": volume_reps_jobs,
    "decide": decide_jobs,
}


def check_parallel(workload, serial, parallel, counts):
    """The two-process job must give the serial job's results."""
    if workload == "census":
        for report in parallel:
            # A report that already failed its own check is not counted twice.
            if report["failed"] == 0 and report["output"] != serial["output"]:
                counts["failed"] += 1
                counts["problems"].append(
                    "census: workers=2 result differs from workers=1")
    elif workload == "decide":
        expected = serial["output"]["answers"]
        for k, report in enumerate(parallel):
            for i, got in enumerate(report["output"]["answers"]):
                counts["attempted"] += 1
                if got != expected[k + len(parallel) * i]:
                    counts["failed"] += 1
                    counts["problems"].append(
                        f"decide: pair {k + len(parallel) * i} answered "
                        "differently in the two-process job")


def tally(counts, reports):
    for report in reports:
        counts["attempted"] += report["attempted"]
        counts["failed"] += report["failed"]
        counts["problems"].extend(report["problems"])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seed, seconds, size):
    """Untraced rounds for about `seconds`; the end-to-end metrics.

    Every time is in reference seconds (speed.py), so a core slowed by
    other load on a shared host does not show as a slower program.  Wall
    times are the median over rounds, latencies percentiles over all
    calls."""
    jobs = WORKLOADS[workload]
    counts = {"attempted": 0, "failed": 0, "problems": []}
    serial_spec, _ = jobs(size, seed, 0)

    def sample_setups(count):
        return [run_jobs(dict(serial_spec, setup_only=True))[0]["setup_s"]
                for _ in range(count)]

    setups = sample_setups(size["setup_samples"] // 2)
    walls, walls_2w, rss, latencies = [], [], [], []
    speed_samples = 0
    started = time.monotonic()
    rnd = 0
    while True:
        round_started = time.monotonic()
        serial_spec, parallel_specs = jobs(size, seed, rnd)
        serial = run_jobs(serial_spec)[0]
        parallel = run_jobs(*parallel_specs)
        tally(counts, [serial] + parallel)
        check_parallel(workload, serial, parallel, counts)
        setups.append(serial["setup_s"])
        walls.append(serial["wall_s"])
        walls_2w.append(span_of(parallel))
        rss.append(serial["rss_mb"])
        speed_samples += serial["speed_samples"]
        latencies += (serial["output"]["latency_ms"] if workload == "decide"
                      else serial["probe_latency_ms"])
        rnd += 1
        now = time.monotonic()
        # Start another round only if one as long as this one ends in time.
        if (now - started) + (now - round_started) > seconds:
            break
    setups += sample_setups(size["setup_samples"] - size["setup_samples"] // 2)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "wall_2w_s": statistics.median(walls_2w),
        "decide_ms_p50": percentile(latencies, 0.50),
        "decide_ms_p99": percentile(latencies, 0.99),
        "peak_rss_mb": statistics.median(rss),
    }
    samples = {"rounds": rnd, "setup": len(setups),
               "decide_calls": len(latencies),
               "serial_speed_samples": speed_samples}
    return metrics, counts, samples


def layer_metrics(traced, traced_2w, untraced, untraced_2w):
    """Per-layer metrics from the traced job's spans."""
    tr = traced["trace"]
    calls, secs, self_s = tr["calls"], tr["seconds"], tr["self_seconds"]
    counts = tr["counts"]
    m = {
        "census.enumerate_convex_polygons.s":
            secs.get("census.enumerate_convex_polygons", 0),
        "census.enumerate_convex_polygons_2w.s":
            traced_2w["trace"]["seconds"].get(
                "census.enumerate_convex_polygons", 0) if traced_2w else 0,
        "census.polygons": counts.get("census.polygons", 0),
        "census.self_s": self_s.get("census.census", 0),
        "census.build_volume_representatives.self_s":
            self_s.get("census.build_volume_representatives", 0),
        # base: untraced wall_s and wall_2w_s of this run's census jobs
        "census.parallel_efficiency":
            untraced["wall_s"] / (2 * untraced_2w["wall_s"]) if untraced_2w else 0,
    }
    for span in ("equivalence.canonical_polygon", "geometry.LatticePolytope"):
        m[span + ".calls"] = calls.get(span, 0)
        m[span + ".s"] = secs.get(span, 0)
    for name in tracing.DECIDERS:
        span = "equivalence." + name
        m[span + ".calls"] = calls.get(span, 0)
        m[span + ".s"] = secs.get(span, 0)
        m[span + ".positive"] = counts.get(span + ".positive", 0)
        for slug in tracing.REJECT_SLUGS:
            m[f"{span}.reject.{slug}"] = counts.get(f"{span}.reject.{slug}", 0)
    for name in tracing.INVARIANTS:
        m[f"invariants.{name}.calls"] = calls.get("invariants." + name, 0)
        m[f"invariants.{name}.s"] = secs.get("invariants." + name, 0)
    # Decider self time: their spans minus the invariant spans inside them.
    m["equivalence.decide.self_s"] = sum(
        self_s.get("equivalence." + name, 0) for name in tracing.DECIDERS)
    sub = "lattices.sublattice_info"
    m[sub + ".calls"] = calls.get(sub, 0)
    m[sub + ".s"] = secs.get(sub, 0)
    m["lattices.index_one_frac"] = (
        counts.get(sub + ".index_one", 0) / calls[sub] if sub in calls else 0)
    m["equivalence.cache_entries"] = traced["cache_entries"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return m


def trace(workload, seed, size):
    """One untraced and one traced copy of the serial job (and, for census,
    of the 2-worker job) on the same inputs; the per-layer metrics."""
    serial_spec, parallel_specs = WORKLOADS[workload](size, seed, 0)
    plain = {k: v for k, v in serial_spec.items() if k != "probe"}
    untraced = run_jobs(plain)[0]
    traced = run_jobs(dict(plain, trace=True))[0]
    reports = [untraced, traced]
    untraced_2w = traced_2w = None
    if workload == "census":
        untraced_2w = run_jobs(parallel_specs[0])[0]
        traced_2w = run_jobs(dict(parallel_specs[0], trace=True))[0]
        reports += [untraced_2w, traced_2w]
    counts = {"attempted": 0, "failed": 0, "problems": []}
    tally(counts, reports)
    if workload == "census":
        check_parallel(workload, untraced, [untraced_2w, traced_2w], counts)
    metrics = layer_metrics(traced, traced_2w, untraced, untraced_2w)
    return metrics, counts, {"rounds": 1, "traced_jobs": len(reports) // 2}


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", "_efficiency")):
        return "ratio"
    return "count"


def git_sha():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload, seed, seconds, traced, size=FULL):
    """Metrics, operation counts and sample counts of one benchmark run."""
    if traced:
        return trace(workload, seed, size)
    return measure(workload, seed, seconds, size)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        metrics, counts, samples = run(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value} {unit(name)}")
    attempted, failed = counts["attempted"], counts["failed"]
    print(f"failed_frac = {failed / attempted} ({failed} of {attempted} "
          f"operations)")
    for problem in counts["problems"][:10]:
        print(f"FAILED: {problem}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
              "samples": samples}
    print("run record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
