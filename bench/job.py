"""One job of the benchmark, run by run.py in a fresh interpreter.

Usage: python3 bench/job.py '<JSON spec>'

The memo caches in lattice_equiv.equivalence live for the whole process
and are keyed on polytope equality, so a second census in one process
would reuse every representative's profile.  A CLI user pays the cold
cost on every run; so does each job here.

The job imports the library from src/ of the checkout, builds its inputs,
reports "ready" and waits for a line on stdin, runs the timed operation
(traced if the spec asks), then checks every output outside the timed
region.  It prints one JSON line: time.monotonic
stamps, which run.py compares across processes, the host speed during the
timed work, the peak RSS of this process, the operations attempted and
failed, and the spans if traced.  Its times are in reference seconds
(speed.py): the speed sampler starts before the library is imported and
runs until the job ends.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "lattice_equiv" / "__init__.py").is_file():
    sys.exit(f"job: no lattice_equiv package under {SRC}")
sys.path.insert(0, str(SRC))

import speed  # noqa: E402

speed.start()

import gen  # noqa: E402
import tracing  # noqa: E402
from lattice_equiv import (  # noqa: E402
    Region,
    canonical_polygon,
    normalized_volume,
    oracle_equivalent,
)


class Checks:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problem):
        """Count one operation.  `problem` is None when it passed, else a
        description or the exception that checking it raised."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem if isinstance(problem, str)
                                     else f"checking raised {problem!r}")


def attempt(fn, *args):
    """fn(*args), or the exception it raised, which its check counts."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def decide_all(pairs, checks=None):
    """Decide every (P, Q, mode) pair, timing each call.  Returns the
    results and each call's (start, end) monotonic stamps; latency_ms()
    turns those into latencies once the speed samples around the last
    call exist.

    With `checks`, each answer is checked right after its call, outside
    the timing, so that the timed calls spread over the whole job."""
    eq = tracing.module("equivalence")  # looked up now: maybe traced
    deciders = {"affine": eq.affine_equivalent,
                "unimodular": eq.unimodular_equivalent,
                "det_one": eq.unimodular_affine_equivalent}
    results, stamps = [], []
    for p, q, mode in pairs:
        decide = deciders[mode]
        with speed.deferred():
            start = time.monotonic()
            result = attempt(decide, p, q)
            end = time.monotonic()
        stamps.append((start, end))
        results.append(result)
        if checks is not None:
            checks.record(attempt(decision_problem, p, q, mode, result))
    return results, stamps


def latency_ms(stamps):
    """Each call's latency in reference milliseconds."""
    return [speed.reference_seconds(t0, t1) * 1e3 for t0, t1 in stamps]


def decision_problem(p, q, mode, result):
    """None when the answer is verified, else what is wrong.  A witness is
    checked exactly; a negative answer against the exhaustive oracle."""
    if isinstance(result, Exception):
        return f"{mode}: decider raised {result!r}"
    if not result:
        if oracle_equivalent(p, q, mode):
            return f"{mode}: answered no ({result.reason}), the oracle finds a map"
        return None
    amap, bijection = result.map, result.bijection
    if sorted(bijection) != list(range(len(p.vertices))):
        return f"{mode}: bijection {bijection} is not a permutation"
    if any(amap.apply(v) != q.vertices[j]
           for v, j in zip(p.vertices, bijection)):
        return f"{mode}: bijection disagrees with the map"
    if set(amap.apply_polytope(p).vertices) != set(q.vertices):
        return f"{mode}: image vertex set differs from Q's"
    det = amap.determinant
    if mode == "unimodular" and not (amap.is_integral and abs(det) == 1):
        return f"unimodular: map is not unimodular (det {det})"
    if mode == "det_one" and det != 1:
        return f"det_one: map has det {det}"
    if det == 0:
        return f"{mode}: map is singular"
    return None


def check_decisions(checks, pairs, results):
    for (p, q, mode), result in zip(pairs, results):
        checks.record(attempt(decision_problem, p, q, mode, result))


# Each job kind: prepare(spec) -> inputs, operate(spec, inputs, checks) ->
# result, check(spec, inputs, result, checks) -> output for run.py.

def census_operate(spec, region, checks):
    census = tracing.module("census").census
    return attempt(lambda: census(region, workers=spec["workers"]))


def census_check(spec, region, result, checks):
    if isinstance(result, Exception):
        checks.record(f"census raised {result!r}")
        return None
    got = [result.h, result.k, result.a]
    total = sum(count for _, count in result.volume_histogram)
    checks.record(
        None if got == spec["expected"] and total == result.h else
        f"census: H, K, A = {got} with histogram total {total}, "
        f"expected {spec['expected']}")
    return {"hka": got, "histogram": result.volume_histogram}


def volume_reps_operate(spec, volumes, checks):
    build = tracing.module("census").build_volume_representatives
    return [attempt(build, v) for v in volumes]


def volume_reps_problem(volume, expected, reps):
    if isinstance(reps, Exception):
        return f"V={volume}: raised {reps!r}"
    if len(reps) != expected:
        return f"V={volume}: {len(reps)} representatives, expected {expected}"
    if any(normalized_volume(rep) != volume for rep in reps):
        return f"V={volume}: a representative has another volume"
    if len({canonical_polygon(rep).serialize() for rep in reps}) != len(reps):
        return f"V={volume}: two representatives are unimodularly equivalent"
    return None


def volume_reps_check(spec, volumes, result, checks):
    for volume, expected, reps in zip(volumes, spec["expected"], result):
        checks.record(attempt(volume_reps_problem, volume, expected, reps))
    return None


def decide_prepare(spec):
    k, of = spec["part"]
    pairs = gen.stream(spec["seed"], f"decide:{spec['round']}", spec["pairs"])
    return pairs[k::of]


def answer(result):
    """JSON form of a decider result, to compare runs of the same pairs."""
    if isinstance(result, Exception):
        return f"raised {result!r}"
    if not result:
        return result.reason
    return [list(result.bijection),
            [[str(x) for x in row] for row in result.map.matrix],
            [str(x) for x in result.map.translation]]


def decide_operate(spec, pairs, checks):
    # A traced job checks after its spans are removed, so that checking
    # adds no calls.  A job with "compare" set leaves checking to run.py,
    # which compares its answers with the serial job's verified ones.
    inline = not (spec.get("trace") or spec.get("compare"))
    return decide_all(pairs, checks if inline else None)


def decide_check(spec, pairs, result, checks):
    results, stamps = result
    if spec.get("trace"):
        check_decisions(checks, pairs, results)
    return {"latency_ms": latency_ms(stamps),
            "answers": [answer(r) for r in results]}


KINDS = {
    "census": (lambda spec: Region.box(spec["side"]), census_operate,
               census_check),
    "volume-reps": (lambda spec: spec["volumes"], volume_reps_operate,
                    volume_reps_check),
    "decide": (decide_prepare, decide_operate, decide_check),
}


def main(spec):
    prepare, operate, check = KINDS[spec["job"]]
    inputs = prepare(spec)
    report = {"setup_s": speed.reference_seconds(spec["spawned"],
                                                 time.monotonic())}
    if spec.get("setup_only"):
        return report
    # Jobs of one round start their timed work together (see run.py).
    print("ready", flush=True)
    sys.stdin.readline()
    tracer = tracing.Tracer() if spec.get("trace") else None
    checks = Checks()
    with tracing.installed(tracer) if tracer else nullcontext():
        report["t_start"] = time.monotonic()
        result = operate(spec, inputs, checks)
        report["t_end"] = time.monotonic()
    report["speed"] = speed.speed(report["t_start"], report["t_end"])
    report["wall_s"] = (report["t_end"] - report["t_start"]) * report["speed"]
    report["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        # Taken before checking, which adds cache entries of its own.
        report["trace"] = tracer.dump()
        report["cache_entries"] = tracing.cache_entries()
    report["output"] = check(spec, inputs, result, checks)
    if spec["job"] == "decide":
        # The calls only, not the checks between them.
        report["wall_s"] = sum(report["output"]["latency_ms"]) / 1e3
    if spec.get("probe"):
        # Cold decider calls in the process the job leaves behind, with
        # every memo cache the job filled still alive.
        probe = gen.stream(spec["seed"], f"probe:{spec['round']}",
                           spec["probe"])
        _, stamps = decide_all(probe, checks)
        report["probe_latency_ms"] = latency_ms(stamps)
    report.update(attempted=checks.attempted, failed=checks.failed,
                  problems=checks.problems, speed_samples=speed.samples())
    return report


if __name__ == "__main__":
    report = main(json.loads(sys.argv[1]))
    speed.stop()
    print(json.dumps(report))
