"""Self-test of the benchmark at tiny sizes.

Usage (from the root of a checkout):  python3 bench/selftest.py

Runs every workload untraced and traced on box:2, V=4 and a few decider
pairs through the same code as run.py.  It checks that each run reports
exactly the metrics BENCHMARK.json declares, with no failed operation;
that the traced counts of box:2 repeat the known census; that one
deliberately wrong reference value is counted as a failed operation; and
that run.py exits non-zero, printing no result, where the library
sources are missing.  Takes a few seconds; exits non-zero on any problem.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

# box:2 has 168 polygons in 17 unimodular and 9 affine classes; V=4 has
# 4 representatives.
TINY = dict(
    run.FULL,
    census_side=2,
    census_expected=[168, 17, 9],
    volumes=[4],
    volumes_expected=[4],
    decide_pairs=60,
    probe_pairs=30,
    setup_samples=1,
)


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check(condition, message, problems):
    if not condition:
        problems.append(message)


def main():
    end_to_end, per_layer = declared()
    problems = []
    for workload in run.WORKLOADS:
        for traced, names in ((False, end_to_end), (True, per_layer)):
            label = f"{workload} trace={int(traced)}"
            metrics, counts, _ = run.run(workload, 7, 0.1, traced, TINY)
            check({n: run.unit(n) for n in metrics} == names,
                  f"{label}: metric names or units differ from BENCHMARK.json",
                  problems)
            check(counts["attempted"] > 0 and counts["failed"] == 0,
                  f"{label}: {counts}", problems)
            if not traced:
                check(all(v > 0 for v in metrics.values()),
                      f"{label}: an end-to-end metric is not positive",
                      problems)
            elif workload == "census":
                check(metrics["census.polygons"] == 168
                      and metrics["equivalence.canonical_polygon.calls"] == 168,
                      f"{label}: traced counts differ from box:2's census",
                      problems)

    wrong = dict(TINY, census_expected=[168, 17, 10])
    _, counts, _ = run.run("census", 7, 0.1, False, wrong)
    check(counts["failed"] == 2,
          f"a wrong reference A counted {counts['failed']} failures, not 2 "
          "(one per census job)", problems)

    # Without src/ the benchmark must fail and print no result.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_selftest_") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "decide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
        check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
              f"without sources run.py exited {proc.returncode}", problems)

    for problem in problems:
        print("FAIL:", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
