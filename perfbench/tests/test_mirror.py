#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_mirror.py [--seed N]

Run from the repository root; builds into .bench_build/perfbench.

1. Mirror fidelity: for every workload, the driver's canonical report
   entries (scalars, cost block, metrics, seed, simulated time) must be
   byte-identical to what the catalogue CLI, `hawksim_bench --filter
   <point>`, reports for the same points and master seed. This catches
   drift when an experiment under bench/ changes and the benchmark
   does not follow.
2. Inert decorators: the driver's traced pass must reproduce its
   untraced pass bit for bit (`--trace 1` checks this per point and
   reports any difference as a failed point), with trace coverage of
   at least 0.95.
3. The decorator selftest: forwarded name/promotions/save/load.

Exits 0 when every check passes. Takes about two and a half minutes
on four cores.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py: build helpers)

# Catalogue filters covering each workload's points.
CATALOGUE_FILTERS = {
    "native_colocated": [
        "fig8_heterogeneous/workload=cg.D policy=HawkEye-G "
        "order=redis-first"],
    "virt_overcommit": ["fig11_overcommit/mode=hawkeye"],
}
EXPECTED_POINTS = {
    "native_colocated": {"fig8_heterogeneous/15"},
    "virt_overcommit": {"fig11_overcommit/2"},
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def entries(report_path):
    with open(report_path) as f:
        rep = json.load(f)
    return {f"{r['experiment']}/{r['index']}": r for r in rep["runs"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    run.build(["perfbench", "perfbench_selftest", "hawksim_bench"])
    check(subprocess.run([str(run.BUILD / "perfbench_selftest")]
                         ).returncode == 0, "decorator selftest")

    with tempfile.TemporaryDirectory(dir=run.BUILD) as tmp:
        for name, filters in CATALOGUE_FILTERS.items():
            mine = Path(tmp) / f"{name}.json"
            out = subprocess.run(
                [str(run.DRIVER), "--workload", name,
                 "--seed", str(args.seed), "--seconds", "1",
                 "--trace", "1", "--report", str(mine)],
                capture_output=True, text=True)
            check(out.returncode == 0, f"{name}: driver runs")
            if out.returncode != 0:
                print(out.stderr, file=sys.stderr)
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(result["correct"] and result["failed"] == 0,
                  f"{name}: traced pass bit-identical to untraced "
                  f"({result['failed']} of {result['attempted']} failed)")
            coverage = result["metrics"]["trace.coverage_frac"]["value"]
            check(coverage >= 0.95, f"{name}: coverage {coverage:.4f}")

            reference = {}
            for i, flt in enumerate(filters):
                ref = Path(tmp) / f"{name}-ref{i}.json"
                subprocess.run(
                    [str(run.BUILD / "hawksim_bench"), "--filter", flt,
                     "--seed", str(args.seed), "--jobs", "2", "--quiet",
                     "--out", str(ref)], check=True)
                reference.update(entries(ref))
            got = entries(mine)
            check(set(got) == EXPECTED_POINTS[name]
                  and set(reference) == EXPECTED_POINTS[name],
                  f"{name}: mirrors exactly its catalogue points")
            for key in sorted(reference):
                check(got.get(key) == reference[key],
                      f"{name}: {key} identical to hawksim_bench")

    print("mirror test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
