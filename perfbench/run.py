#!/usr/bin/env python3
"""Build and run the HawkSim benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds a
Release tree of the simulator library and the `perfbench` driver
under .bench_build/perfbench; later calls only re-check it. The
driver's output is passed through: one context line, one line per
metric, and, last, one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result line, if the
build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    """Run @p cmd with its output appended to @p log; True on success."""
    with open(log, "a") as out:
        ok = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                            cwd=ROOT).returncode == 0
    if not ok:
        tail = log.read_text(errors="replace").splitlines()[-25:]
        print("\n".join(tail), file=sys.stderr)
    return ok


def build(targets):
    """Configure (once) and build @p targets; exit on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "perfbench-build.log"
    log.write_text("")
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                           "-DCMAKE_BUILD_TYPE=Release", *gen], log):
            # Leave no half-configured tree for a later call to trust.
            shutil.rmtree(BUILD, ignore_errors=True)
            fail(f"configure failed (log: {log})")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not run_logged(["cmake", "--build", str(BUILD), "-j", jobs,
                       "--target", *targets], log):
        fail(f"build failed (log: {log})")


def revision():
    """Commit of the checkout, or a digest of the simulator sources."""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "hawksim.hh").exists():
        fail("HawkSim sources not found next to perfbench/")
    build(["perfbench"])
    cmd = [str(DRIVER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", revision()]
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", code=3)
    if res.returncode != 0:
        fail(f"driver exited with {res.returncode}", code=res.returncode)
    sys.stdout.write(res.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
