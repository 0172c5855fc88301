#!/usr/bin/env python3
"""Build and run the Sprayer benchmark suite for one workload.

    python3 bench/suite/run.py --workload wide --seed 3 --seconds 24 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The suite is built from source into $CARGO_TARGET_DIR (default
.bench_build) on first use. The binary's own report is echoed; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, holding the end-to-end metrics named in
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1). The exit
code is 0 only when every output check passed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(SUITE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(build_dir), "--target", "sprayer_suite",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return build_dir / "sprayer_suite"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sprayer sources under {ROOT / 'src'}", 2)
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} not found", 2)
    spec = json.loads(spec_path.read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; one of {sorted(names)}", 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "sprayer_suite"
    binary = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(exist_ok=True)

    cmd = [str(binary), f"workload={args.workload}", f"seed={args.seed}",
           f"seconds={args.seconds:g}", f"traced={args.trace}",
           f"out={out_dir / f'{args.workload}.seed{args.seed}'}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"suite did not finish within {RUN_TIMEOUT_S} s")
    record = None
    for line in proc.stdout.splitlines():
        print(line)
        if line.startswith("{"):
            record = json.loads(line)
    if record is None or proc.returncode not in (0, 1):
        fail(f"suite exited with {proc.returncode} and no result")

    metrics = {}
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            fail(f"suite did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = got
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
