#!/usr/bin/env python3
"""Build and run the repository benchmark (skipbench) for one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload write_cached --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The benchmark is built from source with CMake into $CARGO_TARGET_DIR
(default .bench_build) under the current directory.  Build output goes to
stderr; the last line of stdout is the benchmark's JSON result.  The exit
code is 0 only when the build succeeded and every correctness check passed.
--self-check runs a short workload with a deliberately wrong oracle answer
and succeeds only if that run is reported as failed.

One run is PROCESSES skipbench processes in a row, each setting up once
and measuring seconds / PROCESSES.  Each metric is the median over the
processes, so setup_s is a median of PROCESSES set-ups.  Separate
processes keep one set-up's freed memory out of the next one's peak RSS,
and a fresh process lands on fresh physical pages, which alone moves the
in-cache workloads by several percent.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["read_large", "write_cached", "scan_mixed", "durable_log"]
PROCESSES = 5
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_root: Path) -> Path:
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "skipbench", "-j", "4"],
        check=True, stdout=sys.stderr)
    return build_dir / "skipbench"


def run_bench(binary: Path, build_root: Path, workload: str, seed: int,
              seconds: float, trace: bool, inject_fault: bool = False,
              trace_file: bool = True, timeout: float = RUN_TIMEOUT_S):
    """Run one skipbench process; returns (exit code, stdout lines)."""
    data_dir = build_root / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--data-dir", str(data_dir)]
    if trace and trace_file:
        traces = build_root / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"skipbench: no result within {timeout:.0f} s")
        return 1, []
    finally:
        if proc.poll() is None:  # timed out, or this script was interrupted
            proc.kill()
            proc.wait()
    return proc.returncode, out.splitlines()


def result_of(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def self_check(binary: Path, build_root: Path) -> int:
    code, lines = run_bench(binary, build_root, "write_cached", 1, 1, False,
                            inject_fault=True)
    res = result_of(lines)
    caught = code != 0 and res is not None and not res["correct"] and res["failed"] >= 1
    log(f"wrong oracle answer: exit {code}, result {res and {k: res[k] for k in ('correct', 'failed')}}")
    code, lines = run_bench(binary, build_root, "write_cached", 1, 1, False)
    res = result_of(lines)
    clean = code == 0 and res is not None and res["correct"] and res["failed"] == 0
    log(f"unmodified oracle:   exit {code}, result {res and {k: res[k] for k in ('correct', 'failed')}}")
    ok = caught and clean
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    # A SIGTERM becomes an exception, so run_bench stops its child first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_root)
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.self_check:
        return self_check(binary, build_root)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, worst = [], 0
    for i in range(PROCESSES):
        code, lines = run_bench(binary, build_root, args.workload, args.seed,
                                args.seconds / PROCESSES, bool(args.trace),
                                trace_file=i == 0,
                                timeout=deadline - time.monotonic())
        res = result_of(lines)
        if res is None:
            log(f"skipbench exited {code} without a result")
            return 1
        results.append(res)
        worst = worst or code
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
