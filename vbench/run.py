#!/usr/bin/env python3
"""Builds and runs the vdep end-to-end benchmark.

    python3 vbench/run.py --workload suite_postfix --seed 1 --seconds 12 --trace 0
    python3 vbench/run.py --selftest

Builds the library and the vbench program in Release under
$CARGO_TARGET_DIR/vbench (default .bench_build/vbench) from the checkout's
own sources, runs one workload in a run-private directory (JIT work
directories, kernel disk caches) and removes that directory afterwards.
The last line printed is the result object. --selftest plants each of the
benchmark's faults in turn and fails unless every one is caught.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CLEARED_ENV = ("VDEP_TRACE", "VDEP_METRICS", "VDEP_CACHE_DIR", "VDEP_PIN")
WORKLOADS = ("suite_postfix", "first_use")
# (workload, planted fault): each must fail exactly one operation and make
# the run report its outputs as incorrect.
FAULTS = (
    ("suite_postfix", "store"),
    ("suite_postfix", "iters"),
    ("suite_postfix", "classes"),
    ("first_use", "ccruns"),
)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "vbench")


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "vbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(bdir, "vbench")


def leftovers(run_dir):
    """vdep-jit-* work directories the run failed to remove."""
    found = []
    for base, dirs, _ in os.walk(run_dir):
        found += [os.path.join(base, d) for d in dirs if d.startswith("vdep-jit-")]
    return found


def run_once(exe, bdir, workload, seed, seconds, trace, fault=None):
    """Runs vbench once; returns (exit code, stdout text)."""
    run_dir = tempfile.mkdtemp(prefix="run-", dir=bdir)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["TMPDIR"] = os.path.join(run_dir, "tmp")
    os.makedirs(env["TMPDIR"])
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--scratch", run_dir]
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(bdir, "traces", workload + ".json")]
    if fault:
        cmd += ["--fault", fault]
    try:
        proc = subprocess.run(cmd + ["--t0-ns", str(time.time_ns())], env=env,
                              stdout=subprocess.PIPE, text=True)
        left = leftovers(run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out = proc.stdout
    if proc.returncode == 0 and left:
        lines = out.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        result["correct"] = False
        print("vbench: left behind " + ", ".join(left), file=sys.stderr)
        out = "\n".join(lines[:-1] + [json.dumps(result)]) + "\n"
    return proc.returncode, out


def selftest(exe, bdir):
    ok = True
    for workload, fault in FAULTS:
        code, out = run_once(exe, bdir, workload, 1, 1, False, fault)
        result = json.loads(out.strip().split("\n")[-1]) if code == 0 else None
        caught = result is not None and not result["correct"] and result["failed"] == 1
        print("%-17s %-8s %s" % (workload, fault, "caught" if caught else "MISSED: %r" % result))
        ok = ok and caught
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    try:
        exe = build(bdir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("vbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if args.selftest:
        return selftest(exe, bdir)
    code, out = run_once(exe, bdir, args.workload, args.seed, args.seconds,
                         args.trace == 1)
    if code != 0:
        print("vbench: exited with %d" % code, file=sys.stderr)
        return code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
