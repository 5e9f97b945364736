#!/usr/bin/env python3
"""End-to-end benchmark of the MICCO repository.

Builds perfbench/micco_e2e from this checkout's sources, runs one workload
in its own process and relays its output: a table of every metric with its
unit and sample count, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # each workload in turn
    python3 perfbench/run.py --smoke              # all workloads, both modes,
                                                  # reduced sizes, every check

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger;
BENCHMARK.json at the repository root lists both sets and the result is
checked against it. Build and run files go under $CARGO_TARGET_DIR
(default .bench_build) inside the checkout.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = [
    "redstar-f0d4-oversub200",
    "synth-uniform-64gpu",
    "daemon-a1rhopi-wal",
    "daemon-tiny-mixed",
]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds micco_e2e; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no MICCO sources next to perfbench/ (expected CMakeLists.txt "
             "and src/ in " + ROOT + ")", 2)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "--target", "micco_e2e",
                      "-j", jobs])
        for step in steps:
            proc = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-8000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(out, "micco_e2e")


def expected_metrics(trace):
    """Metric name -> unit for the mode, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, workload, seed, seconds, trace, smoke=False, out=None):
    """Runs one workload; returns (exit code, stdout text)."""
    run_dir = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--run-dir=" + os.path.relpath(run_dir, ROOT)]
    if smoke:
        cmd.append("--smoke")
    if out:
        cmd.append("--out=" + out)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    code = proc.returncode
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return (code or 1), stdout
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s, wrong unit %s" % (missing, extra, wrong),
              file=sys.stderr)
        code = code or 1
    return code, stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write a full JSON report here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload in both modes at reduced size")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    # On SIGTERM the child is still stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if args.smoke:
        failures = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                code, stdout = run(binary, workload, args.seed, 0.3, trace,
                                   smoke=True)
                status = "ok" if code == 0 else "FAILED (exit %d)" % code
                print("smoke %-26s trace=%d %s" % (workload, trace, status))
                if code != 0:
                    sys.stderr.write(stdout)
                    failures += 1
        sys.exit(1 if failures else 0)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    worst = 0
    for workload in workloads:
        out = args.out and os.path.abspath(args.out)
        if out and len(workloads) > 1:
            out = "%s.%s.json" % (os.path.splitext(out)[0], workload)
        code, stdout = run(binary, workload, args.seed, args.seconds,
                           args.trace, out=out)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        worst = worst or code
    sys.exit(worst)


if __name__ == "__main__":
    main()
