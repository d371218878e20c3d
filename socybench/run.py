#!/usr/bin/env python3
"""Build the socyield benchmark and run one workload in a fresh process.

Usage, from the root of a socyield checkout:

    python3 socybench/run.py --workload table4-cold --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics. A traced run spends half its seconds on an untraced process and
half on a traced one, so that it can report the tracing overhead and the
time no timed layer accounts for; on serve-mix the traced process measures
both itself. The last line of standard output is the
JSON result. The exit code is 0 only if every checked result was right.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["table4-cold", "grid-small", "serve-mix", "table4-par"]
# Workloads whose traced process also times its traced work untraced, so
# that the overhead and unaccounted time compare like with like.
IN_PROCESS_BASELINE = {"serve-mix"}
EXE = os.path.join("_build", "default", "socybench", "socybench.exe")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("socybench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a socyield checkout (no dune-project or lib/ here)")
    try:
        r = subprocess.run(
            # No shared dune cache: the build writes only inside the checkout.
            ["dune", "build", "--root", ".", "--display", "quiet", "--cache=disabled",
             "./socybench/socybench.exe"],
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def commit():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the library sources, to tell measured code apart."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk("lib"):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(base, f)
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_exe(args, seconds, trace, stamp):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(trace)] + stamp
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s --trace %d did not finish in %d s" % (args.workload, trace, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(r.stdout)
        fail("%s --trace %d printed no result (exit %d)" % (args.workload, trace, r.returncode))
    detail = next(json.loads(l[len("# detail "):]) for l in lines if l.startswith("# detail "))
    return r.returncode, lines, json.loads(lines[-1]), detail


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    build()
    stamp = ["--nproc", str(len(os.sched_getaffinity(0))), "--commit", commit(),
             "--digest", source_digest()]
    if args.trace == 0:
        rc, lines, _, _ = run_exe(args, args.seconds, 0, stamp)
        print("\n".join(lines))
        sys.exit(rc)
    if args.workload in IN_PROCESS_BASELINE:
        rc0, lines0, res0 = 0, [], {"correct": True, "attempted": 0, "failed": 0}
        rc1, lines1, res1, det1 = run_exe(args, args.seconds, 1, stamp)
        det0 = {"per_eval_ms": det1["baseline_per_eval_ms"],
                "throughput_per_s": det1["baseline_throughput_per_s"]}
    else:
        rc0, lines0, res0, det0 = run_exe(args, args.seconds / 2, 0, stamp)
        rc1, lines1, res1, det1 = run_exe(args, args.seconds / 2, 1, stamp)
    overhead = det0["throughput_per_s"] / det1["throughput_per_s"]
    unaccounted = det0["per_eval_ms"] - det1["per_eval_ms"]
    metrics = res1["metrics"]
    metrics["trace.overhead_ratio"]["value"] = overhead
    metrics["pipeline.unaccounted_ms"]["value"] = unaccounted
    for l in lines0[:-1]:
        print("# untraced " + l.lstrip("# "))
    print("\n".join(lines1[:-1]))
    print("# pipeline.unaccounted_ms %.4f ms per evaluation (%.1f%% of the untraced %.4f ms)"
          % (unaccounted, 100.0 * unaccounted / det0["per_eval_ms"], det0["per_eval_ms"]))
    print("# trace.overhead_ratio %.4f (untraced %.4f/s, traced %.4f/s)"
          % (overhead, det0["throughput_per_s"], det1["throughput_per_s"]))
    correct = res0["correct"] and res1["correct"]
    print(json.dumps({"correct": correct, "attempted": res0["attempted"] + res1["attempted"],
                      "failed": res0["failed"] + res1["failed"], "metrics": metrics}))
    sys.exit(0 if correct and rc0 == 0 and rc1 == 0 else 1)


if __name__ == "__main__":
    main()
