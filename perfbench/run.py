#!/usr/bin/env python3
"""Build and run the race-detection benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spmix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The first form builds perfbench/perfbench.exe with dune (build output
goes to stderr) and runs it; the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}.  The
second form runs every workload at a smoke size and checks the output
against BENCHMARK.json, including a planted negative control.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    # The dune cache lives outside the checkout; keep every write inside.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run(args):
    """Run the benchmark program; returns (exit code, stdout lines)."""
    try:
        r = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out: " + " ".join(args))
    return r.returncode, r.stdout.splitlines()


def self_check():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            args = ["--workload", name, "--seed", "1", "--seconds", "0.2",
                    "--trace", str(trace), "--size", "smoke"]
            code, lines = run(args)
            if code != 0:
                problems.append("%s trace=%d: exit %d" % (name, trace, code))
                continue
            res = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                problems.append("%s trace=%d: metrics %s, expected %s"
                                % (name, trace, got, expected[trace]))
            if not res["correct"] or res["failed"] != 0:
                problems.append("%s trace=%d: correct=%s failed=%d"
                                % (name, trace, res["correct"], res["failed"]))
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (name, k))
            # The exact counts repeat from run to run.
            counts = [l for l in lines if l.startswith("counts:")]
            _, again = run(args)
            counts_again = [l for l in again if l.startswith("counts:")]
            strip = lambda ls: [l.rsplit(" calls=", 1)[0] for l in ls]
            if not counts or strip(counts) != strip(counts_again):
                problems.append("%s trace=%d: counts differ: %s vs %s"
                                % (name, trace, counts, counts_again))
    # Negative control: a reference with one race dropped fails exactly
    # one program.
    code, lines = run(["--workload", "spmix", "--seed", "1", "--seconds",
                       "0.2", "--trace", "0", "--size", "smoke",
                       "--plant-drop-race"])
    res = json.loads(lines[-1]) if code == 0 else None
    if res is None or res["failed"] != 1 or res["correct"]:
        problems.append("planted dropped race: expected failed=1, got %s"
                        % (res and {k: res[k] for k in ("correct", "failed")}))
    for p in problems:
        print("self-check: " + p)
    print("self-check: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main():
    argv = sys.argv[1:]
    if argv in (["-h"], ["--help"]):
        print(__doc__)
        return 0
    build()
    if argv == ["--self-check"]:
        return self_check()
    code, lines = run(argv)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
