#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--seconds 1] [--seed 7]

Runs every workload twice with --trace 1 and the same seed, and fails
unless both runs verify every op and agree exactly on every count
metric: the modeled device time (perfmodel.sim_us_per_op), the I/O
counts (hwsim.*_per_op), the allocation counts (*_kw), the generated
code sizes (*_bytes), the GC word counts (gc.*) and the fault-campaign
tallies (faultcamp.*). It also checks that each workload measures the
layers it is meant to, and that a run refuses to start with a DEVIL_*
variable set.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

# Metrics each workload must report as non-zero in a traced run.
OWN = {
    "toolchain": ["devil_syntax.parse_us", "devil_codegen.c_bytes",
                  "devil_runtime.plan_compile_kw"],
    "driver_io": ["perfmodel.sim_us_per_op", "hwsim.singles_per_op",
                  "hwsim.busy_us_per_op", "drivers.ide_pio_read_us"],
    "fault_campaign": ["faultcamp.trials_per_op", "drivers.machine_create_us",
                       "gc.major_kw_per_op"],
}


def is_count(name):
    return (name == "perfmodel.sim_us_per_op"
            or (name.startswith("hwsim.") and name.endswith("_per_op")
                and not name.startswith("hwsim.busy"))
            or name.endswith("_kw") or name.endswith("_bytes")
            or name.startswith("gc.") or name.startswith("faultcamp."))


def run(workload, seed, seconds, env=None):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args()
    problems = []
    for workload, own in OWN.items():
        a = run(workload, args.seed, args.seconds)
        b = run(workload, args.seed, args.seconds)
        if a is None or b is None:
            problems.append("%s: run failed" % workload)
            continue
        for r in (a, b):
            if not r["correct"] or r["failed"]:
                problems.append("%s: %d of %d ops failed"
                                % (workload, r["failed"], r["attempted"]))
        counts = [n for n, m in a["metrics"].items()
                  if is_count(n) and m["value"] != 0]
        for name in filter(is_count, a["metrics"]):
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                problems.append("%s: %s differs between runs: %r vs %r"
                                % (workload, name, va, vb))
        for name in own:
            if a["metrics"][name]["value"] == 0:
                problems.append("%s: %s not measured" % (workload, name))
        print("%s: %d count metrics identical across two runs"
              % (workload, len(counts)))
    env = dict(os.environ, DEVIL_TRACE="1")
    if run("toolchain", args.seed, 1, env) is not None:
        problems.append("a run with DEVIL_TRACE set did not refuse to start")
    for msg in problems:
        print("FAIL " + msg)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
