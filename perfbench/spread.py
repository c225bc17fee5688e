#!/usr/bin/env python3
"""Measure the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--seconds N] [WORKLOAD ...]

Runs perfbench/run.py --trace 0 once per seed (seeds first-seed,
first-seed+1, ...) on each workload, one run at a time, and prints for
every end-to-end metric its median, its quartiles and the spread: the
distance between the quartiles (statistics.quantiles, n=4) as a share
of the median. A spread is flagged when it exceeds the metric's bound
in BENCHMARK.json, or a third of it (setup_s is not bounded by its
spread). The host fingerprint heads the output.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    def ocaml(*args):
        try:
            return subprocess.run(["ocamlfind", "ocamlopt"] + list(args),
                                  capture_output=True, text=True).stdout.strip()
        except OSError:
            return "unknown"
    flambda = "on" if "flambda: true" in ocaml("-config") else "off"
    return "%s, nproc %d, OCaml %s, flambda %s, %s" % (
        cpu, os.cpu_count(), ocaml("-version"), flambda, platform.machine())


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    print("host:", fingerprint())
    values = {}
    for w in args.workloads:
        values[w] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            if done.returncode != 0:
                sys.exit("spread: %s seed %d failed" % (w, seed))
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit("spread: %s seed %d: %d of %d ops failed"
                         % (w, seed, result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
        print("\n%s (%d runs, --seconds %d)" % (w, args.runs, args.seconds))
        for m in spec["end_to_end"]:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                if spread > m["bound"]:
                    flag = "  OVER BOUND"
                elif spread > m["bound"] / 3:
                    flag = "  over a third of the bound"
            print("  %-14s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f"
                  " (bound %.2f)%s" % (m["name"], med, q1, q3, spread,
                                       m["bound"], flag))


if __name__ == "__main__":
    main()
