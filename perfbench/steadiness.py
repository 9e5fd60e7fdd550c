#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report how steady
its end-to-end metrics are.

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance as a share of the median, from
statistics.quantiles(values, n=4)) next to the metric's bound from
BENCHMARK.json. With --sets 2 it repeats the whole set and also prints how
far the second median moved from the first. It also checks that different
seeds run identical op counts per class and per spec in a round.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --sets 2 --out perfbench/STEADINESS.md
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    per_round = next((l for l in lines if l.startswith("ops per round:")), "")
    return result, per_round, elapsed


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--sets", type=int, default=1, help="independent sets of runs")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="", help="also write the report as markdown here")
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = []

    def emit(line=""):
        print(line, flush=True)
        out.append(line)

    emit(f"# Steadiness: {opts.sets} set(s) x {opts.seeds} seed(s) x {seconds} s per run")
    emit()
    medians = {}
    for s in range(opts.sets):
        seeds = [opts.first_seed + s * opts.seeds + i for i in range(opts.seeds)]
        emit(f"## Set {s + 1} (seeds {seeds[0]}..{seeds[-1]})")
        emit()
        for w in workloads:
            values = {name: [] for name in bounds}
            rounds = set()
            elapsed = []
            for seed in seeds:
                result, per_round, took = run_once(command, w, seed, seconds)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: incorrect result {result}")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                rounds.add(per_round)
                elapsed.append(took)
            emit(f"### {w}")
            emit()
            emit(f"runs took {min(elapsed):.1f}-{max(elapsed):.1f} s; op counts per round "
                 f"{'identical' if len(rounds) == 1 else 'DIFFER'} across seeds: "
                 f"`{sorted(rounds)[0]}`")
            emit()
            emit("| metric | q1 | median | q3 | spread | bound | spread < bound/3 |")
            emit("|---|---|---|---|---|---|---|")
            for name, vals in values.items():
                q1, med, q3, spread = summary(vals)
                medians.setdefault((w, name), []).append(med)
                ok = "yes" if spread < bounds[name] / 3 else "no"
                emit(f"| {name} | {q1:.6g} | {med:.6g} | {q3:.6g} | {spread:.4f} | "
                     f"{bounds[name]} | {ok} |")
            emit()
    if opts.sets > 1:
        emit("## Second median against the first")
        emit()
        emit("| workload | metric | set 1 median | set 2 median | change | bound |")
        emit("|---|---|---|---|---|---|")
        for (w, name), meds in medians.items():
            change = meds[1] / meds[0] - 1
            emit(f"| {w} | {name} | {meds[0]:.6g} | {meds[1]:.6g} | {change:+.4f} | "
                 f"{bounds[name]} |")
        emit()
    if opts.out:
        with open(opts.out, "w") as f:
            f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
