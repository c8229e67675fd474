#!/usr/bin/env python3
"""Repeatability and A/B checks for the benchmark in BENCHMARK.json.

Run from the repository root:

  python3 perfbench/check.py spread --workload serve-mix --seeds 1-10
      Runs the benchmark once per seed and prints, per end-to-end metric,
      the median and the quartile spread as a share of the median, next
      to the metric's bound.

  python3 perfbench/check.py compare --workload fig8-cold --pairs 10 \
      --a="--jobs 1" --b="--jobs 1 --batch 12"
      Runs A and B in alternating pairs (ABBA), one seed per pair, and
      applies the gain rule: B wins at least nine tenths of the pairs and
      the medians differ by more than A's own quartile spread. With
      --trace it instead compares one traced run of each side, per-layer.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace, extra):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + extra
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(q):
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(q, n=4)
    med = statistics.median(q)
    return (q3 - q1) / med if med else float("inf")


def cmd_spread(args, bench):
    runs = []
    for seed in seeds_of(args.seeds):
        m = run_once(bench, args.workload, seed, args.seconds or bench["run_seconds"], 0, [])
        runs.append(m)
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in m.items()), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    for metric in bench["end_to_end"]:
        vals = [r[metric["name"]] for r in runs]
        s = spread(vals)
        flag = "" if s < metric["bound"] / 3 else ("  (above bound/3)" if s <= metric["bound"] else "  (ABOVE BOUND)")
        print(f"  {metric['name']:<20} median {statistics.median(vals):<12.5g} "
              f"spread {s:6.3f}  bound {metric['bound']}{flag}")


def cmd_compare(args, bench):
    seconds = args.seconds or bench["run_seconds"]
    a_extra, b_extra = args.a.split(), args.b.split()
    if args.trace:
        for label, extra in (("A", a_extra), ("B", b_extra)):
            m = run_once(bench, args.workload, args.seed, seconds, 1, extra)
            print(f"{label}: " + " ".join(f"{k}={v:.4g}" for k, v in m.items()))
        return
    a_runs, b_runs = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("A", a_extra), ("B", b_extra)]
        if i % 2 == 1:
            order.reverse()
        for label, extra in order:
            m = run_once(bench, args.workload, seed, seconds, 0, extra)
            (a_runs if label == "A" else b_runs).append(m)
        print(f"pair {i} (seed {seed}): A {a_runs[-1][args.metric]:.4g}  B {b_runs[-1][args.metric]:.4g}",
              flush=True)
    better = next(m["better"] for m in bench["end_to_end"] if m["name"] == args.metric)
    a = [r[args.metric] for r in a_runs]
    b = [r[args.metric] for r in b_runs]
    wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
    a_med, b_med = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    resolved = abs(b_med - a_med) > (q3 - q1)
    gain = wins >= 0.9 * len(a) and resolved
    print(f"\n{args.metric}: A median {a_med:.4g} (quartiles {q1:.4g}..{q3:.4g}), B median {b_med:.4g}, "
          f"B/A {b_med / a_med:.3f}; B better in {wins}/{len(a)} pairs")
    print("verdict: " + ("gain" if gain else "no resolved gain"))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-5")
    s.add_argument("--seconds", type=int)
    c = sub.add_parser("compare")
    c.add_argument("--workload", required=True)
    c.add_argument("--a", default="")
    c.add_argument("--b", default="")
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--seed", type=int, default=1)
    c.add_argument("--seconds", type=int)
    c.add_argument("--metric", default="request_p50_s")
    c.add_argument("--trace", action="store_true")
    args = p.parse_args()
    bench = load_benchmark()
    (cmd_spread if args.cmd == "spread" else cmd_compare)(args, bench)


if __name__ == "__main__":
    main()
