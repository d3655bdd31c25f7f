#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

For every end-to-end metric of BENCHMARK.json this prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, and whether that spread is below a third of the
metric's bound. With --trace 1 it reports the per-layer metrics instead,
and with --overhead it runs traced and untraced runs of each seed in
alternating order and reports the median change of each `traced.*` value
against the untraced value of the same pair (the tracing overhead).

Run from the repository root, after one build:

    python3 perfbench/steadiness.py --workload fig6-grid --seeds 0-9
    python3 perfbench/steadiness.py --workload fig6-grid --seeds 0x10
    python3 perfbench/steadiness.py --workload serve-mixed --seeds 0-4 --overhead
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    """`0-9` is seeds 0 to 9; `0x10` is seed 0 ten times; items join by commas."""
    out = []
    for item in spec.split(","):
        if "x" in item:
            seed, _, count = item.partition("x")
            out += [int(seed)] * int(count)
        else:
            lo, _, hi = item.partition("-")
            out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect result\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--values", action="store_true", help="print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)

    if args.overhead:
        # Alternate traced and untraced runs seed by seed, so drift in the
        # machine's speed hits both sides alike, and report the median of
        # the per-pair changes.
        changes = {}
        for i, seed in enumerate(seeds(args.seeds)):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            pair = {t: run(bench, args.workload, seed, t) for t in order}
            for name, traced in pair[1].items():
                if name.startswith("traced."):
                    base = pair[0][name[len("traced."):]]
                    changes.setdefault(name[len("traced."):], []).append((traced - base) / base)
        print(f"{args.workload}: tracing overhead, {len(seeds(args.seeds))} alternating pairs")
        for name, c in sorted(changes.items()):
            print(f"  {name:18} median change {statistics.median(c):+.2%}  "
                  f"pairs " + " ".join(f"{x:+.1%}" for x in c))
        return

    trace = args.trace
    runs = [run(bench, args.workload, s, trace) for s in seeds(args.seeds)]
    print(f"{args.workload}: {len(runs)} seeds, trace={trace}")
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for name in runs[0]:
        q1, med, q3, spread = summary([r[name] for r in runs])
        line = f"  {name:30} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}"
        if args.values:
            line += "  values " + " ".join(f"{r[name]:.4g}" for r in runs)
        bound = bounds.get(name)
        if bound and trace == 0:
            ok = spread < bound / 3 or name == "setup_s"
            line += f"  bound {bound:.2f} {'ok' if ok else 'WIDE'}"
        print(line)


if __name__ == "__main__":
    main()
