#!/usr/bin/env python3
"""Alternating parent/change runs of benchmark workloads, summarised.

Build both trees' `rtsm_benchmark` (each into its own CARGO_TARGET_DIR),
then, for example:

    python3 scripts/bench_ab.py --parent P/release/rtsm_benchmark \\
        --change C/release/rtsm_benchmark --workload overload_reject \\
        --seed 2008 --pairs 10 --seconds 30 >> ab.jsonl

`--workload` takes several names (`--workload mixed_hit recover`, or the
flag repeated). Each pair runs both with `--trace 0`, the parent first in
every other pair and the change first in the rest; with several
workloads, every round runs one pair of each workload, in the order
given, so host drift over the call is spread across them. One line is
printed per workload, in that order. It
holds, per end-to-end metric of BENCHMARK.json, both sides'
median and quartiles and the pairs the change won (strictly better in the
metric's direction), and a verdict:

  gain        the change won at least 9/10 of the pairs and the medians
              differ, the change's way, by more than the parent's IQR;
  worse       the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound (a fraction of the parent's);
  unresolved  neither, and either side's IQR is wider than that bound,
              unless every change run reads better than every parent run;
  same        otherwise.

A metric that reads one value in every run of each side — exact for a
seed, as `blocked_permille` and `peak_live_kib` are — also carries
`exact`: the change's value minus the parent's, absolutely and in percent
of the parent's, so that a shift inside the bound shows in the line
instead of reading as `same`. A one-line summary of each such metric goes
to stderr.

`bench_history.py --ab ab.jsonl` files the lines in the PR's history row.
"""
import argparse, json, pathlib, statistics, subprocess, sys, tempfile

root = pathlib.Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
parser.add_argument("--parent", required=True, help="the parent commit's rtsm_benchmark binary")
parser.add_argument("--change", required=True, help="the change's rtsm_benchmark binary")
parser.add_argument("--workload", required=True, nargs="+", action="extend")
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--pairs", type=int, default=10)
parser.add_argument("--seconds", type=int, default=30)
args = parser.parse_args()
end_to_end = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
better = {m["name"]: m["better"] for m in end_to_end}
bound = {m["name"]: m["bound"] for m in end_to_end}


def run(binary, out, workload):
    line = subprocess.run(
        [binary, "--out", out, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout.strip().splitlines()[-1]
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: {binary} ran {workload} incorrectly: {line}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(name, parent, change, won):
    """The rule of the module docs, for one metric's runs."""
    sign = -1 if better[name] == "lower" else 1
    p, c = spread(parent), spread(change)
    gained = sign * (c["median"] - p["median"])
    tolerance = bound[name] * abs(p["median"])
    if won * 10 >= 9 * len(parent) and gained > p["q3"] - p["q1"]:
        return "gain"
    if -gained > tolerance:
        return "worse"
    all_better = min(sign * x for x in change) > max(sign * x for x in parent)
    if max(p["q3"] - p["q1"], c["q3"] - c["q1"]) > tolerance and not all_better:
        return "unresolved"
    return "same"


def summary(workload, pairs):
    """One workload's line: every end-to-end metric over its pairs."""
    metrics = {}
    for name, direction in better.items():
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        won = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        metrics[name] = {"parent": spread(parent), "change": spread(change), "change_won": won}
        if len(set(parent)) == 1 and len(set(change)) == 1:
            delta = change[0] - parent[0]
            pct = 100 * delta / parent[0] if parent[0] else None
            metrics[name]["exact"] = {"delta": delta, "pct": pct}
        metrics[name]["verdict"] = verdict(name, parent, change, won)
        if "exact" in metrics[name]:
            shown = "n/a" if pct is None else f"{pct:+.2f} %"
            print(f"{workload} seed {args.seed} {name}: {parent[0]:g} -> {change[0]:g} "
                  f"({delta:+g}, {shown}), {metrics[name]['verdict']}", file=sys.stderr)
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "pairs": args.pairs, "metrics": metrics}


pairs = {workload: [] for workload in args.workload}
with tempfile.TemporaryDirectory() as parent_out, tempfile.TemporaryDirectory() as change_out:
    for i in range(args.pairs):
        for workload in args.workload:
            if i % 2 == 0:
                parent = run(args.parent, parent_out, workload)
                change = run(args.change, change_out, workload)
            else:
                change = run(args.change, change_out, workload)
                parent = run(args.parent, parent_out, workload)
            pairs[workload].append((parent, change))
for workload, runs in pairs.items():
    print(json.dumps(summary(workload, runs), separators=(",", ":")))
