#!/usr/bin/env python3
"""Appends one row to BENCH_history.jsonl from benchmark/out/report.json.

Run `bash benchmark/run.sh` in full on the finished tree, then this script,
before committing: HEAD is then the parent commit the row records. A PR that
claims a gain passes the summaries `bench_ab.py` printed with `--ab FILE`;
they are filed in the row under "ab".
"""
import argparse, json, pathlib, subprocess, sys

root = pathlib.Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser(description=__doc__)
parser.add_argument("--pr", type=int, required=True, help="number of the PR the run measured")
parser.add_argument("--ab", type=pathlib.Path, help="bench_ab.py output lines to file in the row")
args = parser.parse_args()
pr = args.pr
report = json.loads((root / "benchmark/out/report.json").read_text())
if not report["comparable"]:
    sys.exit('error: the report says "comparable": false (a --quick run); run `bash benchmark/run.sh` in full')
if any(run["failed"] for run in report["runs"]):
    sys.exit("error: the report counts failed operations; a wrong row is worse than none")
head = subprocess.check_output(["git", "-C", str(root), "rev-parse", "HEAD"], text=True).strip()
runs = [
    {"workload": run["workload"], "traced": run["traced"], "digest": run["digest"],
     "metrics": {name: metric["value"] for name, metric in run["metrics"].items()}}
    for run in report["runs"]
]
row = {"pr": pr, "parent": head, "seed": report["seed"], "cores": report["cores"], "runs": runs}
if args.ab:
    row["ab"] = [json.loads(line) for line in args.ab.read_text().splitlines() if line.strip()]
with open(root / "BENCH_history.jsonl", "a") as history:
    history.write(json.dumps(row, separators=(",", ":")) + "\n")
print(f"appended PR {pr}: {len(runs)} runs at seed {row['seed']} on {row['cores']} core(s)")
