"""Summarize a set of runs: median, quartiles and spread of every metric.

    python3 perfbench/summarize.py --seeds 1-10 [--trace 0] [--write-baseline]

Reads ``result-<workload>-s<seed>-t<trace>.json`` (from ``.perfbench_out/``
or ``--results``) for every workload of BENCHMARK.json and the given seeds,
and prints, per workload and metric, the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (interquartile distance over
the median) against the metric's bound.
``--write-baseline`` stores the table in ``perfbench/baseline.json`` under
the given trace mode, with the host facts of the first run.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
BASELINE = HERE / "baseline.json"


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 0,3,5")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=str(OUT), help="directory of result files")
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    table = {}
    host = None
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in seeds(args.seeds):
            path = Path(args.results) / f"result-{workload}-s{seed}-t{args.trace}.json"
            if path.is_file():
                runs.append(json.loads(path.read_text(encoding="utf-8")))
        if not runs:
            continue
        host = host or runs[0]["host"]
        table[workload] = {"runs": len(runs), "seeds": [r["seed"] for r in runs],
                           "correct": all(r["result"]["correct"] for r in runs), "metrics": {}}
        print(f"{workload}: {len(runs)} runs, all correct: {table[workload]['correct']}")
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            spread = (q3 - q1) / med if med else 0.0
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"]}
            table[workload]["metrics"][m["name"]] = entry
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s":
                worst = max(worst, spread / bound)
                flag = f"  {spread / bound:.2f} of bound {bound}"
            print(f"  {m['name']:<40} {med:>12.5g} {m['unit']:<6} "
                  f"q1 {q1:<11.5g} q3 {q3:<11.5g} spread {spread:.4f}{flag}")
    if not table:
        print("no results found", file=sys.stderr)
        return 1
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if args.write_baseline:
        baseline = json.loads(BASELINE.read_text(encoding="utf-8")) if BASELINE.is_file() else {}
        baseline[f"trace{args.trace}"] = {"host": host, "workloads": table}
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
