"""Self-test of the benchmark at tiny sizes (about a minute):

    python3 perfbench/selftest.py

* every workload, untraced and traced, prints each metric named in
  BENCHMARK.json with its unit and reports no failed operation;
* a deliberately corrupted result row (crowd_occluded's res.txt and
  corpus_sweep's CSV) is counted as a failed operation and makes the run
  incorrect, so the correctness gate is shown to catch it.

Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, trace=0, corrupt=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    if corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{workload}: no output, code {proc.returncode}\n{proc.stderr}")
    return proc.returncode, lines[:-1], json.loads(lines[-1])


def main() -> int:
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in BENCH["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, text, result = bench(workload, trace)
            wanted = {m["name"]: m["unit"] for m in BENCH[key]}
            printed = {line.split()[0]: line.split()[2] for line in text
                       if line.startswith("  ") and len(line.split()) >= 3}
            tag = f"{workload} trace={trace}"
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{tag}: correct, no failed operation")
            check(set(result["metrics"]) == set(wanted), f"{tag}: result has exactly the {key} metrics")
            check(all(printed.get(n) == u for n, u in wanted.items()),
                  f"{tag}: every metric printed with its unit")
            check("error_rate" in printed, f"{tag}: error_rate printed")

    for workload in ("crowd_occluded", "corpus_sweep"):
        code, text, result = bench(workload, corrupt=True)
        rate = next(float(line.split()[1]) for line in text if line.split()[:1] == ["error_rate"])
        check(code != 0 and not result["correct"] and result["failed"] >= 1 and rate > 0,
              f"{workload}: corrupted result row counted in error_rate ({rate:.4g})")

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
