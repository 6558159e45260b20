"""bytemot benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload crowd_clean --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from the
checkout's ``src/``, never from an installed copy. Each run:

1. generates the workload's inputs from ``--seed`` in a child process
   (untimed) and, where goldens exist for the seed, checks their sha256;
2. runs the job in one fresh single-threaded child process (a closed loop:
   each frame is stepped after the previous ``step`` returns), repeating it
   until ``--seconds`` are spent, and adds set-up samples from set-up-only
   children that stop at the first ``step``;
3. with ``--trace 1``, runs one untraced and one traced job, each in its own
   process, and reports per-layer metrics, tracing coverage and overhead;
4. prints every metric with its unit and sample count, the host facts and
   the error rate, then, as the last line, one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Work files, the full result and the trace spans go to ``.perfbench_out/`` at
the checkout root. ``--record-goldens`` stores this seed's input and output
hashes in ``perfbench/goldens.json`` when the seed has none yet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "goldens.json"
WORKLOADS = ("crowd_clean", "crowd_occluded", "corpus_sweep")
DEADLINE_S = 170.0
SETUP_SAMPLES = 5
MIN_P99_FRAMES = 2000
# Measured and printed but not part of the result line. On a 2-core shared
# host the step-latency p99 spread by up to 0.38 of its median between runs,
# more than the largest bound a gated metric may have. The per-layer times below are
# exactly zero on a workload that never calls the layer (no file I/O or
# interpolation on crowd_clean, no result files on corpus_sweep), and a time
# that reads the same on every run is not a measurement.
DIAGNOSTICS = {
    "frame_ms_p99": "ms",
    "host_speed_ms": "ms",
    **{f"mot_io.{op}.busy_ms": "ms"
       for op in ("read_detections", "read_gt", "read_results", "write_results")},
    "postprocess.interpolate.busy_ms": "ms",
    "cli.run_tracker.self_ms": "ms",
    **{f"layer.{layer}.self_ms": "ms" for layer in ("mot_io", "postprocess", "cli")},
}
# Segment kinds of a timed job's timeline (instrument.Probe): inside step,
# inside evaluate.
STEP, EVAL = "s", "e"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """A run that cannot produce a result; the message says why."""


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def percentile(values, pct):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def host_facts(versions) -> dict:
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: os.environ[k] for k in THREAD_ENV if k in os.environ},
        "commit": git_commit(),
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.work = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
        self.children = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, action, *extra, record=None):
        a = self.args
        cmd = [sys.executable, str(HERE / "job.py"), action, "--workload", a.workload,
               "--seed", str(a.seed), "--work", str(self.work), "--size", a.size, *extra]
        if record is not None:
            cmd += ["--record", str(record)]
        self.children += 1
        log = self.work / f"child{self.children}.log"
        env = dict(os.environ, PYTHONHASHSEED="0")
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before the next child process")
        with open(log, "w", encoding="utf-8") as fh:
            if action == "run":
                cmd += ["--spawn-ns", str(time.monotonic_ns())]
            try:
                proc = subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env,
                                      timeout=timeout, cwd=str(ROOT))
            except subprocess.TimeoutExpired:
                raise BenchError(f"{action} child exceeded the {DEADLINE_S:.0f} s deadline") from None
        text = log.read_text(encoding="utf-8")
        log.unlink()
        if proc.returncode != 0:
            raise BenchError(f"{action} child failed with code {proc.returncode}:\n{text[-2000:]}")
        return text

    def job(self, mode, seconds=0.0, max_repeats=1, corrupt=False):
        record = self.work / f"process{self.children + 1}-{mode}.json"
        extra = ["--mode", mode, "--seconds", str(seconds), "--max-repeats", str(max_repeats)]
        self.child("run", *extra, *(["--corrupt"] if corrupt else []), record=record)
        rec = json.loads(record.read_text(encoding="utf-8"))
        rec["record"] = record
        expected = (ROOT / "src" / "bytemot").resolve()
        if Path(rec["bytemot_path"]) != expected:
            raise BenchError(f"bytemot imported from {rec['bytemot_path']}, not {expected}")
        for rep in rec["repeats"]:
            rep["mode"] = mode
            if rep["error"]:
                print(f"job error ({mode}):\n{rep['error']}", file=sys.stderr)
        return rec


def load_goldens() -> dict:
    if GOLDENS.is_file():
        return json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {}


def end_to_end(proc: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values plus, per metric, how they were taken and the per-repeat
    samples behind them.

    A timed process cuts every repeat of its job into the same segments (one
    per ``step`` call, the pieces of each ``evaluate`` between its IoU and
    assignment calls, each file operation, and the glue between them). Each
    segment's time is its best over the repeats, as timeit takes the best
    run: on a shared host, slower readings are other processes'
    interference, and slowdowns come and go faster than a whole job takes.
    The job's times are sums of these per-segment bests. Repeats that cut
    differently from the last one (a first repeat that warms a cache the
    later ones skip) are left out. The p99 (a diagnostic) pools the steps of
    the fastest repeats that together hold at least 2,000 frames, so that at
    least twenty frames lie beyond it. Set-up time is the median of the
    run's set-ups.
    """
    reps = [r for r in proc["repeats"] if r["error"] is None]
    kinds = reps[-1]["seg_kind"]
    same = [r for r in reps if r["seg_kind"] == kinds]
    best = [min(col) for col in zip(*(r["seg_ns"] for r in same))]

    def total(values, kind=None):
        return sum(v for v, k in zip(values, kinds) if kind is None or k == kind)

    steps = [v for v, k in zip(best, kinds) if k == STEP]
    pooled = []
    for r in sorted(same, key=lambda r: total(r["seg_ns"], STEP)):
        if len(pooled) >= MIN_P99_FRAMES:
            break
        pooled += [v * 1e-6 for v, k in zip(r["seg_ns"], kinds) if k == STEP]
    how = f"segment-wise best of {len(same)} repeats"
    per_repeat = {
        "job_s": [total(r["seg_ns"]) * 1e-9 for r in same],
        "track_fps": [len(steps) / (total(r["seg_ns"], STEP) * 1e-9) for r in same],
        "frame_ms_p50": [statistics.median(v for v, k in zip(r["seg_ns"], kinds) if k == STEP)
                         * 1e-6 for r in same],
        "eval_s": [total(r["seg_ns"], EVAL) * 1e-9 for r in same],
    }
    values = {
        "setup_s": statistics.median(setups),
        "job_s": total(best) * 1e-9,
        "track_fps": len(steps) / (sum(steps) * 1e-9),
        "frame_ms_p50": statistics.median(steps) * 1e-6,
        "frame_ms_p99": percentile(pooled, 99),
        "eval_s": total(best, EVAL) * 1e-9,
        "peak_rss_mb": proc["peak_rss_mb"],
        "host_speed_ms": min(proc["host_speed_ms"]),
    }
    detail = {
        "setup_s": ("median", "set-ups", setups),
        **{name: (how, f"repeats ({len(steps)} steps, {len(kinds)} segments)", samples)
           for name, samples in per_repeat.items()},
        "frame_ms_p99": ("p99", "steps of the fastest repeats", pooled),
        "host_speed_ms": ("best", "reference-kernel phases", proc["host_speed_ms"]),
    }
    return values, detail


def run(args) -> tuple[dict, int]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "bytemot" / "__init__.py").is_file():
        raise BenchError(f"no bytemot sources under {ROOT / 'src'}")
    runner = Runner(args)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, bench, runner)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)


def _measure(args, bench, runner) -> tuple[dict, int]:
    golden = load_goldens().get(args.workload, {}).get(str(args.seed)) if args.size == "full" else None
    inputs = json.loads(runner.child("prepare").strip().splitlines()[-1])["inputs"]
    if golden is not None and golden["inputs"] != inputs:
        raise BenchError(
            f"generated inputs of {args.workload} at seed {args.seed} differ from the "
            "recorded goldens: the generator changed, so these figures would not be "
            "comparable; not measuring")

    if args.trace:
        processes = [runner.job("timed"), runner.job("traced")]
    else:
        processes = [runner.job("timed", seconds=args.seconds, max_repeats=1000,
                                corrupt=args.corrupt)]
    setups = [p["setup_ns"] * 1e-9 for p in processes if p["mode"] == "timed" and "setup_ns" in p]
    while not args.trace and len(setups) < SETUP_SAMPLES and runner.remaining() > 15:
        proc = runner.job("setup")
        processes.append(proc)
        if "setup_ns" in proc:
            setups.append(proc["setup_ns"] * 1e-9)

    # correctness gate: per-operation checks from the jobs, agreement between
    # repeats and processes, and the goldens recorded at this seed
    reps = [r for p in processes for r in p["repeats"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [msg for r in reps for msg in r["problems"]]
    complete = [r for r in reps if r["error"] is None and r["mode"] != "setup"]
    reference = golden["outputs"] if golden is not None else (
        complete[0]["outputs"] if complete else {})
    for r in complete:
        for key, value in r["outputs"].items():
            if reference.get(key) != value:
                failed += 1
                source = "golden" if golden is not None else "first repeat"
                problems.append(f"{key} of a {r['mode']} repeat differs from the {source}")
    correct = failed == 0 and all(r["error"] is None for r in reps)

    timed = [p for p in processes if p["mode"] == "timed"]
    traced = [r for r in complete if r["mode"] == "traced"]
    if not any(r["mode"] == "timed" for r in complete) or (args.trace and not traced):
        raise BenchError("no job completed:\n" + "\n".join(problems[:5]))
    if args.trace:
        layers = dict(traced[0]["layers"])
        untraced = next(r for r in complete if r["mode"] == "timed")
        layers["trace.overhead"] = traced[0]["job_ns"] / untraced["job_ns"] - 1.0
        values, detail = layers, {}
        wanted = bench["per_layer"]
    else:
        values, detail = end_to_end(timed[0], setups)
        wanted = bench["end_to_end"]

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}

    facts = host_facts(timed[0]["versions"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size} "
          f"repeats={len(complete)} set-ups={len(setups)}")
    print("host " + json.dumps(facts, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    units.update((name, unit) for name, unit in DIAGNOSTICS.items() if name in values)
    for name, unit in units.items():
        line = f"  {name:<40} {values[name]:>14.6g} {unit}"
        if name in detail:
            how, label, samples = detail[name]
            q1, _q2, q3 = quartiles(samples)
            line += f"   {how}; {len(samples)} {label}, quartiles {q1:.6g} .. {q3:.6g}"
        if name in DIAGNOSTICS:
            line += "   (printed, not in the result)"
        print(line)
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':<40} {error_rate:>14.6g} ratio   "
          f"{failed} failed of {attempted} operations")
    for p in problems[:10]:
        print(f"  problem: {p}")

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "size": args.size,
        "host": facts, "error_rate": error_rate, "problems": problems[:50],
        "inputs": inputs,
        "outputs": complete[0]["outputs"] if complete else {},
        "eval_counts": complete[0]["eval_counts"] if complete else [],
        "all_values": values,
        "samples": {k: {"statistic": v[0], "of": v[1], "values": v[2]}
                    for k, v in detail.items()},
        "result": result,
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(full, indent=1), encoding="utf-8")
    for p in processes:
        spans = Path(p["record"]).with_suffix(".spans.csv.gz")
        if spans.is_file():
            shutil.move(str(spans), OUT / f"spans-{tag}.csv.gz")
    if args.record_goldens and correct and args.size == "full" and golden is None:
        goldens = load_goldens()
        goldens.setdefault(args.workload, {})[str(args.seed)] = {
            "inputs": inputs, "outputs": complete[0]["outputs"]}
        GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks the workload for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test fault injection: corrupt one result row")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, code = run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
