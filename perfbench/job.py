"""One benchmark process; started by run.py, never by hand.

    job.py prepare --workload W --seed S --work DIR --size full
        generate the inputs under DIR and print their sha256 as JSON
    job.py run --workload W --seed S --work DIR --size full --mode M
               --spawn-ns T --record FILE [--seconds N] [--max-repeats K] [--corrupt]
        M = timed (probe only), setup (stop at the first step) or traced.
        T is the parent's time.monotonic_ns() just before starting this
        process, so set-up time includes interpreter start-up. A timed
        process repeats the job until N seconds are spent, with at least
        MIN_REPEATS repeats and MIN_FRAMES stepped frames.

The record written to FILE holds raw samples; run.py turns them into metrics.
"""

import time

SPAWN_SEEN_NS = time.monotonic_ns()
ENTER_NS = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

MIN_REPEATS = 2
MIN_FRAMES = 2000  # so that at least 20 frames lie beyond the pooled p99


def _prepare(args) -> int:
    import workloads

    gc.disable()  # generation is untimed; the collector only slows it down
    inputs = workloads.prepare(args.workload, args.seed, Path(args.work), args.size)
    print(json.dumps({"inputs": inputs}))
    return 0


def _repeat(args, workloads, instrument, inputs) -> dict:
    """One job with fresh instrumentation; returns its raw samples."""
    gate = instrument.Tracer() if args.mode == "traced" else instrument.Probe(
        setup_only=args.mode == "setup")
    work = Path(args.work)
    clock = instrument.clock
    rep = {"error": None, "outputs": {}}
    start = clock()
    gate.install()
    end = None
    problems: list[str] = []
    try:
        if args.workload == "crowd_clean":
            end, rep["outputs"], problems = workloads.run_crowd_clean(work, gate.close, inputs)
        elif args.workload == "crowd_occluded":
            end, rep["outputs"], problems = workloads.run_crowd_occluded(
                work, gate.close, inputs, corrupt=args.corrupt)
        else:
            end, rep["outputs"], problems = workloads.run_corpus_sweep(
                work, gate.close, inputs, size=args.size, corrupt=args.corrupt)
    except instrument.SetupDone:
        pass
    except Exception:  # the job's failure is the result being measured
        rep["error"] = traceback.format_exc(limit=8)
    finally:
        gate.uninstall()

    rep["first_step_ns"] = gate.first_step_ns
    if args.mode != "setup" and rep["error"] is None:
        if args.workload == "corpus_sweep":
            taus = workloads.SWEEP_TAUS if args.size == "full" else workloads.TINY_SWEEP_TAUS
            problems += workloads.sweep_csv_problems(work / "sweep.csv", gate.eval_counts, taus)
        rep["outputs"]["eval_counts_sha256"] = workloads.sha256_json(gate.eval_counts)
        rep["eval_counts"] = gate.eval_counts
        rep["job_ns"] = end - gate.first_step_ns
        if args.mode == "timed":
            rep["seg_ns"] = gate.seg_ns
            rep["seg_kind"] = "".join(gate.seg_kind)
        else:
            rep["layers"] = gate.summary(rep["job_ns"])
            gate.write_spans(Path(args.record).with_suffix(".spans.csv.gz"))
    for message in problems:
        gate.fail(message)
    rep.update(attempted=gate.attempted, failed=gate.failed + (rep["error"] is not None),
               problems=gate.problems, wall_ns=clock() - start)
    return rep


def _run(args) -> int:
    import numpy
    import scipy

    import bytemot
    import instrument
    import workloads

    clock = instrument.clock
    record = {
        "mode": args.mode,
        "versions": {"bytemot": bytemot.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "bytemot_path": str(Path(bytemot.__file__).resolve().parent),
    }

    # input construction is generation, so it is timed only to be taken out
    # of set-up; a setup-only job stops at the first step and needs none. The
    # inputs are built with the collector off, then collected once, which
    # leaves them where a long-lived input ends up: in the oldest generation.
    gen_start = clock()
    inputs = None
    if args.workload == "crowd_clean":
        if args.mode == "setup":
            inputs = ({}, [], 1)
        else:
            gc.disable()
            inputs = workloads.load_crowd_clean(Path(args.work))
            gc.enable()
            gc.collect()
    gen_ns = clock() - gen_start

    repeats = []
    speed = []
    measure_start = clock()
    while True:
        rep = _repeat(args, workloads, instrument, inputs)
        repeats.append(rep)
        if args.mode == "timed":
            speed.append(instrument.host_speed(0.1))
        if rep["error"] is not None or args.mode != "timed":
            break
        elapsed = (clock() - measure_start) * 1e-9
        longest = max(r["wall_ns"] for r in repeats) * 1e-9
        frames = sum(r["seg_kind"].count(instrument.STEP) for r in repeats)
        enough = len(repeats) >= MIN_REPEATS and frames >= MIN_FRAMES
        if len(repeats) >= args.max_repeats or (enough and elapsed + longest > args.seconds):
            break
        gc.collect()  # each repeat starts from the same collector state

    first = repeats[0]["first_step_ns"]
    if first is not None:
        record["setup_ns"] = (SPAWN_SEEN_NS - args.spawn_ns) + (first - ENTER_NS) - gen_ns
    record.update(
        gen_ns=gen_ns,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        host_speed_ms=speed,
        repeats=repeats,
    )
    Path(args.record).write_text(json.dumps(record), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    parser.add_argument("action", choices=["prepare", "run"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--mode", choices=["timed", "setup", "traced"], default="timed")
    parser.add_argument("--spawn-ns", type=int, default=SPAWN_SEEN_NS)
    parser.add_argument("--record", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-repeats", type=int, default=1000)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args(argv)
    if args.action == "prepare":
        return _prepare(args)
    code = _run(args)
    # the record is written; skip tearing down a few hundred MB of objects
    sys.stdout.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(main())
