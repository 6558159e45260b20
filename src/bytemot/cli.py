"""Command-line front end: track, eval, sweep, lowscore-report, interp, synth.

Data goes to files or stdout, diagnostics to stderr; exit code 0 means the
command completed without errors. Every tracking run writes a plain-text
key=value manifest next to its output with the full configuration and
wall-clock timings. CSV outputs carry a version column in a header row.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import mot_io, synth
from .geometry import Detection, _overlaps
# Unused here, but kept as a module attribute: the benchmark's traced run
# (perfbench/instrument.py) patches cli.iou_matrix_tlbr.
from .geometry import iou_matrix_tlbr  # noqa: F401
from .metrics import _FRAME, EvalResult, GtEntry, _edges, _int_column, aggregate, evaluate
from .postprocess import DEFAULT_SIGMA, TrackDump, TrackEntry, interpolate
from .tracker import ByteTracker, Mode, TrackerConfig

CSV_VERSION = "1"


def run_tracker(
    dets: list[Detection], cfg: TrackerConfig
) -> tuple[TrackDump, list[float]]:
    """Drive a fresh tracker over the frames that hold detections, in
    increasing order; returns the result dump and the association time of
    each stepped frame in milliseconds (stepping only, no I/O). A frame
    without detections is not stepped: the next step advances the gap as
    empty frames would, with work bounded by lost_ttl, not by the gap."""
    by_frame = mot_io.group_by_frame(dets)
    tracker = ByteTracker(cfg)
    # frames increase, so each track's entries arrive in frame order
    dump: TrackDump = {}
    timings = []
    for frame in sorted(by_frame):
        frame_dets = by_frame[frame]
        start = time.perf_counter()
        result = tracker.step(frame, frame_dets)
        timings.append((time.perf_counter() - start) * 1000.0)
        for out in result.outputs:
            dump.setdefault(out.track_id, []).append(TrackEntry(frame, out.box, out.score))
    return dump, timings


def _tracker_config(args) -> TrackerConfig:
    return TrackerConfig(
        tau_high=args.tau_high,
        tau_low=args.tau_low,
        min_iou_first=args.min_iou,
        min_iou_second=args.min_iou,
        lost_ttl=args.lost_ttl,
        mode=Mode(args.mode),
    )


_DEFAULTS = TrackerConfig()


def _add_tracker_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tau-high", type=float, default=_DEFAULTS.tau_high,
                        help="score threshold splitting high from low detections")
    parser.add_argument("--tau-low", type=float, default=_DEFAULTS.tau_low,
                        help="floor below which detections are discarded")
    parser.add_argument("--min-iou", type=float, default=_DEFAULTS.min_iou_first,
                        help="minimum IoU for a pairing in either association stage")
    parser.add_argument("--lost-ttl", type=int, default=_DEFAULTS.lost_ttl,
                        help="frames an unmatched track is kept for rebirth")
    parser.add_argument("--mode", choices=[m.value for m in Mode],
                        default=_DEFAULTS.mode.value,
                        help="byte = two-stage association, single = one-stage baseline")


def write_manifest(path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def _cmd_track(args) -> int:
    total_start = time.perf_counter()
    read_start = time.perf_counter()
    dets = mot_io.read_detections(args.det)
    read_ms = (time.perf_counter() - read_start) * 1000.0

    cfg = _tracker_config(args)
    dump, timings = run_tracker(dets, cfg)

    write_start = time.perf_counter()
    mot_io.write_results(args.out, dump)
    write_ms = (time.perf_counter() - write_start) * 1000.0

    manifest = {"command": "track", "det": args.det, "out": args.out}
    for f in dataclass_fields(cfg):
        value = getattr(cfg, f.name)
        manifest[f.name] = value.value if isinstance(value, Mode) else value
    manifest.update(
        frames=max((d.frame for d in dets), default=0),
        detections=len(dets),
        read_ms=f"{read_ms:.3f}",
        assoc_ms_mean=f"{float(np.mean(timings)) if timings else 0.0:.4f}",
        assoc_ms_p50=f"{float(np.percentile(timings, 50)) if timings else 0.0:.4f}",
        assoc_ms_p99=f"{float(np.percentile(timings, 99)) if timings else 0.0:.4f}",
        assoc_ms_max=f"{float(np.max(timings)) if timings else 0.0:.4f}",
        write_ms=f"{write_ms:.3f}",
        total_ms=f"{(time.perf_counter() - total_start) * 1000.0:.3f}",
    )
    write_manifest(str(args.out) + ".manifest", manifest)
    return 0


def _format_metric(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _eval_csv_rows(named_results: list[tuple[str, EvalResult]]):
    rows = []
    for name, r in named_results:
        rows.append({
            "version": CSV_VERSION,
            "sequence": name,
            "mota": "" if r.mota is None else f"{r.mota:.6f}",
            "idf1": "" if r.idf1 is None else f"{r.idf1:.6f}",
            "fp": r.fp, "fn": r.fn, "ids": r.ids, "num_gt": r.num_gt,
            "idtp": r.idtp, "idfp": r.idfp, "idfn": r.idfn,
        })
    return rows


def _write_csv(path_or_stream, rows, fieldnames) -> None:
    close = False
    if isinstance(path_or_stream, (str, Path)):
        stream = open(path_or_stream, "w", encoding="utf-8", newline="")
        close = True
    else:
        stream = path_or_stream
    try:
        writer = csv.DictWriter(stream, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if close:
            stream.close()


def _cmd_eval(args) -> int:
    gt = mot_io.read_gt(args.gt)
    pred = mot_io.read_results(args.res)
    result = evaluate(gt, pred, iou_min=args.iou_min)
    print(f"sequence {args.name}")
    print(f"  MOTA {_format_metric(result.mota)}")
    print(f"  IDF1 {_format_metric(result.idf1)}")
    print(f"  FP {result.fp}  FN {result.fn}  IDs {result.ids}  GT {result.num_gt}")
    print(f"  IDTP {result.idtp}  IDFP {result.idfp}  IDFN {result.idfn}")
    if args.csv:
        named = [(args.name, result), ("ALL", aggregate([result]))]
        rows = _eval_csv_rows(named)
        _write_csv(args.csv, rows, list(rows[0].keys()))
    return 0


def _load_sequences(args) -> list[tuple[str, list[Detection], list[GtEntry]]]:
    if args.corpus:
        root = Path(args.corpus)
        seq_dirs = sorted(p for p in root.iterdir() if p.is_dir())
        if not seq_dirs:
            raise FileNotFoundError(f"no sequence directories under {root}")
        return [
            (p.name, mot_io.read_detections(p / "det.txt"), mot_io.read_gt(p / "gt.txt"))
            for p in seq_dirs
        ]
    if not (args.det and args.gt):
        raise ValueError("provide either --corpus or both --det and --gt")
    return [(Path(args.det).stem, mot_io.read_detections(args.det), mot_io.read_gt(args.gt))]


def run_sweep(
    sequences: list[tuple[str, list[Detection], list[GtEntry]]],
    taus: list[float],
    modes: list[Mode],
    base: TrackerConfig,
) -> tuple[list[dict], dict[str, float]]:
    """One tracking+eval run per (mode, tau) over every sequence, aggregated.

    Returns CSV-ready rows sorted by (mode, tau) and the max-min MOTA spread
    per mode."""
    rows = []
    motas: dict[str, list[float]] = {}
    for mode in sorted(modes, key=lambda m: m.value):
        for tau in sorted(taus):
            cfg = replace(base, tau_high=tau, mode=mode)
            results = []
            for _, dets, gt in sequences:
                dump, _ = run_tracker(dets, cfg)
                results.append(evaluate(gt, dump))
            agg = aggregate(results)
            rows.append({
                "version": CSV_VERSION,
                "mode": mode.value,
                "tau": f"{tau:.2f}",
                "mota": "" if agg.mota is None else f"{agg.mota:.6f}",
                "idf1": "" if agg.idf1 is None else f"{agg.idf1:.6f}",
                "ids": agg.ids,
                "fp": agg.fp,
                "fn": agg.fn,
            })
            if agg.mota is not None:
                motas.setdefault(mode.value, []).append(agg.mota)
    spreads = {m: max(v) - min(v) for m, v in motas.items()}
    return rows, spreads


def _cmd_sweep(args) -> int:
    taus = [float(v) for v in args.taus.split(",") if v.strip()]
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau values must lie in (0, 1), got {tau}")
    modes = [Mode(m.strip()) for m in args.modes.split(",") if m.strip()]
    sequences = _load_sequences(args)
    base = _tracker_config(args)
    rows, spreads = run_sweep(sequences, taus, modes, base)
    fieldnames = ["version", "mode", "tau", "mota", "idf1", "ids", "fp", "fn"]
    if args.out:
        _write_csv(args.out, rows, fieldnames)
    else:
        _write_csv(sys.stdout, rows, fieldnames)
    for mode in sorted(spreads):
        print(f"spread {mode} {spreads[mode]:.6f}")
    return 0


# The IoU at which a low-score box counts as a true positive: evaluate's
# default.
LOWSCORE_IOU = 0.5


def lowscore_counts(
    gt: list[GtEntry],
    dets: list[Detection],
    pred: TrackDump,
    tau_low: float,
    tau_high: float,
) -> dict[str, int]:
    """TP/FP counts among low-score boxes (tau_low <= score <= tau_high),
    for the raw detections and for the boxes the tracker kept. A box is TP
    when it overlaps a considered truth box of its frame with IoU >=
    LOWSCORE_IOU. Each side's band is matched against the truth in one pass
    of geometry's overlap gate, the one the evaluation uses, keyed by dense
    frame ranks (the gate's float keys would merge frames beyond 2**53)."""
    truth = [entry for entry in gt if entry.considered]
    truth_edges = _edges(truth)
    truth_frame = _int_column(truth, _FRAME, "ground-truth frame")
    kept = [entry for track_id in pred for entry in pred[track_id]]
    counts = {}
    for side, boxes in (("det", dets), ("kept", kept)):
        low = [box for box in boxes if tau_low <= box.score <= tau_high]
        low_frame = _int_column(low, _FRAME, f"{side} frame")
        _, rank = np.unique(np.concatenate([low_frame, truth_frame]), return_inverse=True)
        rows, _, ious = _overlaps(_edges(low), truth_edges, rank[:len(low)], rank[len(low):])
        tp = len(np.unique(rows[ious >= LOWSCORE_IOU]))
        counts[f"{side}_low_tp"] = tp
        counts[f"{side}_low_fp"] = len(low) - tp
    return counts


def _cmd_lowscore(args) -> int:
    # written so that NaN fails too
    if not 0.0 <= args.tau_low <= args.tau_high <= 1.0:
        raise ValueError(
            "--tau-low and --tau-high must satisfy 0 <= tau-low <= tau-high <= 1, "
            f"got --tau-low {args.tau_low} and --tau-high {args.tau_high}"
        )
    gt = mot_io.read_gt(args.gt)
    dets = mot_io.read_detections(args.det)
    pred = mot_io.read_results(args.res)
    counts = lowscore_counts(gt, dets, pred, args.tau_low, args.tau_high)
    row = {"version": CSV_VERSION, "sequence": args.name, **counts}
    fieldnames = list(row.keys())
    if args.out:
        _write_csv(args.out, [row], fieldnames)
    else:
        _write_csv(sys.stdout, [row], fieldnames)
    return 0


def _cmd_interp(args) -> int:
    dump = mot_io.read_results(args.res)
    mot_io.write_results(args.out, interpolate(dump, sigma=args.sigma))
    return 0


def _write_scenario(out_dir: Path, cfg: synth.ScenarioConfig) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    gt, dets = synth.generate(cfg)
    mot_io.write_gt(out_dir / "gt.txt", gt)
    mot_io.write_detections(out_dir / "det.txt", dets)
    (out_dir / "scenario.txt").write_text(synth.scenario_to_text(cfg), encoding="utf-8")


def _cmd_synth(args) -> int:
    out_dir = Path(args.out_dir)
    if args.config:
        cfg = synth.scenario_from_text(Path(args.config).read_text(encoding="utf-8"))
        _write_scenario(out_dir, cfg)
    elif args.preset == "crossing":
        scenario = synth.crossing_preset()
        out_dir.mkdir(parents=True, exist_ok=True)
        mot_io.write_gt(out_dir / "gt.txt", scenario.gt)
        mot_io.write_detections(out_dir / "det.txt", scenario.detections)
        (out_dir / "scenario.txt").write_text(
            synth.scenario_to_text(scenario.config), encoding="utf-8"
        )
    elif args.preset == "ablation":
        for name, cfg in synth.ablation_corpus():
            _write_scenario(out_dir / name, cfg)
    elif args.preset == "timing":
        _write_scenario(out_dir, synth.timing_config())
    else:
        raise ValueError("provide --preset or --config")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bytemot",
        description="Multi-object tracking association toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="associate a detection file into tracks")
    p.add_argument("det", help="detection file (MOT layout)")
    p.add_argument("out", help="result file to write")
    _add_tracker_args(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("eval", help="score a result file against ground truth")
    p.add_argument("gt")
    p.add_argument("res")
    p.add_argument("--iou-min", type=float, default=0.5)
    p.add_argument("--name", default="seq")
    p.add_argument("--csv", default=None, help="also write a CSV report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="score-threshold sweep over modes")
    p.add_argument("--det", default=None)
    p.add_argument("--gt", default=None)
    p.add_argument("--corpus", default=None,
                   help="directory of sequence subdirectories with det.txt/gt.txt")
    p.add_argument("--taus", default="0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--modes", default="byte,single")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    _add_tracker_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("lowscore-report",
                       help="TP/FP counts among low-score boxes kept by tracking")
    p.add_argument("--det", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--res", required=True)
    p.add_argument("--tau-low", type=float, default=_DEFAULTS.tau_low)
    p.add_argument("--tau-high", type=float, default=_DEFAULTS.tau_high)
    p.add_argument("--name", default="seq")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_lowscore)

    p = sub.add_parser("interp", help="fill track gaps by linear interpolation")
    p.add_argument("res")
    p.add_argument("out")
    p.add_argument("--sigma", type=int, default=DEFAULT_SIGMA,
                   help="largest gap, in frames, that gets interpolated")
    p.set_defaults(func=_cmd_interp)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--preset", choices=["crossing", "ablation", "timing"], default=None)
    p.add_argument("--config", default=None, help="scenario key=value file")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
