"""Workload definitions: inputs from ``bytemot.synth`` and the timed jobs.

Each workload maps the benchmark seed ``s`` onto its generator seeds (the
default seeds plus ``s``), so seed 0 reproduces the recorded goldens.

* ``crowd_clean``: ``timing_config(agents=200, frames=400)``; detections
  handed over in memory; job = ``step`` over all frames, then ``evaluate``.
* ``crowd_occluded``: 120 agents over 400 frames with occlusion decay, misses
  and background boxes; the CLI file pipeline (``read_detections`` in set-up,
  then ``run_tracker``, ``interpolate``, ``write_results``, ``read_gt``,
  ``read_results``, ``evaluate``).
* ``corpus_sweep``: the ablation corpus written to files, swept with
  ``bytemot sweep --taus 0.2,0.5,0.8`` through ``cli.main`` in-process.

A run repeats its job in one process and takes the best repeat, so each job
is kept short: the crowds are 400 frames long and the sweep covers three of
the seven default thresholds. ``size="tiny"`` shrinks every workload for
the self-test.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

SWEEP_TAUS = "0.2,0.5,0.8"
TINY_SWEEP_TAUS = "0.4,0.6"
INTERP_SIGMA = 20
CROWD_FRAMES = 400


def crowd_clean_config(seed: int, size: str = "full"):
    from bytemot import synth

    agents, frames = (200, CROWD_FRAMES) if size == "full" else (20, 60)
    cfg = synth.timing_config(agents=agents, frames=frames)
    return dataclasses.replace(cfg, seed=cfg.seed + seed)


def crowd_occluded_config(seed: int, size: str = "full"):
    from bytemot import synth

    agents, frames = (120, CROWD_FRAMES) if size == "full" else (15, 60)
    return synth.ScenarioConfig(
        seed=11 + seed, frames=frames, field_size=(1280.0, 960.0), agents=agents,
        speed_range=(1.0, 3.0), box_size_range=(24.0, 60.0), occlusion_decay=0.85,
        base_score=0.9, score_noise_std=0.05, miss_prob=0.03, fp_per_frame=4.0,
        fp_score_range=(0.1, 0.75), jitter_std=0.5,
    )


def corpus_configs(seed: int, size: str = "full"):
    from bytemot import synth

    corpus = synth.ablation_corpus()
    if size != "full":
        corpus = [(name, dataclasses.replace(cfg, frames=40)) for name, cfg in corpus[:2]]
    return [(name, dataclasses.replace(cfg, seed=cfg.seed + seed)) for name, cfg in corpus]


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


# -- input generation (untimed) ---------------------------------------------

def prepare(workload: str, seed: int, work: Path, size: str) -> dict[str, str]:
    """Generate the workload's input files under work; returns their sha256
    by relative path."""
    import numpy as np

    from bytemot import mot_io, synth

    work.mkdir(parents=True, exist_ok=True)
    files: list[Path] = []
    if workload == "crowd_clean":
        gt, dets = synth.generate(crowd_clean_config(seed, size))
        np.save(work / "det_frames.npy", np.array([d.frame for d in dets], dtype=np.int64))
        np.save(work / "det_values.npy", np.array(
            [(*d.box.tlwh(), d.score) for d in dets], dtype=np.float64).reshape(-1, 5))
        np.save(work / "gt_ids.npy", np.array(
            [(g.frame, g.identity, g.considered) for g in gt], dtype=np.int64).reshape(-1, 3))
        np.save(work / "gt_values.npy", np.array(
            [(*g.box.tlwh(), g.visibility) for g in gt], dtype=np.float64).reshape(-1, 5))
        files = sorted(work.glob("*.npy"))
    elif workload == "crowd_occluded":
        gt, dets = synth.generate(crowd_occluded_config(seed, size))
        mot_io.write_detections(work / "det.txt", dets)
        mot_io.write_gt(work / "gt.txt", gt)
        files = [work / "det.txt", work / "gt.txt"]
    elif workload == "corpus_sweep":
        for name, cfg in corpus_configs(seed, size):
            seq = work / "corpus" / name
            seq.mkdir(parents=True, exist_ok=True)
            gt, dets = synth.generate(cfg)
            mot_io.write_detections(seq / "det.txt", dets)
            mot_io.write_gt(seq / "gt.txt", gt)
            files += [seq / "det.txt", seq / "gt.txt"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {str(p.relative_to(work)): sha256_file(p) for p in files}


def load_crowd_clean(work: Path):
    """Rebuild the generated detections and truth from their arrays, exactly
    as ``synth.generate`` made them (untimed: this is the library user's
    input, not the program's work)."""
    import numpy as np

    from bytemot import BBox, Detection, GtEntry

    det_frames = np.load(work / "det_frames.npy").tolist()
    det_values = np.load(work / "det_values.npy").tolist()
    by_frame: dict[int, list] = {}
    for frame, (left, top, w, h, score) in zip(det_frames, det_values):
        by_frame.setdefault(frame, []).append(
            Detection(frame=frame, box=BBox(left, top, w, h), score=score))
    gt_ids = np.load(work / "gt_ids.npy").tolist()
    gt_values = np.load(work / "gt_values.npy").tolist()
    gt = [
        GtEntry(frame=frame, identity=identity, box=BBox(left, top, w, h),
                considered=bool(considered), visibility=vis)
        for (frame, identity, considered), (left, top, w, h, vis) in zip(gt_ids, gt_values)
    ]
    frames = max(gt_ids, key=lambda r: r[0])[0] if gt_ids else 0
    return by_frame, gt, frames


def render_results(dump) -> bytes:
    """The bytes ``mot_io.write_results`` writes for a dump, rendered
    independently for the correctness gate."""
    rows = sorted(
        ((e.frame, track_id, e.box, e.score) for track_id in dump for e in dump[track_id]),
        key=lambda r: (r[0], r[1]),
    )
    return "".join(
        f"{frame},{tid},{box.left:.2f},{box.top:.2f},{box.width:.2f},"
        f"{box.height:.2f},{score:.6f},-1,-1,-1\n"
        for frame, tid, box, score in rows
    ).encode()


# -- timed jobs ---------------------------------------------------------------
#
# Each job calls end_of_job() when its work is done and returns (that time in
# ns, outputs, problems): outputs are the values the correctness gate hashes,
# problems are failed checks found by the job.

def run_crowd_clean(work: Path, end_of_job, inputs):
    from bytemot import ByteTracker, TrackEntry, metrics

    by_frame, gt, frames = inputs
    tracker = ByteTracker()
    dump: dict[int, list] = {}
    for frame in range(1, frames + 1):
        result = tracker.step(frame, by_frame.get(frame, []))
        for out in result.outputs:
            dump.setdefault(out.track_id, []).append(TrackEntry(frame, out.box, out.score))
    metrics.evaluate(gt, dump)
    end = end_of_job()
    return end, {"res_sha256": _sha256_bytes(render_results(dump))}, []


def run_crowd_occluded(work: Path, end_of_job, inputs, corrupt: bool = False):
    from bytemot import TrackerConfig, cli, metrics, mot_io, postprocess

    dets = mot_io.read_detections(work / "det.txt")
    dump, _ = cli.run_tracker(dets, TrackerConfig())
    filled = postprocess.interpolate(dump, sigma=INTERP_SIGMA)
    res = work / "res.txt"
    mot_io.write_results(res, filled)
    if corrupt:
        _corrupt_first_row(res, column=2)
    gt = mot_io.read_gt(work / "gt.txt")
    back = mot_io.read_results(res)
    metrics.evaluate(gt, back)
    end = end_of_job()

    problems = []
    expected = render_results(filled)
    if res.read_bytes() != expected:
        problems.append("res.txt differs from the interpolated dump")
    if render_results(back) != expected:
        problems.append("read_results did not reproduce res.txt")
    with open(work / "det.txt", encoding="utf-8") as fh:
        det_lines = sum(1 for _ in fh)
    if len(dets) != det_lines:
        problems.append("read_detections dropped rows")
    return end, {"res_sha256": sha256_file(res)}, problems


def run_corpus_sweep(work: Path, end_of_job, inputs, size: str = "full", corrupt: bool = False):
    from bytemot import cli

    out = work / "sweep.csv"
    taus = SWEEP_TAUS if size == "full" else TINY_SWEEP_TAUS
    code = cli.main(["sweep", "--corpus", str(work / "corpus"), "--taus", taus,
                     "--out", str(out)])
    end = end_of_job()
    if corrupt:
        _corrupt_first_row(out, column=6, skip_header=True)
    problems = [] if code == 0 else [f"sweep exited with {code}"]
    return end, {"csv_sha256": sha256_file(out)}, problems


def sweep_csv_problems(path: Path, eval_counts: list[list[int]], taus: str) -> list[str]:
    """The sweep CSV's fp/fn/ids columns must equal the sums of the evaluate
    counts of their (mode, tau) group, in the order the sweep ran them."""
    import csv

    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups = len(taus.split(",")) * 2
    if len(rows) != groups or not eval_counts or len(eval_counts) % groups:
        return [f"sweep CSV has {len(rows)} rows for {len(eval_counts)} evaluate calls"]
    per = len(eval_counts) // groups
    problems = []
    for i, row in enumerate(rows):
        chunk = eval_counts[i * per:(i + 1) * per]
        fp, fn, ids = (sum(c[k] for c in chunk) for k in (0, 1, 2))
        if (int(row["fp"]), int(row["fn"]), int(row["ids"])) != (fp, fn, ids):
            problems.append(f"sweep CSV row {i + 1} disagrees with its evaluate calls")
    return problems


def _corrupt_first_row(path: Path, column: int, skip_header: bool = False) -> None:
    """Fault injection for the self-test: change the last digit of one field
    of the first data row."""
    lines = path.read_text(encoding="utf-8").split("\n")
    i = 1 if skip_header else 0
    fields = lines[i].split(",")
    value = fields[column]
    fields[column] = value[:-1] + str((int(value[-1]) + 1) % 10)
    lines[i] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
