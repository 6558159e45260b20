"""Instrumentation installed by a job process around bytemot's public functions.

Two kinds, never both in one process:

* ``Probe`` (untraced runs): thin wrappers that read the clock at the
  boundaries of ``step``, ``evaluate`` and the other calls the jobs make,
  cutting the job into segments, and count the ``mot_io`` file operations.
  It feeds the end-to-end metrics and the correctness gate.
* ``Tracer`` (traced runs): one span per call of every public layer function,
  installed at every site that binds the function by name, attributed to the
  calling layer. Self times, counts, GC pauses, coverage and overhead come
  from these spans.

Both check each ``step`` inline: the StepStats detection outcomes must
partition ``n_dets`` and the emitted track ids must be unique in the frame.
"""

from __future__ import annotations

import gc
import gzip
import time
from collections import defaultdict

import numpy as np

from bytemot import cli, geometry, kalman, metrics, mot_io, postprocess, tracker

clock = time.perf_counter_ns

MOT_IO_FILE_OPS = ("read_detections", "read_gt", "read_results", "write_results")
LAYERS = (
    "geometry", "kalman", "assignment", "tracker", "mot_io", "metrics",
    "postprocess", "cli", "runtime",
)
TRACKER_COUNTS = (
    ("dets_high", "n_high"),
    ("dets_low", "n_low"),
    ("dets_below_floor", "n_below_floor"),
    ("stage1_matches", "n_first_matches"),
    ("stage2_matches", "n_second_matches"),
    ("births", "n_new_tracks"),
    ("births_suppressed", "n_births_suppressed"),
    ("low_discarded", "n_low_discarded"),
    ("lost", "n_lost"),
    ("removed", "n_removed"),
)


_REF_BOXES = np.random.default_rng(0).uniform(0.0, 500.0, (64, 4))


def _reference_kernel() -> None:
    """Fixed work in bytemot's mix (small numpy arrays and Python objects),
    none of it bytemot's own code."""
    boxes = _REF_BOXES
    for _ in range(6):
        lt = np.maximum(boxes[:, None, :2], boxes[None, :, :2])
        rb = np.minimum(boxes[:, None, 2:], boxes[None, :, 2:])
        wh = np.clip(rb - lt, 0.0, None)
        (wh[..., 0] * wh[..., 1]).sum()
    rows = [tuple(r) for r in boxes.tolist()]
    table: dict[int, float] = {}
    for i, (a, b, c, d) in enumerate(rows * 12):
        table[i % 31] = table.get(i % 31, 0.0) + (c - a) * (d - b)


def host_speed(seconds: float) -> float:
    """Best time, in ms, of the reference kernel over about ``seconds``: how
    fast this host runs now, recorded beside the job's timings."""
    best = None
    stop = clock() + int(seconds * 1e9)
    while True:
        t0 = clock()
        _reference_kernel()
        t1 = clock()
        best = t1 - t0 if best is None else min(best, t1 - t0)
        if t1 >= stop:
            return best * 1e-6


class SetupDone(Exception):
    """Raised at the first ``step`` call of a setup-only job."""


def step_problems(stats, result) -> list[str]:
    """Correctness gate for one step: detection outcomes partition the input
    and emitted ids are unique (outputs are sorted by id, so strictly
    increasing)."""
    problems = []
    if stats is None or stats.frame != result.frame:
        return [f"frame {result.frame}: last_stats missing or stale"]
    if stats.n_dets != stats.n_high + stats.n_low + stats.n_below_floor:
        problems.append(f"frame {stats.frame}: bands do not partition n_dets")
    if stats.n_high != stats.n_first_matches + stats.n_new_tracks + stats.n_births_suppressed:
        problems.append(f"frame {stats.frame}: high band outcomes do not add up")
    if stats.n_low != stats.n_second_matches + stats.n_low_discarded:
        problems.append(f"frame {stats.frame}: low band outcomes do not add up")
    ids = [o.track_id for o in result.outputs]
    if any(b <= a for a, b in zip(ids, ids[1:])):
        problems.append(f"frame {stats.frame}: emitted track ids not unique")
    return problems


def dump_rows(dump) -> int:
    return sum(len(entries) for entries in dump.values())


class _Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, name, value):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self):
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)


class Gate:
    """Operation counts shared by both instrumentations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_step_ns: int | None = None
        self.eval_counts: list[list[int]] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def close(self) -> int:
        """Called at the end of the job; returns the time."""
        return clock()

    def check_step(self, tracker_obj, result) -> None:
        self.attempted += 1
        problems = step_problems(tracker_obj.last_stats, result)
        if problems:
            self.fail("; ".join(problems))


# Segment kinds of the Probe's timeline.
STEP, EVAL, OTHER = "s", "e", "o"


class Probe(Gate):
    """Untraced instrumentation: the job's timeline, evaluate counts, and the
    number of file operations.

    From the first ``step`` to the end of the job, the clock is read at every
    boundary of a ``step``, ``evaluate``, file operation or ``interpolate``
    call, and at the IoU and assignment calls inside ``evaluate``. The job is
    thereby cut into consecutive segments (``seg_ns``) of a kind
    (``seg_kind``): inside ``step`` (one segment per call), inside
    ``evaluate``, or elsewhere. A deterministic job cuts the same way on
    every repeat, so the segments of repeats line up one to one.
    """

    def __init__(self, setup_only: bool = False):
        super().__init__()
        self.setup_only = setup_only
        self.seg_ns: list[int] = []
        self.seg_kind: list[str] = []
        self._last: int | None = None
        self._kind = OTHER
        self._outer = OTHER
        self._patcher = _Patcher()

    def cut(self, kind: str) -> int:
        """Close the current segment and open one of the given kind."""
        now = clock()
        if self._last is not None:
            self.seg_ns.append(now - self._last)
            self.seg_kind.append(self._kind)
            self._last = now
        self._kind = kind
        return now

    def install(self) -> None:
        p = self._patcher
        step = tracker.ByteTracker.step
        probe = self

        def timed_step(self, frame, detections):
            t0 = probe.cut(STEP)
            if probe.first_step_ns is None:
                probe.first_step_ns = probe._last = t0
                if probe.setup_only:
                    raise SetupDone
            result = step(self, frame, detections)
            probe.cut(probe._outer)
            probe.check_step(self, result)
            return result

        p.patch(tracker.ByteTracker, "step", timed_step)

        evaluate = metrics.evaluate

        def timed_evaluate(*args, **kwargs):
            self.cut(EVAL)
            self._outer = EVAL
            try:
                result = evaluate(*args, **kwargs)
            finally:
                self._outer = OTHER
                self.cut(OTHER)
            self.attempted += 1
            self.eval_counts.append(eval_counts(result))
            return result

        p.patch(metrics, "evaluate", timed_evaluate)
        p.patch(cli, "evaluate", timed_evaluate)

        for name in ("iou_matrix_tlbr", "min_cost_assignment", "solve"):
            p.patch(metrics, name, self._split(getattr(metrics, name)))
        interpolate = self._split(postprocess.interpolate)
        p.patch(postprocess, "interpolate", interpolate)
        p.patch(cli, "interpolate", interpolate)
        for name in MOT_IO_FILE_OPS:
            p.patch(mot_io, name, self._split(getattr(mot_io, name), counted=True))

    def _split(self, fn, counted=False):
        def split(*args, **kwargs):
            self.cut(self._outer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.cut(self._outer)
            if counted:
                self.attempted += 1
            return result

        return split

    def close(self) -> int:
        """End the timeline at the end of the job; returns the time."""
        return self.cut(OTHER)

    def uninstall(self) -> None:
        self._patcher.restore()


def eval_counts(result) -> list[int]:
    return [result.fp, result.fn, result.ids, result.num_gt,
            result.idtp, result.idfp, result.idfn]


def _rows(name, args, result) -> int:
    if name == "write_results":
        return dump_rows(args[1])
    if name == "read_results":
        return dump_rows(result)
    return len(result)


class Tracer(Gate):
    """Traced instrumentation: spans kept in memory, written out at the end.

    A span is (id, parent id, name, layer, start ns, end ns, self ns, self ns
    inside the job window). Self time is the span's duration minus its child
    spans, including GC pauses, which are spans of the ``runtime`` layer.
    Work a wrapper does after the wrapped call returns (counting) is charged
    to no span, so it shows as lost coverage rather than inflating a parent.
    """

    def __init__(self):
        super().__init__()
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, start ns, child ns, pre-window self ns]
        self._next_id = 1
        self._patcher = _Patcher()
        self._gc_frames: list[list] = []
        self._gc_ns = 0

    # -- span bookkeeping -------------------------------------------------

    def _enter(self) -> list:
        frame = [self._next_id, 0, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[1] = clock()
        return frame

    def _exit(self, frame, name, layer, end) -> None:
        self._stack.pop()
        sid, start, child, pre = frame
        parent = self._stack[-1][0] if self._stack else 0
        own = end - start - child
        job_own = 0 if self.first_step_ns is None else own - pre
        self.spans.append((sid, parent, name, layer, start, end, own, job_own))

    def _charge_parent(self, start, gc_mark) -> None:
        # the parent's child time covers this call and the wrapper's own
        # bookkeeping, minus GC pauses already charged to the parent as spans
        if self._stack:
            self._stack[-1][2] += clock() - start - (self._gc_ns - gc_mark)

    def mark_job_start(self, now: int) -> None:
        """Split every open span at the job start: what it did before counts
        as set-up, not as job self time."""
        self.first_step_ns = now
        for frame in self._stack:
            frame[3] = (now - frame[1]) - frame[2]

    def wrap(self, fn, name, layer, after=None):
        def traced(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                gc_mark = self._gc_ns
                self._exit(frame, name, layer, end)
            if after is not None:
                after(args, result)
            self._charge_parent(frame[1], gc_mark)
            return result

        return traced

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_frames.append(self._enter())
        else:
            frame = self._gc_frames.pop()
            end = clock()
            self._exit(frame, "runtime.gc", "runtime", end)
            if self._stack:
                self._stack[-1][2] += end - frame[1]
            self._gc_ns += end - frame[1]
            self.counts["runtime.gc.collections"] += 1

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        p = self._patcher
        c = self.counts

        def iou_after(prefix):
            def after(args, sim):
                c[prefix + ".cells"] += sim.size
                c[prefix + ".nonzero"] += int(np.count_nonzero(sim))  # IoU >= 0
            return after

        def solve_after(prefix):
            def after(args, assign):
                n, m = args[0].shape if hasattr(args[0], "shape") else (0, 0)
                c[prefix + ".calls"] += 1
                if n and m:
                    c[prefix + ".padded_cells"] += (n + m) ** 2
                    c[prefix + ".possible"] += min(n, m)
                c[prefix + ".matches"] += len(assign.matches)
            return after

        for site, caller in ((tracker, "tracker"), (metrics, "metrics"), (cli, "cli")):
            name = f"geometry.iou.{caller}"
            p.patch(site, "iou_matrix_tlbr",
                    self.wrap(geometry.iou_matrix_tlbr, name, "geometry", iou_after(name)))
        for site, caller in ((tracker, "tracker"), (metrics, "metrics")):
            name = f"assignment.solve.{caller}"
            p.patch(site, "min_cost_assignment",
                    self.wrap(site.min_cost_assignment, name, "assignment", solve_after(name)))
        p.patch(metrics, "solve",
                self.wrap(metrics.solve, "assignment.solve.metrics", "assignment",
                          solve_after("assignment.solve.metrics")))

        kf = kalman.KalmanFilter

        def rows_after(name):
            def after(args, result):
                c[name + ".rows"] += len(result)
            return after

        p.patch(kf, "predict_many", self.wrap(kf.predict_many, "kalman.predict_many", "kalman",
                                             rows_after("kalman.predict_many")))
        p.patch(kf, "update_many", self.wrap(kf.update_many, "kalman.update_many", "kalman",
                                            rows_after("kalman.update_many")))
        p.patch(kf, "initiate", self.wrap(kf.initiate, "kalman.initiate", "kalman",
                                         self._calls("kalman.initiate")))

        self._install_step()

        for name in MOT_IO_FILE_OPS:
            fn = getattr(mot_io, name)
            p.patch(mot_io, name, self.wrap(fn, f"mot_io.{name}", "mot_io",
                                           self._io_after(name)))
        for name in ("group_by_frame", "dump_from_rows"):
            p.patch(mot_io, name, self.wrap(getattr(mot_io, name), f"mot_io.{name}", "mot_io"))

        for name in ("clear_mot", "idf1"):
            p.patch(metrics, name, self.wrap(getattr(metrics, name), f"metrics.{name}",
                                            "metrics", self._calls(f"metrics.{name}")))
        evaluate = self.wrap(metrics.evaluate, "metrics.evaluate", "metrics", self._evaluate_after)
        p.patch(metrics, "evaluate", evaluate)
        p.patch(cli, "evaluate", evaluate)

        interpolate = self.wrap(postprocess.interpolate, "postprocess.interpolate",
                                "postprocess", self._interpolate_after)
        p.patch(postprocess, "interpolate", interpolate)
        p.patch(cli, "interpolate", interpolate)

        for name in ("main", "run_tracker", "run_sweep"):
            p.patch(cli, name, self.wrap(getattr(cli, name), f"cli.{name}", "cli"))

        gc.callbacks.append(self._gc_callback)

    def _calls(self, name):
        def after(args, result):
            self.counts[name + ".calls"] += 1
        return after

    def _io_after(self, name):
        def after(args, result):
            self.attempted += 1
            self.counts[f"mot_io.{name}.rows"] += _rows(name, args, result)
        return after

    def _evaluate_after(self, args, result):
        self.attempted += 1
        self.eval_counts.append(eval_counts(result))
        self.counts["metrics.evaluate.calls"] += 1

    def _interpolate_after(self, args, result):
        self.counts["postprocess.interpolate.filled_rows"] += dump_rows(result) - dump_rows(args[0])

    def _install_step(self) -> None:
        step = tracker.ByteTracker.step
        tr = self
        c = self.counts

        def traced_step(self, frame, detections):
            if tr.first_step_ns is None:
                tr.mark_job_start(clock())
            span = tr._enter()
            try:
                result = step(self, frame, detections)
            finally:
                end = clock()
                gc_mark = tr._gc_ns
                tr._exit(span, "tracker.step", "tracker", end)
            tr.check_step(self, result)
            stats = self.last_stats
            for key, field in TRACKER_COUNTS:
                c["tracker." + key] += getattr(stats, field)
            live = self.tracks
            c["tracker.live_tracks"] += len(live)
            c["tracker.lost_tracks"] += sum(t.state is tracker.TrackState.LOST for t in live)
            c["tracker.step.calls"] += 1
            tr._charge_parent(span[1], gc_mark)
            return result

        self._patcher.patch(tracker.ByteTracker, "step", traced_step)

    def uninstall(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self._patcher.restore()

    # -- results ----------------------------------------------------------

    def summary(self, job_ns: int) -> dict[str, float]:
        """Per-layer metrics; job_ns is the traced job's wall time."""
        busy = defaultdict(int)
        self_all = defaultdict(int)
        layer_self = dict.fromkeys(LAYERS, 0)
        job_end = (self.first_step_ns or 0) + job_ns
        for _sid, _parent, name, layer, start, end, own, job_own in self.spans:
            busy[name] += end - start
            self_all[name] += own
            if start < job_end:  # GC during the checks after the job is not job time
                layer_self[layer] += job_own

        c = self.counts
        ms = 1e-6
        out: dict[str, float] = {}
        for caller in ("tracker", "metrics"):
            iou_name = f"geometry.iou.{caller}"
            out[iou_name + ".cells"] = c[iou_name + ".cells"]
            out[iou_name + ".busy_ms"] = busy[iou_name] * ms
            out[iou_name + ".nonzero_ratio"] = _ratio(c[iou_name + ".nonzero"], c[iou_name + ".cells"])
            solve_name = f"assignment.solve.{caller}"
            out[solve_name + ".calls"] = c[solve_name + ".calls"]
            out[solve_name + ".padded_cells"] = c[solve_name + ".padded_cells"]
            out[solve_name + ".busy_ms"] = busy[solve_name] * ms
            out[solve_name + ".match_ratio"] = _ratio(c[solve_name + ".matches"], c[solve_name + ".possible"])
        for name in ("clear_mot", "idf1"):
            out[f"metrics.{name}.calls"] = c[f"metrics.{name}.calls"]
            out[f"metrics.{name}.self_ms"] = self_all[f"metrics.{name}"] * ms
        out["metrics.evaluate.calls"] = c["metrics.evaluate.calls"]
        for name in ("predict_many", "update_many"):
            out[f"kalman.{name}.rows"] = c[f"kalman.{name}.rows"]
            out[f"kalman.{name}.busy_ms"] = busy[f"kalman.{name}"] * ms
        out["kalman.initiate.calls"] = c["kalman.initiate.calls"]
        out["kalman.initiate.busy_ms"] = busy["kalman.initiate"] * ms
        out["tracker.step.calls"] = c["tracker.step.calls"]
        out["tracker.step.self_ms"] = self_all["tracker.step"] * ms
        out["cli.run_tracker.self_ms"] = self_all["cli.run_tracker"] * ms
        for key, _field in TRACKER_COUNTS:
            out["tracker." + key] = c["tracker." + key]
        out["tracker.stage2_recovery_ratio"] = _ratio(c["tracker.stage2_matches"], c["tracker.dets_low"])
        out["tracker.live_tracks_mean"] = _ratio(c["tracker.live_tracks"], c["tracker.step.calls"])
        out["tracker.lost_share"] = _ratio(c["tracker.lost_tracks"], c["tracker.live_tracks"])
        for name in MOT_IO_FILE_OPS:
            out[f"mot_io.{name}.rows"] = c[f"mot_io.{name}.rows"]
            out[f"mot_io.{name}.busy_ms"] = busy[f"mot_io.{name}"] * ms
        out["postprocess.interpolate.busy_ms"] = busy["postprocess.interpolate"] * ms
        out["postprocess.interpolate.filled_rows"] = c["postprocess.interpolate.filled_rows"]
        out["runtime.gc.collections"] = c["runtime.gc.collections"]
        out["runtime.gc.pause_ms"] = busy["runtime.gc"] * ms
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = layer_self[layer] * ms
        out["trace.job_s"] = job_ns * 1e-9
        out["trace.coverage"] = _ratio(sum(layer_self.values()), job_ns)
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,layer,start_ns,end_ns,self_ns,job_self_ns\n")
            for span in self.spans:
                fh.write(",".join(str(v) for v in span) + "\n")


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
