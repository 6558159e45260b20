"""Byte-for-byte guard on the evaluation results.

One sha256 covers, for every evaluated case, the EvalResult of `evaluate`,
the `matches_by_frame` of `clear_mot` and the IdfResult of `idf1`. The cases
are the ten ablation sequences tracked at tau_high 0.2, 0.5 and 0.8 in both
modes, scored at iou_min 0.5, and a 200-agent timing crowd scored at
iou_min 0, 0.3, 0.5 and 0.7. The hash was recorded before evaluation moved
to the columnar index, so any change to one count, ratio bit or matched pair
fails here.
"""

import dataclasses
import hashlib
import json

from bytemot import synth
from bytemot.cli import run_tracker
from bytemot.metrics import clear_mot, evaluate, idf1
from bytemot.tracker import Mode, TrackerConfig

GOLDEN_EVAL = "fd3a8592b16955fd16b236c2504846fdbd39cd4cc1320f6f5fa0dbeda6f02946"


def _case(gt, dump, iou_min):
    result = evaluate(gt, dump, iou_min=iou_min)
    clear = clear_mot(gt, dump, iou_min=iou_min)
    ident = idf1(gt, dump, iou_min=iou_min)
    return {
        "eval": [repr(v) for v in dataclasses.astuple(result)],
        "matches": [[frame, pairs] for frame, pairs in sorted(clear.matches_by_frame.items())],
        "idf1": [repr(v) for v in dataclasses.astuple(ident)],
    }


def eval_digest() -> str:
    cases = []
    corpus = [synth.generate(cfg) for _, cfg in synth.ablation_corpus()]
    for mode in (Mode.BYTE, Mode.SINGLE):
        for tau in (0.2, 0.5, 0.8):
            cfg = TrackerConfig(tau_high=tau, mode=mode)
            for gt, dets in corpus:
                dump, _ = run_tracker(dets, cfg)
                cases.append(_case(gt, dump, 0.5))
    gt, dets = synth.generate(synth.timing_config(agents=200, frames=120))
    dump, _ = run_tracker(dets, TrackerConfig())
    for iou_min in (0.0, 0.3, 0.5, 0.7):
        cases.append(_case(gt, dump, iou_min))
    blob = json.dumps(cases, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def test_eval_results_unchanged():
    assert eval_digest() == GOLDEN_EVAL
