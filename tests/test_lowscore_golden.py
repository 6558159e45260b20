"""Byte-for-byte guard on the `lowscore-report` CSV.

One sha256 covers the CSV of every case: the ten ablation sequences, each
tracked in both modes at tau_high 0.2, 0.5 and 0.8 and reported with the same
tau_high and the default tau_low. The hash was recorded before the report
moved onto the evaluation's overlap gate, so any change to one count fails
here.
"""

import hashlib

import pytest

from bytemot.cli import main

GOLDEN_LOWSCORE = "523dbe7ca8512dff69b57ff7828ee160bfeb853b479313aec68120eb8363c817"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("lowscore")
    assert main(["synth", "--preset", "ablation", "--out-dir", str(root)]) == 0
    return root


def test_lowscore_csv_unchanged(corpus):
    digest = hashlib.sha256()
    for seq in sorted(p for p in corpus.iterdir() if p.is_dir()):
        for mode in ("byte", "single"):
            for tau in ("0.2", "0.5", "0.8"):
                res = seq / f"res-{mode}-{tau}.txt"
                csv_path = seq / f"low-{mode}-{tau}.csv"
                assert main(["track", str(seq / "det.txt"), str(res),
                             "--mode", mode, "--tau-high", tau]) == 0
                assert main(["lowscore-report", "--det", str(seq / "det.txt"),
                             "--gt", str(seq / "gt.txt"), "--res", str(res),
                             "--tau-high", tau, "--name", seq.name,
                             "--out", str(csv_path)]) == 0
                digest.update(csv_path.read_bytes())
    assert digest.hexdigest() == GOLDEN_LOWSCORE
