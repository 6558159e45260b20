"""Byte-for-byte guard on the CLI outputs of the bundled scenarios.

The hashes were recorded before the association core was optimised; any
change that alters one output bit of `track` (crossing preset and all ten
ablation sequences, both modes) or of the default `sweep` CSV fails here.
"""

import hashlib

import pytest

from bytemot.cli import main

GOLDEN_RES = {
    "crossing/byte": "a839ab0ecfea479c7e135f4f433e646aaf36fb5e7c19b78728661a146391a115",
    "crossing/single": "67c98dd7ddabc2b3e199390eaa6a8f688b590f293317225597cd3a8a8848e0bd",
    "synth-01/byte": "6b606c724d1876f6beb445bc6cd2e108e4eafa5a53ec2c7ca9139d7a6b619cdb",
    "synth-01/single": "6e7e2d018cae41e54eae44b495fb09889a1def4efafeaeb167e30a8097a3505c",
    "synth-02/byte": "13ca14031fb16cda3478d96d1182d7e41f52e051b8622606c95c5b7a681aa07a",
    "synth-02/single": "74d4696ee416502893b99b74983f577922ddf494c975e37f5d6ce61464381e00",
    "synth-03/byte": "85a9279ce41d348cd73c35aa1d2aa7823940dbdc1a4cb26351c41be96a7d888d",
    "synth-03/single": "182f04620b8ed96d9d4801ac1cb2f23e626331bde4c8ab1cecd94e7beb538ebf",
    "synth-04/byte": "57187d72edd44284df13923ba4fcbc75cd80fc8b5a6bb1eacb377769806d805b",
    "synth-04/single": "890c6d15f98a76f75d1b02b22f200a7a698d71169922a3c337b1f0fa1add842b",
    "synth-05/byte": "3411a0ebd5c51091fddda3e85904292355309531189f2928d9706616c3c9d708",
    "synth-05/single": "4396f90824f4aa8b0e4bccb7e3f323d2edc0474334a80905a58be78e66f4eb52",
    "synth-06/byte": "13d119290b584fe1b7ae25576daedfdff5bd83fe9889caa04be1f33cba06621f",
    "synth-06/single": "7877e1b6f70d5d2b774bf2c27a8275b4689bd19bc2d16bf90f9643c185f9e980",
    "synth-07/byte": "6c07ad28793e67e9609d194fbaa9273f9a611ac9b81b81675467e133ee04f81d",
    "synth-07/single": "286830bfb78b7d13b7fba7ee33bc49d54bea4ee9250518bb385e849482c29dac",
    "synth-08/byte": "bea244e024d22c3e10c1f4fe64acc31a8454d466adf2d6501b37066b72d7ba1f",
    "synth-08/single": "b404f317340a2ec57a18c7bc8eb3579dbc80b85c4a8d7514983c761ea8cdc30e",
    "synth-09/byte": "9a5fe517b08fc4e5731763a2fba21c0eff569cb96a62815b027989a7dfe3024e",
    "synth-09/single": "36b4ec915c6cfab1b3eba04273f45f23cbbc32cad8694c68a2bff2b4452f8879",
    "synth-10/byte": "c9585d951b20558d1370bb4dd8e67250e7b5684304971636daa5bfa07a0bfde9",
    "synth-10/single": "d307e7bcd270f9886f03b7b160c05f08eec989506851fa7b1081f230aaf2a456",
}
GOLDEN_SWEEP = "be31a61ae06768e81557896a66112b0ea1a2308d9d78b4dc997df91d72e4ecae"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("goldens")
    assert main(["synth", "--preset", "crossing", "--out-dir", str(root / "crossing")]) == 0
    assert main(["synth", "--preset", "ablation", "--out-dir", str(root / "corpus")]) == 0
    seqs = [("crossing", root / "crossing")]
    seqs += [(p.name, p) for p in sorted((root / "corpus").iterdir()) if p.is_dir()]
    hashes = {}
    for name, seq in seqs:
        for mode in ("byte", "single"):
            res = seq / f"res-{mode}.txt"
            assert main(["track", str(seq / "det.txt"), str(res), "--mode", mode]) == 0
            hashes[f"{name}/{mode}"] = sha256(res)
    sweep = root / "sweep.csv"
    assert main(["sweep", "--corpus", str(root / "corpus"), "--out", str(sweep)]) == 0
    return hashes, sha256(sweep)


def test_track_outputs_unchanged(outputs):
    hashes, _ = outputs
    assert hashes == GOLDEN_RES


def test_sweep_csv_unchanged(outputs):
    _, sweep = outputs
    assert sweep == GOLDEN_SWEEP
