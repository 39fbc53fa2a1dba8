"""Golden digests of the default fixed-seed pipeline.

Runs the command line in-process at the desk defaults with seed 0:
pretrain, then every stage-2 method on the pretrain checkpoint, then an
8-member posterior-ensemble eval of each result. Every artifact must match
its recorded SHA-256 prefix, so a refactor that moves one bit of a
checkpoint or report fails here.
"""

import hashlib

import pytest

from ltsrepr.cli import main

GOLDEN = {
    "pretrain.ckpt": "4f4e70475a077b28",
    "pretrain_metrics.json": "f8a0ad1a3acf898f",
    "crt/retrain.ckpt": "30509b1abd6d260c",
    "lws/retrain.ckpt": "a3e203cb9ce2a2cc",
    "disalign/retrain.ckpt": "570cc2f375dd3e75",
    "srepr/retrain.ckpt": "bb064e831d63f33f",
    "crt/eval_report.json": "f03ed92c70aaebac",
    "lws/eval_report.json": "838a7c0c81d35620",
    "disalign/eval_report.json": "15e5cac731cf4109",
    "srepr/eval_report.json": "e987ef4a9c74d886",
}

METHODS = ("crt", "lws", "disalign", "srepr")


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    common = ["--seed", "0", "--dataset-cache", str(root / "ds.bin")]
    assert main(["pretrain", "--output-dir", str(root), *common]) == 0
    for method in METHODS:
        out = str(root / method)
        assert main(
            ["retrain", "--retrain", method, "--checkpoint", str(root / "pretrain.ckpt"),
             "--output-dir", out, *common]
        ) == 0
        assert main(
            ["eval", "--ensemble-m", "8", "--checkpoint", str(root / method / "retrain.ckpt"),
             "--output-dir", out, *common]
        ) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest[:16] == GOLDEN[name]
