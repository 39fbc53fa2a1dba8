"""Golden digests of the default fixed-seed pipeline.

Runs the command line in-process at the desk defaults with seed 0:
pretrain, then every stage-2 method on the pretrain checkpoint, then an
8-member posterior-ensemble eval of each result and an analysis of the
srepr checkpoint. Beside that chain it runs a mixup pretrain and a
two-seed, 12-epoch sweep. Every artifact must match its recorded SHA-256
prefix, so a refactor that moves one bit of a checkpoint or report fails
here.
"""

import hashlib

import pytest

from ltsrepr.cli import main

GOLDEN = {
    "pretrain.ckpt": "7a4688dc98bfef52",
    "pretrain_metrics.json": "11b39ab018462057",
    "crt/retrain.ckpt": "3701edee150d629d",
    "lws/retrain.ckpt": "3b66c219b23ed0f6",
    "disalign/retrain.ckpt": "c744004973309c9b",
    "srepr/retrain.ckpt": "8cb629bff7d0e676",
    "crt/eval_report.json": "10cbc7cfc1e85012",
    "lws/eval_report.json": "2296b9b464eb957f",
    "disalign/eval_report.json": "43e42425aaadde54",
    "srepr/eval_report.json": "7c6b4fc6517adcb7",
    "crt/eval_report.csv": "0c588c4653aa2faf",
    "lws/eval_report.csv": "46b27ca613d30250",
    "disalign/eval_report.csv": "aec5339b5c91ab98",
    "srepr/eval_report.csv": "50ca37c176769d81",
    "crt/eval_bins.csv": "62088b65a9ed3b98",
    "lws/eval_bins.csv": "d1ed6cb30151767b",
    "disalign/eval_bins.csv": "7a9be55165db7db2",
    "srepr/eval_bins.csv": "66edc6fe197178bc",
    "srepr/analyze/analysis_summary.json": "697ac8ff34e727d8",
    "srepr/analyze/instance_metrics.csv": "c8b9e4c15c3cd55c",
    "srepr/analyze/per_class.csv": "a1c94ad26fbc27c8",
    "srepr/analyze/quartiles_prob.csv": "d4cadce465359891",
    "srepr/analyze/quartiles_repr.csv": "27a2a5f43f3f51f5",
    "srepr/analyze/reliability_bins.csv": "d967b2078fbaada9",
    # mixup's pretrain_metrics.json is not pinned: its epoch losses are sums
    # of soft-target cross-entropies, whose last bit depends on how the
    # log-probabilities are formed
    "mixup/pretrain.ckpt": "111ca8513883fc5c",
    "sweep/sweep_table.csv": "d2e02f90af420bb8",
    "sweep/sweep_runs.csv": "e4028f26d7a1b3a8",
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
    assert main(
        ["analyze", "--checkpoint", str(root / "srepr" / "retrain.ckpt"),
         "--output-dir", str(root / "srepr" / "analyze"), *common]
    ) == 0
    assert main(
        ["pretrain", "--mixup-alpha", "0.3", "--output-dir", str(root / "mixup"), *common]
    ) == 0
    assert main(
        ["sweep", "--seeds", "0,1", "--epochs", "12", "--output-dir", str(root / "sweep")]
    ) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest[:16] == GOLDEN[name]
