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
    "crt/eval_report.csv": "872601985fdab5b6",
    "lws/eval_report.csv": "31feb73188ea884c",
    "disalign/eval_report.csv": "087a72fcfe54c6a6",
    "srepr/eval_report.csv": "1782a6dae5b478a7",
    "crt/eval_bins.csv": "44105b30bae5153d",
    "lws/eval_bins.csv": "4a44fcad3f1e51a7",
    "disalign/eval_bins.csv": "f1b56806733f22df",
    "srepr/eval_bins.csv": "875b587ae2d1994b",
    "srepr/analyze/analysis_summary.json": "bc30038f0d3b1c57",
    "srepr/analyze/instance_metrics.csv": "af0e31c65b775da0",
    "srepr/analyze/per_class.csv": "8a42b0c594067363",
    "srepr/analyze/quartiles_prob.csv": "40ae52faa605f1e6",
    "srepr/analyze/quartiles_repr.csv": "8cd5d722f3a1fa72",
    "srepr/analyze/reliability_bins.csv": "0dd6cae347ce6134",
    # mixup's pretrain_metrics.json is not pinned: its epoch losses are sums
    # of soft-target cross-entropies, whose last bit depends on how the
    # log-probabilities are formed
    "mixup/pretrain.ckpt": "a6063fcd71ccb148",
    "sweep/sweep_table.csv": "52fb455701801b6b",
    "sweep/sweep_runs.csv": "ca0fee246e8893f3",
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
        ["sweep", "--seeds", "0,1", "--epochs", "12", "--output-dir", str(root / "sweep"),
         "--dataset-cache", str(root / "ds.bin")]
    ) == 0
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_digest(golden_run, name):
    digest = hashlib.sha256((golden_run / name).read_bytes()).hexdigest()
    assert digest[:16] == GOLDEN[name]
