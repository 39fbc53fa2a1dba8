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
    "pretrain_metrics.json": "4bcc4a208ba395ad",
    "crt/retrain.ckpt": "3701edee150d629d",
    "lws/retrain.ckpt": "3b66c219b23ed0f6",
    "disalign/retrain.ckpt": "c744004973309c9b",
    "srepr/retrain.ckpt": "8cb629bff7d0e676",
    "crt/eval_report.json": "dddaecd45dbc805d",
    "lws/eval_report.json": "90bc6ad7d06d9d3c",
    "disalign/eval_report.json": "1a065e9c07e38600",
    "srepr/eval_report.json": "5c19227c93f6d642",
    "crt/eval_report.csv": "ea11d5195d3aefbd",
    "lws/eval_report.csv": "9c654522066cc47b",
    "disalign/eval_report.csv": "a7c692bdd08ff4b2",
    "srepr/eval_report.csv": "ef8d9664f2f74667",
    "crt/eval_bins.csv": "7d2307db2ffbdf9f",
    "lws/eval_bins.csv": "7df30b74b6e0bed3",
    "disalign/eval_bins.csv": "ae890e2769d8820a",
    "srepr/eval_bins.csv": "ea67da55a260d52e",
    "srepr/analyze/analysis_summary.json": "b4ef7175797922cb",
    "srepr/analyze/instance_metrics.csv": "97f1e7cc504436c2",
    "srepr/analyze/per_class.csv": "d34aa1f98b0b2580",
    "srepr/analyze/quartiles_prob.csv": "c3f0186e09c8259b",
    "srepr/analyze/quartiles_repr.csv": "dcf1825619a71692",
    "srepr/analyze/reliability_bins.csv": "60c69b0e79a39789",
    # mixup's pretrain_metrics.json is not pinned: its epoch losses are sums
    # of soft-target cross-entropies, whose last bit depends on how the
    # log-probabilities are formed
    "mixup/pretrain.ckpt": "111ca8513883fc5c",
    "sweep/sweep_table.csv": "6e68f62718f0c29d",
    "sweep/sweep_runs.csv": "8203030b84768066",
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
