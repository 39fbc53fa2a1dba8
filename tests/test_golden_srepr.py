"""Golden digests of srepr re-training beyond the default options.

srepr draws one block of M posterior samples at the start of each stage-2
epoch and its input-jitter noise per step, each after the draws before it
in one RNG stream, so any change to the draw order or to the arithmetic
of a draw fails here. Runs the command line in-process at the desk
defaults with seed 0.
"""

import hashlib

import pytest

from ltsrepr.cli import main

GOLDEN = {
    "la": (("--balance", "la"), "efa7a55090b49943"),
    "grw": (("--balance", "grw"), "603aa6ca1b3103cb"),
    "jitter": (("--stochastic-source", "jitter"), "c9ae2f1dd7052d18"),
}


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden_srepr")
    common = ["--seed", "0", "--dataset-cache", str(root / "ds.bin")]
    assert main(["pretrain", "--output-dir", str(root), *common]) == 0
    return root, common


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_srepr_checkpoint_digest(pretrained, name):
    root, common = pretrained
    flags, expected = GOLDEN[name]
    out = root / name
    assert main(
        ["retrain", "--retrain", "srepr", "--checkpoint", str(root / "pretrain.ckpt"),
         "--output-dir", str(out), *common, *flags]
    ) == 0
    digest = hashlib.sha256((out / "retrain.ckpt").read_bytes()).hexdigest()
    assert digest[:16] == expected
