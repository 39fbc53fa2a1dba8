"""Golden digests of srepr re-training beyond the default options.

srepr draws its batch indices and posterior (or input-jitter) samples on a
producer thread that runs one step ahead of the training loop. These
digests were recorded from the single-threaded loop that drew them inline,
so any change to the draw order or to the arithmetic of a draw fails here.
Runs the command line in-process at the desk defaults with seed 0.
"""

import hashlib

import pytest

from ltsrepr.cli import main

GOLDEN = {
    "la": (("--balance", "la"), "cb0e38f0c08e2ad9"),
    "grw": (("--balance", "grw"), "035aa8d419458e35"),
    "jitter": (("--stochastic-source", "jitter"), "f7a484c2dc9144fc"),
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
