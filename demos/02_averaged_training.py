"""Stage-1 training with weight averaging and the diagonal posterior.

Trains the same model twice, with plain cosine-annealed SGD and with the
averaging schedule (constant high learning rate late in training, snapshot
captures at epoch ends), then inspects the frozen posterior: moment
bookkeeping, per-parameter spread, and sampling.

Run: python demos/02_averaged_training.py
"""

from dataclasses import replace

import numpy as np

import ltsrepr.pipeline as pl
from ltsrepr.netcore import cosine_lr
from ltsrepr.swag import sample_theta, swa_learning_rate

cfg = pl.ExperimentConfig()
datasets = pl.build_datasets(cfg)

# The two learning-rate schedules, side by side (1200 steps total).
steps = [0, 300, 600, 890, 900, 1050, 1199]
print("step | cosine lr | averaged-run lr")
for t in steps:
    print(f"{t:4d} | {cosine_lr(t, 1200, 0.1):9.4f} | {swa_learning_rate(t, 1200, 0.1, cfg.swa):9.4f}")

sgd, _ = pl.run_pretrain(replace(cfg, swa=replace(cfg.swa, enabled=False)), datasets)
swa, _ = pl.run_pretrain(cfg, datasets)

rep_sgd = pl.run_eval(cfg, sgd, datasets)
rep_swa = pl.run_eval(cfg, swa, datasets)
print(f"\nSGD  pretrain: acc {rep_sgd.acc_all:.3f}  nll {rep_sgd.nll:.3f}  ece {rep_sgd.ece:.3f}")
print(f"SWA  pretrain: acc {rep_swa.acc_all:.3f}  nll {rep_swa.nll:.3f}  ece {rep_swa.ece:.3f}")
print("(before classifier re-training the averaged run is not expected to win; "
      "the tail split is the bottleneck for both)")

post = swa.posterior
print(f"\nposterior: {post.count} captured snapshots over {post.mean.size} parameters")
print(f"  extractor spread: median std {np.median(np.sqrt(post.sigma[:post.theta_dim])):.4f}, "
      f"max std {np.sqrt(post.sigma[:post.theta_dim]).max():.4f}")

# Two extractor samples from the posterior differ, but stay near the mean.
rng = np.random.default_rng(7)
theta_a = sample_theta(post, rng)
theta_b = sample_theta(post, rng)
delta = np.linalg.norm(theta_a[0][0] - theta_b[0][0])
print(f"  first-layer weight distance between two samples: {delta:.3f}")
