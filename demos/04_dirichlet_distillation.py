"""Anatomy of stochastic-representation self-distillation.

For one batch: draw extractor samples from the posterior, form the virtual
teacher ensemble, fit the per-example Dirichlet concentration to it, build
the student's implicit Dirichlet from its logits, and read off both loss
terms. Then runs the full stage-2 re-training and compares against plain
classifier re-training.

Run: python demos/04_dirichlet_distillation.py
"""

from dataclasses import replace

import numpy as np

import ltsrepr.pipeline as pl
from ltsrepr.netcore import classifier_logits, features
from ltsrepr.retrain import (
    estimate_beta,
    kd_loss_and_alpha_grad,
    mean_ce_loss_and_grad,
    stochastic_representations,
    student_alpha_from_logits,
    teacher_probs,
)
from ltsrepr.balancing import BalancingSpec

cfg = pl.ExperimentConfig()
datasets = pl.build_datasets(cfg)
train, test = datasets
pre, _ = pl.run_pretrain(cfg, datasets)
post = pre.posterior

scfg = cfg.retrain  # srepr_m 10 stochastic representations, kd_temp 20
rng = np.random.default_rng(3)
x, y = train.features[:6], train.labels[:6]

reps = stochastic_representations(x, "posterior", post, scfg, rng)
print(f"stochastic representations: {reps.shape} (samples x batch x dims)")

probs, p_bar = teacher_probs(reps @ pre.params.w + pre.params.b, scfg.kd_temp)
print("teacher spread (max prob per example, across the ensemble):")
print("  ", np.round(probs.max(axis=2).T[:3], 3))

beta = estimate_beta(probs, scfg.beta_floor)
print("teacher concentration (precision per example):", np.round(beta.sum(axis=1), 1))
print("  agreeing teachers -> high precision; disagreeing -> low")

f_swa = features(pre.params.layers, x)
z = classifier_logits(pre.params.w, pre.params.b, f_swa)
alpha, _ = student_alpha_from_logits(z, scfg.kd_temp)
print("student precision:", np.round(alpha.sum(axis=1), 2))

ce, _, _ = mean_ce_loss_and_grad(pre.params.w, pre.params.b, reps, y, BalancingSpec("none"))
kd, _ = kd_loss_and_alpha_grad(alpha, beta, p_bar)
print(f"\nloss terms on this batch: mean-CE {ce:.4f}, distillation {kd:.4f} "
      f"(combined with equal 0.5 weights)")

# The payoff: compared to plain re-training, the distilled classifier keeps
# accuracy and markedly improves likelihood and calibration.
for method in ("crt", "srepr"):
    mcfg = replace(cfg, retrain=replace(cfg.retrain, method=method))
    report = pl.run_eval(mcfg, pl.run_retrain(mcfg, pre, datasets), datasets)
    print(f"{method:6s} acc {report.acc_all:.3f}  nll {report.nll:.3f}  ece {report.ece:.3f}")
