"""Stage-2 baselines: re-training, weight scaling, and logit calibration.

With the extractor frozen after averaged stage-1 training, compares the
classifier re-training baselines and rebalancing strategies on one seed.
The vanilla stage-1 classifier collapses on the tail; every rebalanced
stage-2 method recovers a large part of it.

Run: python demos/03_classifier_retraining.py
"""

from dataclasses import replace

import ltsrepr.pipeline as pl

cfg = pl.ExperimentConfig()
datasets = pl.build_datasets(cfg)
pre, _ = pl.run_pretrain(cfg, datasets)


def row(name, report):
    few = "  -  " if report.acc_few is None else f"{report.acc_few:.3f}"
    print(f"{name:18s} acc {report.acc_all:.3f}  few {few}  "
          f"nll {report.nll:.3f}  ece {report.ece:.3f}")


print("method             overall    tail   likelihood calibration")
row("stage-1 only", pl.run_eval(cfg, pre, datasets))

for method in ("crt", "lws", "disalign"):
    mcfg = replace(cfg, retrain=replace(cfg.retrain, method=method))
    model = pl.run_retrain(mcfg, pre, datasets)  # disalign's calibration travels inside it
    row(method, pl.run_eval(mcfg, model, datasets))
    if "lws_tau" in model.metadata:
        print(f"{'':18s} (learned norm exponent tau = {model.metadata['lws_tau']:.3f})")

# Rebalancing strategies for the same re-training method: class-balanced
# sampling (cbs), generalized re-weighting (grw), logit adjustment (la).
print("\ncrt under different balancing strategies:")
for balance in ("none", "cbs", "grw", "la"):
    bcfg = replace(cfg, retrain=replace(cfg.retrain, method="crt", balance=balance))
    row(f"crt + {balance}", pl.run_eval(bcfg, pl.run_retrain(bcfg, pre, datasets), datasets))
