"""Uncertainty analysis: dispersion, correlation with errors, ensembling.

After averaged training plus classifier re-training, measures how much the
posterior's stochastic representations disperse per test instance, shows
that harder instances (higher NLL) disperse more, and sweeps the ensemble
size to watch uncertainty estimates improve while accuracy stays flat.

Run: python demos/05_uncertainty_analysis.py
"""

import ltsrepr.pipeline as pl
from ltsrepr.metrics import ece, ensemble_predict, nll
from ltsrepr.util import rng_stream, STREAM_ENSEMBLE

cfg = pl.ExperimentConfig()
datasets = pl.build_datasets(cfg)
train, test = datasets
pre, _ = pl.run_pretrain(cfg, datasets)
ret = pl.run_retrain(cfg, pre, datasets)

analysis = pl.run_analyze(cfg, ret, datasets)

print("dispersion of stochastic predictions by NLL quartile (median per group):")
for i, box in enumerate(analysis.quartiles_prob.groups, start=1):
    bar = "#" * int(200 * box.median)
    print(f"  Q{i} (count {box.count:4d}): {box.median:.4f} {bar}")
print(f"correlation(NLL, prediction dispersion)    = {analysis.quartiles_prob.pcc:.3f}")
print(f"correlation(NLL, representation dispersion) = {analysis.quartiles_repr.pcc:.3f}")

print("\nensemble sweep on the re-trained classifier:")
print("  M | acc    | nll    | ece")
rng = rng_stream(cfg.run.seed, STREAM_ENSEMBLE)
for m in (1, 2, 4, 8):
    probs = ensemble_predict(test.features, ret.posterior, ret.params.w, ret.params.b, m, rng,
                             "relu")
    acc = (probs.argmax(axis=1) == test.labels).mean()
    e, _ = ece(probs, test.labels)
    print(f"  {m} | {acc:.4f} | {nll(probs, test.labels):.4f} | {e:.4f}")

print("\nper-class diagnostics after re-training:")
norms = analysis.report.per_class_weight_norm
marginal = analysis.report.per_class_marginal
print("  class | train count | weight norm | marginal likelihood")
for k in range(len(norms)):
    print(f"  {k:5d} | {train.class_counts[k]:11d} | {norms[k]:11.3f} | {marginal[k]:.4f}")
print("(a perfectly balanced predictor would put marginal 0.1 on each class)")
