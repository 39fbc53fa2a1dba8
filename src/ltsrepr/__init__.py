"""Decoupled long-tailed classification at desk scale.

Stage 1 trains an MLP feature extractor with SGD, optionally maintaining a
running weight average and a diagonal Gaussian posterior over the extractor.
Stage 2 re-trains the classifier over the frozen extractor with one of
several rebalancing strategies: from-scratch re-training, learnable weight
scaling, gated logit calibration, or stochastic-representation re-training
with Dirichlet self-distillation. Evaluation covers accuracy per
class-frequency split, likelihood, calibration, and dispersion analysis.

Import from the modules: `ltsrepr.pipeline` holds the config and the stage
drivers, `ltsrepr.cli` the command line.
"""

__version__ = "0.1.0"
