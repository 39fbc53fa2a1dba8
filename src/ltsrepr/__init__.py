"""Decoupled long-tailed classification at desk scale.

Stage 1 trains an MLP feature extractor with SGD, optionally maintaining a
running weight average and a diagonal Gaussian posterior over the extractor.
Stage 2 re-trains the classifier over the frozen extractor with one of
several rebalancing strategies: from-scratch re-training, learnable weight
scaling, gated logit calibration, or stochastic-representation re-training
with Dirichlet self-distillation. Evaluation covers accuracy per
class-frequency split, likelihood, calibration, and dispersion analysis.
"""

from .balancing import BalancingSpec, balanced_ce_loss_and_grad, grw_weights, logit_adjust
from .data import (
    DatasetConfig,
    LongTailDataset,
    assign_splits,
    class_balanced_indices,
    instance_balanced_indices,
    load_dataset,
    longtail_class_counts,
    make_longtail_dataset,
    mixup_batch,
    save_dataset,
)
from .metrics import (
    MetricsReport,
    accuracy,
    dispersion_prob,
    dispersion_repr,
    ece,
    ensemble_predict,
    nll,
    pearson_corr,
    per_class_diagnostics,
    quartile_analysis,
)
from .netcore import (
    ModelParams,
    OptimState,
    SgdHyper,
    backward,
    cosine_lr,
    cross_entropy,
    features,
    init_params,
    model_logits,
    predict_proba,
    sgd_update_arrays,
    softmax,
    softmax_ce,
)
from .pipeline import ExperimentConfig, run_analyze, run_eval, run_pretrain, run_retrain, run_sweep
from .retrain import (
    DisAlignParams,
    SreprConfig,
    crt,
    dirichlet_kl,
    disalign,
    estimate_beta,
    fit_head,
    kd_loss,
    lws,
    mean_ce_loss,
    srepr_retrain,
    stochastic_representations,
    student_alpha,
    teacher_probs,
)
from .swag import (
    SwagPosterior,
    SwaSchedule,
    freeze,
    new_posterior,
    posterior_features,
    sample_theta,
    should_capture,
    swa_learning_rate,
    swa_params,
    update_moments,
)

__version__ = "0.1.0"
