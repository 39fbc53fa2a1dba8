"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single pass/fail line (run with `pytest -s` to see them stream).
Trend criteria share one 4-seed benchmark bundle trained at the default
desk-scale configuration.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from gradcheck import max_grad_error, numeric_grad
from reference import dirichlet_kl, kd_loss, mean_ce_loss
from scipy import stats
from scipy.special import digamma

import ltsrepr.pipeline as pl
from ltsrepr.balancing import BalancingSpec, balanced_ce_loss_and_grad, grw_weights, logit_adjust
from ltsrepr.checkpoint import load_checkpoint
from ltsrepr.cli import main as cli_main
from ltsrepr.data import class_balanced_indices, make_longtail_dataset, DatasetConfig
from ltsrepr.metrics import dispersion_prob, ece, ensemble_predict, nll
from ltsrepr.netcore import (
    backward,
    init_params,
    softmax_ce,
)
from ltsrepr.retrain import (
    DisAlignParams,
    disalign_loss_and_grads,
    estimate_beta,
    kd_loss_and_alpha_grad,
    mean_ce_loss_and_grad,
)
from ltsrepr.swag import freeze, new_posterior, sample_theta, update_moments
from ltsrepr.util import rng_stream, STREAM_ENSEMBLE
from ltsrepr.netcore import ModelParams


def criterion(number, name, ok, detail=""):
    line = f"[ACCEPTANCE] criterion {number:02d} {'PASS' if ok else 'FAIL'} - {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# Criterion 1: gradient correctness over 100 random small instances
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    d, l, k, m, batch = 3, 4, 3, 3, 5
    freqs = np.array([0.6, 0.3, 0.1])
    worst = 0.0

    def fd_check(analytic, f, x):
        return max_grad_error(analytic, numeric_grad(f, np.asarray(x, dtype=float).copy()))

    for i in range(100):
        params = init_params(rng, d, (5,), l, k)
        x = rng.standard_normal((batch, d))
        y = rng.integers(0, k, size=batch)
        kind = i % 5
        if kind == 0:  # plain cross-entropy through the whole network
            _, grads = backward(params, x, y, softmax_ce, activation="tanh")
            err = fd_check(
                grads.flat,
                lambda flat: backward(
                    params.like(flat), x, y, softmax_ce, "tanh"
                )[0],
                params.flat,
            )
        elif kind == 1:  # rebalanced cross-entropy (re-weighting / adjustment)
            spec = BalancingSpec("grw" if i % 2 else "la", rho=1.0, frequencies=freqs)
            loss_fn = lambda z, yy: balanced_ce_loss_and_grad(z, yy, spec)
            _, grads = backward(params, x, y, loss_fn, activation="tanh")
            err = fd_check(
                grads.flat,
                lambda flat: backward(
                    params.like(flat), x, y, loss_fn, "tanh"
                )[0],
                params.flat,
            )
        elif kind == 2:  # gated logit calibration loss
            z = rng.standard_normal((batch, k))
            cal = DisAlignParams(
                scale=1.0 + 0.2 * rng.standard_normal(k),
                shift=0.2 * rng.standard_normal(k),
                gate_w=0.3 * rng.standard_normal(k),
                gate_b=float(0.2 * rng.standard_normal()),
            )
            cw = grw_weights(freqs, 1.0)
            _, (gs, gh, ggw, ggb) = disalign_loss_and_grads(cal, z, y, cw)
            packed = np.concatenate([gs, gh, ggw, [ggb]])

            def cal_loss(vec):
                p = DisAlignParams(vec[:k], vec[k : 2 * k], vec[2 * k : 3 * k], float(vec[-1]))
                return disalign_loss_and_grads(p, z, y, cw)[0]

            err = fd_check(
                packed,
                cal_loss,
                np.concatenate([cal.scale, cal.shift, cal.gate_w, [cal.gate_b]]),
            )
        elif kind == 3:  # mean cross-entropy over stochastic representations
            reps = rng.standard_normal((m, batch, l))
            w = rng.standard_normal((l, k))
            b = rng.standard_normal(k)
            spec = BalancingSpec("grw", rho=1.0, frequencies=freqs)
            _, gw, gb = mean_ce_loss_and_grad(w, b, reps, y, spec)
            err = max(
                fd_check(gw, lambda v: mean_ce_loss(v, b, reps, y, spec), w),
                fd_check(gb, lambda v: mean_ce_loss(w, v, reps, y, spec), b),
            )
        else:  # distillation loss wrt student concentrations
            alpha = rng.uniform(1.2, 6.0, size=(batch, k))
            beta = rng.uniform(1.2, 9.0, size=(batch, k))
            p_bar = rng.dirichlet(np.ones(k), size=batch)
            _, grad = kd_loss_and_alpha_grad(alpha, beta, p_bar)
            err = fd_check(grad, lambda a: kd_loss(a, beta, p_bar), alpha)
        worst = max(worst, err)

    elapsed = time.monotonic() - start
    criterion(
        1,
        "gradient correctness vs central finite differences",
        worst <= 1e-4 and elapsed < 30.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: weight-averaging exactness and posterior sampling moments
# ---------------------------------------------------------------------------

def test_criterion_02_swa_swag_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(202)
    template = init_params(rng, 4, (5,), 3, 2)
    post = new_posterior(template)
    snaps = []
    for _ in range(20):
        p = init_params(rng, 4, (5,), 3, 2)
        snaps.append(p.flat)
        update_moments(post, p)
    stacked = np.stack(snaps)
    mean_err = np.max(np.abs(post.mean - stacked.mean(axis=0)))
    freeze(post)
    var_err = np.max(np.abs(post.sigma - stacked.var(axis=0)))

    scalar = ModelParams([(np.zeros((1, 1)), np.zeros(1))], np.zeros((1, 1)), np.zeros(1))
    spost = new_posterior(scalar)
    update_moments(spost, scalar)
    update_moments(spost, scalar)
    freeze(spost)
    spost.mean = np.full(4, 2.0)
    spost.sigma = np.full(4, 1.0)
    srng = np.random.default_rng(203)
    draws = np.array([sample_theta(spost, srng)[0][1][0] for _ in range(100_000)])
    mean_ok = abs(draws.mean() - 2.0) <= 0.01 * 2.0
    var_ok = abs(draws.var() - 1.0) <= 0.01 * 1.0

    elapsed = time.monotonic() - start
    criterion(
        2,
        "weight-averaging moments exact; posterior sampling moments within 1%",
        mean_err <= 1e-12 and var_err <= 1e-10 and mean_ok and var_ok and elapsed < 10.0,
        f"mean err {mean_err:.1e}, var err {var_err:.1e}, "
        f"sample mean {draws.mean():.4f}, sample var {draws.var():.4f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: Dirichlet math
# ---------------------------------------------------------------------------

def test_criterion_03_dirichlet_math():
    start = time.monotonic()
    rng = np.random.default_rng(303)

    direction_err = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 8))
        k = int(rng.integers(2, 10))
        teachers = rng.dirichlet(np.ones(k), size=m)
        beta = estimate_beta(teachers)
        pre = beta - 1.0
        direction_err = max(
            direction_err, np.max(np.abs(pre / pre.sum() - teachers.mean(axis=0)))
        )

    hand = estimate_beta(np.array([[0.6, 0.4], [0.8, 0.2]]))
    hand_ok = np.all(np.abs(hand - np.array([15.06, 7.03])) <= 0.01)

    kl_self = abs(dirichlet_kl(np.array([3.0, 1.5, 2.2]), np.array([3.0, 1.5, 2.2])))

    k = 4
    alpha = rng.uniform(1.2, 7.0, size=k)
    p_bar = rng.dirichlet(np.ones(k))
    analytic = -(p_bar * (digamma(alpha) - digamma(alpha.sum()))).sum()
    draws = rng.dirichlet(alpha, size=1_000_000)
    values = -(p_bar * np.log(np.maximum(draws, 1e-300))).sum(axis=1)
    se = values.std(ddof=1) / math.sqrt(values.size)
    mc_ok = abs(analytic - values.mean()) <= 3 * se

    elapsed = time.monotonic() - start
    criterion(
        3,
        "Dirichlet fitting and distillation-loss identities",
        direction_err <= 1e-12
        and hand_ok
        and kl_self <= 1e-10
        and mc_ok
        and elapsed < 60.0,
        f"direction err {direction_err:.1e}, hand case {np.round(hand, 3)}, "
        f"self-KL {kl_self:.1e}, MC gap {abs(analytic - values.mean()):.2e} vs 3SE {3*se:.2e}, "
        f"{elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 4: metric hand cases
# ---------------------------------------------------------------------------

def test_criterion_04_metric_correctness():
    ece_value, _ = ece(np.array([[0.6, 0.4], [0.2, 0.8]]), np.array([0, 0]), n_bins=15)
    ece_ok = abs(ece_value - 0.6) <= 1e-12

    nll_value = nll(np.full((5, 10), 0.1), np.zeros(5, dtype=int))
    nll_ok = abs(nll_value - math.log(10)) <= 1e-12

    jsd_value = dispersion_prob(np.array([[1.0, 0.0], [0.0, 1.0]]))
    jsd_ok = abs(jsd_value - math.log(2)) <= 1e-12

    criterion(
        4,
        "calibration/likelihood/divergence hand cases exact",
        ece_ok and nll_ok and jsd_ok,
        f"ece {ece_value:.12f}, nll {nll_value:.12f}, jsd {jsd_value:.12f}",
    )


# ---------------------------------------------------------------------------
# Trend criteria 5-8 share one 4-seed benchmark bundle
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2, 3)


@pytest.fixture(scope="module")
def trend_bundle():
    base = pl.ExperimentConfig()
    bundle = {
        "sgd_pre": [], "sgd_crt": [], "swa_pre": [], "swa_crt": [], "swa_srepr": [],
        "pcc_prob": [], "ens_nll_1": [], "ens_nll_8": [], "elapsed": 0.0,
    }
    start = time.monotonic()
    for seed in SEEDS:
        for swa_on in (False, True):
            cfg = replace(
                base,
                swa=replace(base.swa, enabled=swa_on),
                run=replace(base.run, seed=seed),
            )
            datasets = pl.build_datasets(cfg)
            pre, _ = pl.run_pretrain(cfg, datasets)
            pre_report = pl.run_eval(cfg, pre, datasets)
            ret = pl.run_retrain(cfg, pre, datasets)
            crt_report = pl.run_eval(cfg, ret, datasets)
            tag = "swa" if swa_on else "sgd"
            bundle[f"{tag}_pre"].append(pre_report)
            bundle[f"{tag}_crt"].append(crt_report)
            if swa_on:
                cfg_s = replace(cfg, retrain=replace(cfg.retrain, method="srepr"))
                ret_s = pl.run_retrain(cfg_s, pre, datasets)
                bundle["swa_srepr"].append(pl.run_eval(cfg_s, ret_s, datasets))
                analysis = pl.run_analyze(cfg, ret, datasets)
                bundle["pcc_prob"].append(analysis.quartiles_prob.pcc)
                test = datasets[1]
                rng = rng_stream(seed, STREAM_ENSEMBLE)
                p1 = ensemble_predict(
                    test.features, ret.posterior, ret.params.w, ret.params.b, 1, rng
                )
                p8 = ensemble_predict(
                    test.features, ret.posterior, ret.params.w, ret.params.b, 8, rng
                )
                bundle["ens_nll_1"].append(nll(p1, test.labels))
                bundle["ens_nll_8"].append(nll(p8, test.labels))
    bundle["elapsed"] = time.monotonic() - start
    return bundle


def test_criterion_05_crt_and_swa_trends(trend_bundle):
    few_before = np.array([r.acc_few for r in trend_bundle["sgd_pre"]])
    few_after = np.array([r.acc_few for r in trend_bundle["sgd_crt"]])
    few_margin = (few_after - few_before).mean()

    sgd_crt = np.array([r.acc_all for r in trend_bundle["sgd_crt"]])
    swa_crt = np.array([r.acc_all for r in trend_bundle["swa_crt"]])

    ok = few_margin > 0.0 and swa_crt.mean() >= sgd_crt.mean()
    criterion(
        5,
        "classifier re-training lifts tail accuracy; averaged weights at least match",
        ok and trend_bundle["elapsed"] < 300.0,
        f"few {few_before.mean():.3f}->{few_after.mean():.3f}, "
        f"acc swa+crt {swa_crt.mean():.4f} vs sgd+crt {sgd_crt.mean():.4f}, "
        f"bundle {trend_bundle['elapsed']:.0f}s",
    )


def test_criterion_06_srepr_ablation(trend_bundle):
    crt_ece = np.array([r.ece for r in trend_bundle["swa_crt"]])
    srepr_ece = np.array([r.ece for r in trend_bundle["swa_srepr"]])
    crt_acc = np.array([r.acc_all for r in trend_bundle["swa_crt"]])
    srepr_acc = np.array([r.acc_all for r in trend_bundle["swa_srepr"]])

    ece_ok = srepr_ece.mean() < crt_ece.mean()
    acc_ok = srepr_acc.mean() >= crt_acc.mean() - 0.005  # 0.5 accuracy points
    criterion(
        6,
        "self-distillation improves calibration without losing accuracy",
        ece_ok and acc_ok and trend_bundle["elapsed"] < 300.0,
        f"ece {srepr_ece.mean():.4f} vs {crt_ece.mean():.4f}, "
        f"acc {srepr_acc.mean():.4f} vs {crt_acc.mean():.4f}",
    )


def test_criterion_07_nll_dispersion_correlation(trend_bundle):
    pccs = np.array(trend_bundle["pcc_prob"])
    criterion(
        7,
        "per-instance NLL correlates positively with prediction dispersion (4/4 seeds)",
        bool(np.all(pccs > 0.0)),
        "pcc per seed " + np.array2string(np.round(pccs, 3)),
    )


def test_criterion_08_ensemble_nll_trend(trend_bundle):
    nll1 = np.array(trend_bundle["ens_nll_1"])
    nll8 = np.array(trend_bundle["ens_nll_8"])
    criterion(
        8,
        "8-member posterior ensemble NLL no worse than single member (mean over seeds)",
        nll8.mean() <= nll1.mean(),
        f"nll M=8 {nll8.mean():.3f} vs M=1 {nll1.mean():.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 9: balancing unit properties
# ---------------------------------------------------------------------------

def test_criterion_09_balancing_properties():
    rng = np.random.default_rng(909)
    pi = rng.dirichlet(np.ones(6))
    grw_ok = np.max(np.abs(grw_weights(pi, 0.0) - 1.0 / 6)) <= 1e-12

    z = rng.standard_normal((4, 6))
    la_identity_ok = np.array_equal(logit_adjust(z, pi, 0.0), z)

    y = rng.integers(0, 6, size=4)
    uniform_pi = np.full(6, 1.0 / 6)
    la_loss, _ = balanced_ce_loss_and_grad(
        z, y, BalancingSpec("la", rho=1.7, frequencies=uniform_pi)
    )
    plain_loss, _ = softmax_ce(z, y)
    la_equal_ok = abs(la_loss - plain_loss) <= 1e-12

    train, _ = make_longtail_dataset(DatasetConfig(num_classes=5, max_count=300), 9)
    labels = train.labels[class_balanced_indices(train, 100_000, np.random.default_rng(910))]
    p_value = stats.chisquare(np.bincount(labels, minlength=5)).pvalue
    chi_ok = p_value > 0.001

    criterion(
        9,
        "rebalancing unit properties",
        grw_ok and la_identity_ok and la_equal_ok and chi_ok,
        f"chi-square p {p_value:.3f}",
    )


# ---------------------------------------------------------------------------
# Criterion 10: bitwise determinism of the full pipeline
# ---------------------------------------------------------------------------

def test_criterion_10_pipeline_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "default.ini").write_text(pl.ExperimentConfig().to_text())

    def run_once(tag):
        assert cli_main(["pretrain", "--config", "default.ini", "--output-dir", tag]) == 0
        assert cli_main([
            "retrain", "--checkpoint", f"{tag}/pretrain.ckpt", "--output-dir", tag,
        ]) == 0
        assert cli_main([
            "eval", "--checkpoint", f"{tag}/retrain.ckpt", "--output-dir", tag,
        ]) == 0

    run_once("run1")
    run_once("run2")

    pre_equal = (tmp_path / "run1/pretrain.ckpt").read_bytes() == (
        tmp_path / "run2/pretrain.ckpt"
    ).read_bytes()
    ret_equal = (tmp_path / "run1/retrain.ckpt").read_bytes() == (
        tmp_path / "run2/retrain.ckpt"
    ).read_bytes()
    rep_equal = (tmp_path / "run1/eval_report.json").read_bytes() == (
        tmp_path / "run2/eval_report.json"
    ).read_bytes()
    # sanity: metadata marks the stage and the checkpoints parse
    assert load_checkpoint(tmp_path / "run1/retrain.ckpt").metadata["stage"] == "retrain"

    criterion(
        10,
        "fixed-seed pipeline reproduces checkpoints and reports bitwise",
        pre_equal and ret_equal and rep_equal,
        f"pretrain {pre_equal}, retrain {ret_equal}, report {rep_equal}",
    )
