"""Tests for stage-2 classifier learning: baselines, Dirichlet math, and
stochastic-representation re-training."""

import math
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from gradcheck import assert_grad_close, numeric_grad
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import (
    dirichlet_kl,
    float32_member_forward,
    jittered_per_member,
    kd_loss,
    mean_ce_loss,
)
from scipy import stats
from scipy.special import digamma, gammaln, polygamma

from ltsrepr.balancing import (
    KINDS,
    BalancingSpec,
    balanced_ce_loss_and_grad,
    example_weights,
    logit_adjust,
)
from ltsrepr.data import LongTailDataset, class_balanced_indices
from ltsrepr.netcore import (
    PROB_FLOOR,
    OptimConfig,
    classifier_logits,
    cosine_lr,
    features,
    init_classifier,
    init_params,
    softmax,
    softmax_ce,
)
import ltsrepr.retrain as retrain_mod
from ltsrepr.retrain import (
    DisAlignParams,
    RetrainConfig,
    crt,
    disalign,
    disalign_logits,
    disalign_loss_and_grads,
    estimate_beta,
    fit_head,
    kd_loss_and_alpha_grad,
    lws,
    lws_classifier,
    mean_ce_loss_and_grad,
    srepr_batch_loss_and_grad,
    srepr_batches,
    srepr_retrain,
    stochastic_representations,
    student_alpha_from_logits,
    teacher_probs,
)
from ltsrepr.swag import freeze, new_posterior, update_moments


def blob_dataset(counts, centers, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k, (n, c) in enumerate(zip(counts, centers)):
        xs.append(np.asarray(c) + noise * rng.standard_normal((n, len(c))))
        ys.append(np.full(n, k))
    return LongTailDataset.from_arrays(np.concatenate(xs), np.concatenate(ys), len(counts))


def class_major(v):
    """The values of ``v`` as an (..., K) view of class-major (K, ...)
    memory, the layout srepr's step hands its loss pieces."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(v, -1, 0)), 0, -1)


def swa_features(params, ds, activation="relu"):
    """The training split's representations under the SWA extractor, the
    ``feats`` a stage-2 method trains on."""
    return features(params.layers, ds.features, activation)


def inline_block(post, rng, m):
    """M extractor draws mean + sqrt(sigma) * eps, the rows of one
    (M, theta_dim) block of normals."""
    td = post.theta_dim
    return post.mean[:td] + np.sqrt(post.sigma[:td]) * rng.standard_normal((m, td))


def frozen_posterior(params, spread=0.05, rng_seed=0):
    """Posterior around params with a controlled diagonal spread."""
    post = new_posterior(params)
    update_moments(post, params)
    update_moments(post, params)
    freeze(post)
    post.mean = params.flat.copy()
    post.sigma = np.full_like(post.mean, spread**2)
    return post


class TestFitHead:
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_step_k_moves_by_the_cosine_rate_times_the_gradient(self, epochs):
        # momentum 0 and weight decay 0: step k of the stage-2 loop moves a
        # bare parameter by exactly cosine_lr(k, total, lr) * grad, where
        # total counts the steps of every epoch (7 examples, batches of 3)
        ds = blob_dataset([5, 2], [[-1, 0], [1, 0]])
        optim = OptimConfig(lr=0.3, momentum=0.0, weight_decay=0.0, epochs=epochs, batch_size=3)
        total = 3 * epochs
        grads = np.random.default_rng(0).standard_normal(total)
        p, seen = np.array([1.5]), []

        def loss_and_grads(k):
            seen.append(p[0])
            return 0.0, [grads[k : k + 1]]

        fit_head("crt", [p], loss_and_grads, range(total), ds, optim)
        seen.append(p[0])
        assert len(seen) == total + 1
        for k in range(total):
            assert seen[k + 1] == seen[k] - cosine_lr(k, total, 0.3) * grads[k]


class TestCrt:
    def test_zero_epochs_returns_initialization(self):
        ds = blob_dataset([10, 10], [[-1, 0], [1, 0]])
        hyper = OptimConfig(epochs=0, batch_size=8, weight_decay=0.0005)
        w, b = crt(ds.features, ds, BalancingSpec("cbs"), hyper, np.random.default_rng(5))
        w0, b0 = init_classifier(np.random.default_rng(5), 2, 2)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(b, b0)

    def test_separable_toy_reaches_full_accuracy(self):
        ds = blob_dataset([30, 30], [[-5, -5], [5, 5]], noise=0.5, seed=1)
        hyper = OptimConfig(lr=0.5, momentum=0.9, weight_decay=0.0, epochs=50, batch_size=16)
        w, b = crt(ds.features, ds, BalancingSpec("cbs"), hyper, np.random.default_rng(2))
        preds = classifier_logits(w, b, ds.features).argmax(axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_backbone_untouched(self):
        # crt moves only its head: the frozen representations it trains on
        # keep their bits
        rng = np.random.default_rng(3)
        params = init_params(rng, 2, (5,), 3, 2)
        ds = blob_dataset([20, 8], [[-1, 0], [1, 0]], seed=4)
        feats = swa_features(params, ds)
        snapshot = feats.copy()
        optim = OptimConfig(epochs=3, batch_size=8, weight_decay=0.0005)
        crt(feats, ds, BalancingSpec("cbs"), optim, rng)
        np.testing.assert_array_equal(feats, snapshot)

    def test_divergence_raises(self):
        ds = blob_dataset([20, 8], [[-1, 0], [1, 0]], seed=4)
        hyper = OptimConfig(lr=1e6, epochs=100, batch_size=8, weight_decay=0.0005)
        with pytest.raises(FloatingPointError, match="crt diverged"):
            crt(ds.features, ds, BalancingSpec("cbs"), hyper, np.random.default_rng(5))


class TestLws:
    def test_tau_zero_is_identity(self):
        rng = np.random.default_rng(6)
        w_star, b_star = rng.standard_normal((3, 4)), rng.standard_normal(4)
        w, b = lws_classifier(w_star, b_star, 0.0)
        np.testing.assert_allclose(w, w_star, atol=1e-12)
        np.testing.assert_array_equal(b, b_star)

    def test_tau_one_unit_norms(self):
        rng = np.random.default_rng(7)
        w_star = rng.standard_normal((5, 3))
        w, _ = lws_classifier(w_star, np.zeros(3), 1.0)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0), 1.0, atol=1e-9)

    def test_direction_preserved(self):
        rng = np.random.default_rng(8)
        w_star = rng.standard_normal((4, 3))
        for tau in (-1.0, 0.3, 2.0):
            w, _ = lws_classifier(w_star, np.zeros(3), tau)
            for k in range(3):
                cos = w[:, k] @ w_star[:, k] / (
                    np.linalg.norm(w[:, k]) * np.linalg.norm(w_star[:, k])
                )
                assert abs(cos - 1.0) < 1e-9

    def test_training_moves_tau_and_keeps_directions(self):
        ds = blob_dataset([40, 5], [[-2, 0], [2, 0]], seed=9)
        rng = np.random.default_rng(10)
        w_star, b_star = rng.standard_normal((2, 2)) * 3.0, np.zeros(2)
        hyper = OptimConfig(lr=0.5, momentum=0.0, weight_decay=0.0, epochs=5, batch_size=8)
        w, b, tau = lws(ds.features, (w_star, b_star), ds, BalancingSpec("cbs"), hyper, rng)
        assert tau != 0.0
        np.testing.assert_allclose(w, lws_classifier(w_star, b_star, tau)[0], atol=1e-12)


    @pytest.mark.parametrize("tau", [1e4, -1e4, -260.0])
    def test_scale_outside_float32_raises(self, tau):
        # the unit-norm class keeps scale 1; for the other (norm ~0.54)
        # norm^-tau is inf at tau 1e4, 0 at -1e4 and ~1e-70 at -260
        w_star = np.array([[1.0, 0.5], [0.0, 0.2]])
        with pytest.raises(FloatingPointError,
                           match="lws diverged: norm\\^-tau leaves float32 range for 1 of 2"):
            lws_classifier(w_star, np.zeros(2), tau)

    def test_diverged_training_raises(self):
        ds = blob_dataset([40, 5], [[-2, 0], [2, 0]], seed=9)
        rng = np.random.default_rng(10)
        w_star, b_star = rng.standard_normal((2, 2)) * 3.0, np.zeros(2)
        optim = OptimConfig(lr=1e3, momentum=0.9, weight_decay=0.0005, epochs=5, batch_size=8)
        with pytest.raises(FloatingPointError, match="lws diverged: "):
            lws(ds.features, (w_star, b_star), ds, BalancingSpec("cbs"), optim, rng)


class TestDisAlign:
    def test_identity_blend(self):
        params = DisAlignParams.identity(4)
        params.gate_w = np.random.default_rng(11).standard_normal(4)  # any gate
        params.gate_b = 0.7
        z = np.random.default_rng(12).standard_normal((6, 4))
        np.testing.assert_allclose(disalign_logits(z, params), z, atol=1e-12)

    def test_saturated_gate_passes_through(self):
        params = DisAlignParams(
            scale=np.full(3, 2.0), shift=np.ones(3), gate_w=np.zeros(3), gate_b=-40.0
        )
        z = np.random.default_rng(13).standard_normal((5, 3))
        np.testing.assert_allclose(disalign_logits(z, params), z, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(14)
        z = rng.standard_normal((7, 3))
        y = rng.integers(0, 3, size=7)
        cw = np.random.default_rng(15).dirichlet(np.ones(3)) * 3
        params = DisAlignParams(
            scale=1.0 + 0.1 * rng.standard_normal(3),
            shift=0.1 * rng.standard_normal(3),
            gate_w=0.3 * rng.standard_normal(3),
            gate_b=0.2,
        )
        _, (g_scale, g_shift, g_gate_w, g_gate_b) = disalign_loss_and_grads(params, z, y, cw)

        def loss_with(**kw):
            p = DisAlignParams(
                scale=kw.get("scale", params.scale),
                shift=kw.get("shift", params.shift),
                gate_w=kw.get("gate_w", params.gate_w),
                gate_b=kw.get("gate_b", params.gate_b),
            )
            return disalign_loss_and_grads(p, z, y, cw)[0]

        assert_grad_close(
            g_scale, numeric_grad(lambda v: loss_with(scale=v), params.scale.copy())
        )
        assert_grad_close(
            g_shift, numeric_grad(lambda v: loss_with(shift=v), params.shift.copy())
        )
        assert_grad_close(
            g_gate_w, numeric_grad(lambda v: loss_with(gate_w=v), params.gate_w.copy())
        )
        num_b = numeric_grad(lambda v: loss_with(gate_b=float(v)), np.array(params.gate_b))
        assert_grad_close(g_gate_b, num_b)

    def test_training_keeps_backbone_and_classifier(self):
        rng = np.random.default_rng(16)
        params = init_params(rng, 2, (4,), 3, 2)
        w_star, b_star = params.w.copy(), params.b.copy()
        ds = blob_dataset([30, 6], [[-1, 0], [1, 0]], seed=17)
        result = disalign(
            swa_features(params, ds), (params.w, params.b), ds,
            OptimConfig(epochs=3, batch_size=8, weight_decay=0.0005), rng
        )
        np.testing.assert_array_equal(params.w, w_star)
        np.testing.assert_array_equal(params.b, b_star)
        assert result.scale.shape == (2,)

    def test_saturated_gate_after_training_raises(self):
        rng = np.random.default_rng(16)
        params = init_params(rng, 2, (4,), 3, 2)
        ds = blob_dataset([30, 6], [[-1, 0], [1, 0]], seed=17)
        with pytest.raises(FloatingPointError, match="disalign diverged: gate saturated on "):
            disalign(swa_features(params, ds), (params.w, params.b), ds,
                     OptimConfig(lr=1e6, epochs=3, batch_size=8, weight_decay=0.0005), rng)


class TestStochasticRepresentations:
    def setup_method(self):
        rng = np.random.default_rng(18)
        self.params = init_params(rng, 3, (5,), 4, 3)
        self.x = rng.standard_normal((6, 3))

    def test_zero_variance_posterior_collapses(self):
        post = frozen_posterior(self.params, spread=0.0)
        cfg = RetrainConfig(srepr_m=4)
        reps = stochastic_representations(self.x, "posterior", post, cfg, np.random.default_rng(0))
        point = features(self.params.layers, self.x)
        for m in range(4):
            np.testing.assert_allclose(reps[m], point, atol=1e-12)

    def test_zero_jitter_collapses(self):
        cfg = RetrainConfig(srepr_m=3, stochastic_source="input_jitter", jitter_std=0.0)
        reps = stochastic_representations(
            self.x, "input_jitter", self.params.layers, cfg, np.random.default_rng(1)
        )
        assert np.array_equal(reps[0], reps[1]) and np.array_equal(reps[1], reps[2])

    def test_jitter_is_the_per_member_loop(self):
        # one (M, B, D) normal draw and one stacked forward give each member
        # the bits of its own draw and forward, and leave the rng where they do
        cfg = RetrainConfig(srepr_m=4, stochastic_source="input_jitter", jitter_std=0.3)
        got_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        got = stochastic_representations(self.x, "input_jitter", self.params.layers, cfg, got_rng)
        want = jittered_per_member(self.params.layers, self.x, 0.3, 4, rng)
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == rng.bit_generator.state

    def test_seed_reproducible(self):
        post = frozen_posterior(self.params, spread=0.1)
        cfg = RetrainConfig(srepr_m=5)
        a = stochastic_representations(self.x, "posterior", post, cfg, np.random.default_rng(2))
        b = stochastic_representations(self.x, "posterior", post, cfg, np.random.default_rng(2))
        assert np.array_equal(a, b)

    def test_unfrozen_posterior_rejected(self):
        post = new_posterior(self.params)
        update_moments(post, self.params)
        cfg = RetrainConfig(srepr_m=3)
        with pytest.raises(ValueError, match="frozen"):
            stochastic_representations(self.x, "posterior", post, cfg, np.random.default_rng(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RetrainConfig(srepr_m=1).validate()
        with pytest.raises(ValueError):
            RetrainConfig(kd_temp=0.0).validate()
        with pytest.raises(ValueError):
            RetrainConfig(beta_floor=0.0).validate()
        with pytest.raises(ValueError):
            RetrainConfig(stochastic_source="dropout").validate()
        with pytest.raises(ValueError, match="unknown retrain method"):
            RetrainConfig(method="mixup").validate()


def reference_mean_ce(w, b, reps, labels, balancing):
    """The per-member loop mean_ce_loss_and_grad must match bit for bit."""
    w_ex = example_weights(balancing, labels)
    loss = 0.0
    gw = np.zeros_like(w)
    gb = np.zeros_like(b)
    for r in reps:
        z = classifier_logits(w, b, r)
        if balancing.kind == "la":
            z = logit_adjust(z, balancing.frequencies, balancing.rho)
        loss_j, dz = softmax_ce(z, labels, w_ex)
        loss += loss_j
        gw += r.T @ dz
        gb += dz.sum(axis=0)
    m = len(reps)
    return loss / m, gw / m, gb / m


class TestMeanCe:
    @settings(max_examples=80, deadline=None, database=None)
    @given(st.sampled_from(["none", "cbs", "la", "grw"]), st.integers(1, 10), st.integers(1, 20),
           st.integers(1, 8), st.integers(2, 6), st.integers(0, 2**16))
    def test_stacked_equals_member_loop(self, kind, m, n, l, k, seed):
        rng = np.random.default_rng(seed)
        reps = rng.standard_normal((m, n, l)) * 3.0
        y = rng.integers(0, k, size=n)
        w, b = rng.standard_normal((l, k)), rng.standard_normal(k)
        spec = BalancingSpec(kind, rho=1.0, frequencies=rng.dirichlet(np.ones(k)) + 1e-3)
        want = reference_mean_ce(w, b, reps, y, spec)
        # computing the logits here or passing the caller's gives the same bits
        for logits in (None, classifier_logits(w, b, reps)):
            got = mean_ce_loss_and_grad(w, b, reps, y, spec, logits)
            for a, e in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(e).tobytes()

    def test_single_sample_equals_plain_ce(self):
        # identity classifier on K=L=2 so representations are the logits
        w, b = np.eye(2), np.zeros(2)
        reps = np.array([[[0.3, -0.2], [1.0, 0.5]]])  # M=1, B=2
        y = np.array([0, 1])
        loss = mean_ce_loss(w, b, reps, y, BalancingSpec("none"))
        p = softmax(reps[0])
        expected = -np.log(p[np.arange(2), y]).mean()
        np.testing.assert_allclose(loss, expected, atol=1e-12)

    def test_identical_samples_equal_plain_ce(self):
        w, b = np.eye(2), np.zeros(2)
        row = np.array([[0.3, -0.2], [1.0, 0.5]])
        reps = np.stack([row, row, row])
        y = np.array([0, 1])
        single = mean_ce_loss(w, b, reps[:1], y, BalancingSpec("none"))
        tripled = mean_ce_loss(w, b, reps, y, BalancingSpec("none"))
        np.testing.assert_allclose(single, tripled, atol=1e-12)

    def test_hand_case_two_samples(self):
        # target-class probabilities 0.5 and 0.25 -> (ln 2 + ln 4) / 2
        w, b = np.eye(2), np.zeros(2)
        reps = np.array([[[0.0, 0.0]], [[0.0, math.log(3.0)]]])  # M=2, B=1
        y = np.array([0])
        loss = mean_ce_loss(w, b, reps, y, BalancingSpec("none"))
        np.testing.assert_allclose(loss, (math.log(2) + math.log(4)) / 2, atol=1e-12)
        np.testing.assert_allclose(loss, 1.0397, atol=1e-4)

    @pytest.mark.parametrize("kind", ["none", "grw", "la"])
    def test_phi_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(19)
        m, n, l, k = 3, 5, 4, 3
        reps = rng.standard_normal((m, n, l))
        y = rng.integers(0, k, size=n)
        w = rng.standard_normal((l, k))
        b = rng.standard_normal(k)
        spec = BalancingSpec(kind, rho=1.0, frequencies=np.array([0.6, 0.3, 0.1]))
        _, gw, gb = mean_ce_loss_and_grad(w, b, reps, y, spec)
        num_w = numeric_grad(lambda v: mean_ce_loss(v, b, reps, y, spec), w.copy())
        num_b = numeric_grad(lambda v: mean_ce_loss(w, v, reps, y, spec), b.copy())
        assert_grad_close(gw, num_w)
        assert_grad_close(gb, num_b)


class TestTeachers:
    def test_huge_temperature_gives_uniform(self):
        rng = np.random.default_rng(20)
        reps = rng.standard_normal((4, 3, 5))
        w, b = rng.standard_normal((5, 2)), rng.standard_normal(2)
        probs, p_bar = teacher_probs(classifier_logits(w, b, reps), tau_kd=1e9)
        np.testing.assert_allclose(probs, 0.5, atol=1e-6)
        np.testing.assert_allclose(p_bar, 0.5, atol=1e-6)

    def test_identical_members_mean_equals_member(self):
        rng = np.random.default_rng(21)
        rep = rng.standard_normal((1, 4, 5))
        reps = np.repeat(rep, 3, axis=0)
        w, b = rng.standard_normal((5, 3)), rng.standard_normal(3)
        probs, p_bar = teacher_probs(classifier_logits(w, b, reps), tau_kd=2.0)
        for m in range(3):
            np.testing.assert_allclose(probs[m], p_bar, atol=1e-12)

    def test_unit_temperature_zero_logits_uniform(self):
        reps = np.zeros((2, 3, 4))
        w, b = np.zeros((4, 5)), np.zeros(5)
        probs, _ = teacher_probs(classifier_logits(w, b, reps), tau_kd=1.0)
        np.testing.assert_allclose(probs, 0.2, atol=1e-15)


def beta_oracle(teachers, floor=1e-6):
    """Direct transcription of the closed-form concentration estimate."""
    teachers = np.asarray(teachers, dtype=np.float64)
    m, k = teachers.shape
    p_bar = teachers.mean(axis=0)
    denom = 0.0
    for j in range(k):
        denom += p_bar[j] * (math.log(p_bar[j]) - np.log(teachers[:, j]).mean())
    denom = max(denom, floor)
    return p_bar * ((k - 1) / 2.0) / denom + 1.0


class TestEstimateBeta:
    def test_hand_case(self):
        teachers = np.array([[0.6, 0.4], [0.8, 0.2]])
        beta = estimate_beta(teachers)
        np.testing.assert_allclose(beta, beta_oracle(teachers), atol=1e-12)
        np.testing.assert_allclose(beta, [15.06, 7.03], atol=0.01)
        # mean of the two teachers and the disagreement statistic by hand
        np.testing.assert_allclose(
            (beta - 1.0) / (beta - 1.0).sum(), [0.7, 0.3], atol=1e-12
        )

    def test_direction_property(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = int(rng.integers(2, 8))
            k = int(rng.integers(2, 10))
            teachers = rng.dirichlet(np.ones(k), size=m)
            beta = estimate_beta(teachers)
            pre = beta - 1.0
            np.testing.assert_allclose(pre / pre.sum(), teachers.mean(axis=0), atol=1e-12)

    def test_agreeing_teachers_hit_floor(self):
        row = np.array([0.5, 0.3, 0.2])
        teachers = np.stack([row, row])
        floor = 1e-6
        beta = estimate_beta(teachers, beta_floor=floor)
        pre = beta - 1.0
        np.testing.assert_allclose(pre.sum(), (3 - 1) / (2 * floor), rtol=1e-9)
        np.testing.assert_allclose(pre / pre.sum(), row, atol=1e-12)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(23)
        teachers = rng.dirichlet(np.ones(4), size=(3, 5))  # (M, B) draws of K=4
        batched = estimate_beta(teachers)
        for i in range(5):
            np.testing.assert_allclose(batched[i], estimate_beta(teachers[:, i]), atol=1e-12)

    def test_needs_two_teachers(self):
        with pytest.raises(ValueError):
            estimate_beta(np.array([[0.5, 0.5]]))


class TestStudentAlpha:
    def test_zero_logits(self):
        alpha, _ = student_alpha_from_logits(np.zeros((2, 4)), tau_kd=20.0)
        np.testing.assert_array_equal(alpha, np.full((2, 4), 2.0))
        pre = alpha - 1.0
        np.testing.assert_allclose(pre / pre.sum(axis=1, keepdims=True), 0.25, atol=1e-15)

    def test_normalized_pre_shift_equals_tempered_softmax(self):
        rng = np.random.default_rng(24)
        z = rng.standard_normal((6, 5)) * 3
        for tau in (1.0, 5.0, 20.0):
            alpha, _ = student_alpha_from_logits(z, tau)
            pre = alpha - 1.0
            np.testing.assert_allclose(
                pre / pre.sum(axis=1, keepdims=True), softmax(z / tau), atol=1e-12
            )

    def test_two_class_hand_case(self):
        z = np.array([[math.log(2.0), 0.0]])
        alpha, _ = student_alpha_from_logits(z, tau_kd=1.0)
        np.testing.assert_allclose(alpha, [[3.0, 2.0]], atol=1e-12)
        pre = alpha - 1.0
        np.testing.assert_allclose(pre / pre.sum(), [[2 / 3, 1 / 3]], atol=1e-12)

    def test_clamp_prevents_overflow(self):
        z = np.array([[1e6, -1e6]])
        alpha, dalpha = student_alpha_from_logits(z, tau_kd=20.0)
        assert np.all(np.isfinite(alpha))
        np.testing.assert_array_equal(dalpha, 0.0)  # both entries clamped


class TestDirichletKl:
    def test_self_divergence_zero(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            alpha = rng.uniform(1.0, 10.0, size=int(rng.integers(2, 8)))
            assert abs(dirichlet_kl(alpha, alpha)) < 1e-10

    def test_flat_to_flat_zero(self):
        assert dirichlet_kl(np.ones(5), np.ones(5)) == pytest.approx(0.0, abs=1e-12)

    def test_monte_carlo_oracle(self):
        alpha = np.array([2.0, 2.0])
        beta = np.array([1.0, 1.0])
        closed = dirichlet_kl(alpha, beta)
        rng = np.random.default_rng(26)
        draws = rng.dirichlet(alpha, size=1_000_000)
        log_ratio = stats.dirichlet.logpdf(
            draws.T, alpha
        ) - stats.dirichlet.logpdf(draws.T, beta)
        mc = log_ratio.mean()
        se = log_ratio.std(ddof=1) / math.sqrt(log_ratio.size)
        assert abs(closed - mc) < 3 * se

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dirichlet_kl(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def class_sum(v):
    """Sum over the last (class) axis, adding the classes in order."""
    total = v[..., 0]
    for j in range(1, v.shape[-1]):
        total = total + v[..., j]
    return total


def reference_kd(alpha, beta, p_bar):
    """kd_loss_and_alpha_grad with the package's gamma functions called on
    alpha and on alpha_0 apart rather than on one [alpha | alpha_0] array,
    and each sum over classes a loop in class order; the module's version
    must match it bit for bit."""
    n, k = alpha.shape
    a0 = class_sum(alpha)
    b0 = class_sum(beta)
    _, psi_a, tri_a, kappa_a = retrain_mod._gamma_functions(alpha)
    _, psi_a0, tri_a0, kappa_a0 = retrain_mod._gamma_functions(a0)
    term1 = -class_sum(p_bar * (psi_a - psi_a0[:, None]))
    kl_flat = kappa_a0 - class_sum(kappa_a) + (k - 1) * psi_a0 - math.lgamma(k)
    loss = (term1 + kl_flat / b0).mean()
    g_term1 = -p_bar * tri_a + (class_sum(p_bar) * tri_a0)[:, None]
    g_kl = (alpha - 1.0) * tri_a - ((a0 - k) * tri_a0)[:, None]
    return float(loss), (g_term1 + g_kl / b0[:, None]) / n


def scipy_kd(alpha, beta, p_bar):
    """kd_loss_and_alpha_grad written with scipy's digamma and
    polygamma(1, .) and with dirichlet_kl(a, ones)."""
    n, k = alpha.shape
    a0 = alpha.sum(axis=1)
    b0 = beta.sum(axis=1)
    term1 = -(p_bar * (digamma(alpha) - digamma(a0)[:, None])).sum(axis=1)
    loss = (term1 + dirichlet_kl(alpha, np.ones_like(alpha)) / b0).mean()
    tri_a, tri_a0 = polygamma(1, alpha), polygamma(1, a0)
    g_term1 = -p_bar * tri_a + (p_bar.sum(axis=1) * tri_a0)[:, None]
    g_kl = (alpha - 1.0) * tri_a - ((a0 - k) * tri_a0)[:, None]
    return float(loss), (g_term1 + g_kl / b0[:, None]) / n


def kd_case(seed):
    """64 rows of student concentrations from 1 + e^-20 to 1 + e^25, teacher
    concentrations and mean teachers, over 2 to 11 classes."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 12))
    alpha = 1.0 + np.exp(rng.uniform(-20.0, 25.0, size=(64, k)))
    beta = 1.0 + np.exp(rng.uniform(-5.0, 12.0, size=(64, k)))
    p_bar = rng.dirichlet(np.ones(k), size=64)
    return alpha, beta, p_bar


class TestKdLoss:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_polygamma_and_dirichlet_kl_form(self, seed):
        # normwise: the loss's scale includes the log-gammas whose sum
        # cancels in the KL, since each carries its own rounding
        alpha, beta, p_bar = kd_case(seed)
        loss, grad = kd_loss_and_alpha_grad(alpha, beta, p_bar)
        ref_loss, ref_grad = scipy_kd(alpha, beta, p_bar)
        lgamma_scale = ((np.abs(gammaln(alpha.sum(axis=1))) + np.abs(gammaln(alpha)).sum(axis=1))
                        / beta.sum(axis=1)).mean()
        assert abs(loss - ref_loss) <= 1e-14 * (abs(ref_loss) + lgamma_scale)
        assert np.abs(grad - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_matches_reference_bitwise(self, seed):
        alpha, beta, p_bar = kd_case(seed)
        ref_loss, ref_grad = reference_kd(alpha, beta, p_bar)
        # C-order rows and views of class-major memory give the same bits
        for layout in (lambda v: v, class_major):
            loss, grad = kd_loss_and_alpha_grad(*(layout(v) for v in (alpha, beta, p_bar)))
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
            assert np.ascontiguousarray(grad).tobytes() == ref_grad.tobytes()

    # KL(Dir(alpha) || Dir(1, ..., 1)) from mpmath 1.3.0 at 50 digits, for
    # these float64 alphas; a zero mean teacher and unit teacher precision
    # make the loss the KL itself. The first two students are confident
    # enough that a KL summed from log Gamma(alpha_0) ~ alpha_0 log alpha_0
    # loses 0.026 and 2e-5 to rounding.
    @pytest.mark.parametrize("alpha, kl", [
        ([10686474581525.463, 1.001, 2.5], 56.575905731602386232),
        ([72004899338.38588, 1.001, 2.5], 46.575905731736915858),
        ([22027.465794806718, 1.001, 2.5], 16.576348454079515119),
        ([1.5, 3.0, 7.25, 1.0001], 1.8202195081403209754),
        ([2.0, 2.0], 0.12509280256138833415),
        ([1.0, 1.0, 1.0], 0.0),
    ])
    def test_kl_to_flat_matches_mpmath(self, alpha, kl):
        k = len(alpha)
        loss, _ = kd_loss_and_alpha_grad(np.array([alpha]), np.full((1, k), 1.0 / k),
                                         np.zeros((1, k)))
        assert abs(loss - kl) <= 1e-14 * max(1.0, kl)

    def test_nan_concentration_gives_nan_loss(self):
        alpha = np.array([[2.0, np.nan], [3.0, 1.5]])
        loss, grad = kd_loss_and_alpha_grad(alpha, np.full((2, 2), 2.0), np.full((2, 2), 0.5))
        assert np.isnan(loss)
        assert np.isnan(grad[0]).all() and np.isfinite(grad[1]).all()

    def test_symmetric_first_term(self):
        # uniform mean teacher and symmetric student: first term is
        # -(psi(a) - psi(K a))
        k, a = 4, 3.0
        alpha = np.full(k, a)
        beta = np.full(k, 2.0)
        p_bar = np.full(k, 1.0 / k)
        loss, _ = kd_loss_and_alpha_grad(alpha, beta, p_bar)
        first = -(digamma(a) - digamma(k * a))
        second = dirichlet_kl(alpha, np.ones(k)) / beta.sum()
        np.testing.assert_allclose(loss, first + second, atol=1e-12)

    def test_first_term_matches_monte_carlo(self):
        rng = np.random.default_rng(27)
        for _ in range(3):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(1.2, 8.0, size=k)
            p_bar = rng.dirichlet(np.ones(k))
            analytic = -(p_bar * (digamma(alpha) - digamma(alpha.sum()))).sum()
            draws = rng.dirichlet(alpha, size=1_000_000)
            values = -(p_bar * np.log(np.maximum(draws, 1e-300))).sum(axis=1)
            mc = values.mean()
            se = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(analytic - mc) < 3 * se

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            k = int(rng.integers(2, 6))
            alpha = rng.uniform(1.2, 6.0, size=(3, k))
            beta = rng.uniform(1.2, 9.0, size=(3, k))
            p_bar = rng.dirichlet(np.ones(k), size=3)
            _, grad = kd_loss_and_alpha_grad(alpha, beta, p_bar)
            num = numeric_grad(lambda a: kd_loss(a, beta, p_bar), alpha.copy())
            assert_grad_close(grad, num)

    def test_rejects_nonpositive_concentrations(self):
        with pytest.raises(ValueError):
            kd_loss(np.array([1.0, -0.5]), np.array([2.0, 2.0]), np.array([0.5, 0.5]))


# x over [1e-6, 1e15]: hypothesis's own float choices and a log-uniform spread
GAMMA_X = st.one_of(
    st.floats(min_value=1e-6, max_value=1e15),
    st.floats(min_value=-6.0, max_value=15.0).map(lambda e: min(max(10.0 ** e, 1e-6), 1e15)),
)


class TestGammaFunctions:
    """retrain._gamma_functions against scipy, its own recurrences and the
    closed-form values at 1 and 2."""

    @given(st.lists(GAMMA_X, min_size=1, max_size=64))
    def test_matches_scipy(self, xs):
        x = np.array(xs)
        lgamma, psi, tri, _ = retrain_mod._gamma_functions(x)
        want_lgamma, want_psi, want_tri = gammaln(x), digamma(x), polygamma(1, x)
        assert np.all(np.abs(lgamma - want_lgamma) <= 2e-14 * np.maximum(1.0, np.abs(want_lgamma)))
        assert np.all(np.abs(psi - want_psi) <= 4e-15 * np.maximum(1.0, np.abs(want_psi)))
        assert np.all(np.abs(tri - want_tri) <= 4e-15 * want_tri)

    @given(st.lists(GAMMA_X, min_size=1, max_size=64))
    def test_recurrences(self, xs):
        # f(x + 1) = f(x) + step(x), with x + 1 exact; each value is the
        # series at x + 6 (x + 7 for x + 1) minus a recurrence sum, so the
        # rounding scales with the sum of the magnitudes involved
        x = (np.array(xs) + 1.0) - 1.0
        now, nxt, far = (retrain_mod._gamma_functions(v) for v in (x, x + 1.0, x + 7.0))
        steps = (np.log(x), 1.0 / x, -1.0 / (x * x))
        for f, f1, f7, step in zip(now, nxt, far, steps):
            scale = np.abs(f) + np.abs(f1) + np.abs(step) + np.abs(f7)
            assert np.all(np.abs(f1 - (f + step)) <= 8 * np.spacing(scale))

    def test_closed_form_values(self):
        lgamma, psi, tri, _ = retrain_mod._gamma_functions(np.array([1.0, 2.0]))
        assert np.all(np.abs(lgamma) <= 2e-14)
        assert abs(psi[0] + np.euler_gamma) <= 4e-15
        assert abs(tri[0] - math.pi ** 2 / 6) <= 4e-15 * (math.pi ** 2 / 6)

    # kappa(x) = log Gamma(x) - (x - 1) psi(x) + x from mpmath 1.3.0 at 50
    # digits; scipy's functions would lose kappa's digits for large x
    @pytest.mark.parametrize("x, kappa", [
        (1e-6, -999985.76170246205047),
        (0.5, 0.090609929913988347351),
        (1.0, 1.0),
        (2.5, 1.7299479095050543788),
        (10.0, 2.5360541784809796424),
        (1234.5, 4.9778791180595560128),
        (1e7, 9.4779863253504984692),
        (10686474581525.463, 16.418938533204688373),
        (1e15, 18.688326730660015039),
    ])
    def test_kappa_matches_mpmath(self, x, kappa):
        got = retrain_mod._gamma_functions(np.array([x]))[3][0]
        assert abs(got - kappa) <= 1e-14 * max(1.0, abs(kappa))

    @given(st.lists(GAMMA_X, min_size=1, max_size=64))
    def test_no_floating_point_exception(self, xs):
        with np.errstate(all="raise"):
            values = retrain_mod._gamma_functions(np.array(xs))
        assert all(np.isfinite(v).all() for v in values)

    def test_nan_gives_nan(self):
        for value in retrain_mod._gamma_functions(np.array([np.nan, 3.0])):
            assert np.isnan(value[0]) and np.isfinite(value[1])


def test_no_process_imports_scipy():
    # the package's modules and an srepr batch loss, in a fresh process
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import ltsrepr.cli, ltsrepr.pipeline, ltsrepr.retrain
        from ltsrepr.balancing import BalancingSpec
        from ltsrepr.retrain import RetrainConfig, srepr_batch_loss_and_grad
        rng = np.random.default_rng(0)
        w, b = rng.standard_normal((4, 3)), np.zeros(3)
        reps, f_swa = rng.standard_normal((2, 5, 4)), rng.standard_normal((5, 4))
        loss, _, _, _ = srepr_batch_loss_and_grad(w, b, reps, f_swa, np.array([0, 1, 2, 0, 1]),
                                                  BalancingSpec("none"), RetrainConfig(srepr_m=2))
        assert np.isfinite(loss)
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    src = os.path.dirname(os.path.dirname(retrain_mod.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def srepr_loss_oracle(w, b, reps, f_swa, y, config):
    """Independent recomputation of the combined stage-2 loss (plain loops,
    scipy special functions); no balancing."""
    m, n, _ = reps.shape
    k = w.shape[1]
    ce = 0.0
    for j in range(m):
        z = reps[j] @ w + b
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        ce += -np.log(p[np.arange(n), y]).mean()
    ce /= m

    t_logits = np.stack([reps[j] @ w + b for j in range(m)]) / config.kd_temp
    t_shift = t_logits - t_logits.max(axis=2, keepdims=True)
    t_probs = np.exp(t_shift) / np.exp(t_shift).sum(axis=2, keepdims=True)
    p_bar = t_probs.mean(axis=0)
    kd_total = 0.0
    for i in range(n):
        denom = 0.0
        for j in range(k):
            denom += p_bar[i, j] * (
                math.log(p_bar[i, j]) - np.log(t_probs[:, i, j]).mean()
            )
        denom = max(denom, config.beta_floor)
        beta_i = p_bar[i] * ((k - 1) / 2.0) / denom + 1.0
        z_i = f_swa[i] @ w + b
        alpha_i = np.exp(z_i / config.kd_temp) + 1.0
        a0 = alpha_i.sum()
        term1 = -(p_bar[i] * (digamma(alpha_i) - digamma(a0))).sum()
        kl = (
            gammaln(a0)
            - gammaln(alpha_i).sum()
            - gammaln(float(k))
            + ((alpha_i - 1.0) * (digamma(alpha_i) - digamma(a0))).sum()
        )
        kd_total += term1 + kl / beta_i.sum()
    kd_total /= n
    return 0.5 * ce + 0.5 * kd_total


class TestSreprLoss:
    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(29)
        m, n, l, k = 2, 4, 5, 3
        reps = rng.standard_normal((m, n, l))
        f_swa = rng.standard_normal((n, l))
        y = rng.integers(0, k, size=n)
        w = 0.5 * rng.standard_normal((l, k))
        b = 0.1 * rng.standard_normal(k)
        config = RetrainConfig(srepr_m=m, kd_temp=4.0)
        loss, _, _, _ = srepr_batch_loss_and_grad(
            w, b, reps, f_swa, y, BalancingSpec("none"), config
        )
        np.testing.assert_allclose(
            loss, srepr_loss_oracle(w, b, reps, f_swa, y, config), atol=1e-8
        )

    def test_full_phi_gradient_matches_finite_differences(self):
        # stop-gradient contract: the teachers are frozen at the base point,
        # so the oracle differentiates only the student path
        rng = np.random.default_rng(30)
        m, n, l, k = 3, 5, 4, 3
        reps = rng.standard_normal((m, n, l))
        f_swa = rng.standard_normal((n, l))
        y = rng.integers(0, k, size=n)
        w0 = 0.4 * rng.standard_normal((l, k))
        b0 = 0.1 * rng.standard_normal(k)
        config = RetrainConfig(srepr_m=m, kd_temp=3.0)
        spec = BalancingSpec("grw", rho=1.0, frequencies=np.array([0.5, 0.3, 0.2]))
        _, gw, gb, _ = srepr_batch_loss_and_grad(w0, b0, reps, f_swa, y, spec, config)

        probs0, p_bar0 = teacher_probs(classifier_logits(w0, b0, reps), config.kd_temp)
        beta0 = estimate_beta(probs0, config.beta_floor)

        def frozen_teacher_loss(w, b):
            ce = mean_ce_loss(w, b, reps, y, spec)
            alpha, _ = student_alpha_from_logits(
                classifier_logits(w, b, f_swa), config.kd_temp
            )
            kd, _ = kd_loss_and_alpha_grad(alpha, beta0, p_bar0)
            return 0.5 * ce + 0.5 * kd

        num_w = numeric_grad(lambda v: frozen_teacher_loss(v, b0), w0.copy())
        num_b = numeric_grad(lambda v: frozen_teacher_loss(w0, v), b0.copy())
        assert_grad_close(gw, num_w)
        assert_grad_close(gb, num_b)

    def test_kd_gradient_vanishes_in_degenerate_limit(self):
        # zero posterior spread and huge temperature: teachers and student
        # collapse toward uniform and the distillation gradient dies, so the
        # full gradient is half the mean-CE gradient
        rng = np.random.default_rng(31)
        params = init_params(rng, 3, (4,), 4, 3)
        x = rng.standard_normal((5, 3))
        f_swa = features(params.layers, x)
        reps = np.stack([f_swa, f_swa])  # zero-spread stochastic reps
        y = rng.integers(0, 3, size=5)
        config = RetrainConfig(srepr_m=2, kd_temp=1e9)
        spec = BalancingSpec("none")
        _, gw, gb, _ = srepr_batch_loss_and_grad(params.w, params.b, reps, f_swa, y, spec, config)
        _, gw_ce, gb_ce = mean_ce_loss_and_grad(params.w, params.b, reps, y, spec)
        assert np.max(np.abs(gw - 0.5 * gw_ce)) < 1e-6
        assert np.max(np.abs(gb - 0.5 * gb_ce)) < 1e-6


def srepr_step_c_order(w, b, reps, f_swa, labels, balancing, config):
    """srepr_batch_loss_and_grad's loss and gradients, its pieces composed
    over C-order logits."""
    logits = classifier_logits(w, b, reps)
    ce, gw_ce, gb_ce = mean_ce_loss_and_grad(w, b, reps, labels, balancing, logits)
    probs, p_bar = teacher_probs(logits, config.kd_temp)
    beta = estimate_beta(probs, config.beta_floor)
    alpha, dalpha_dz = student_alpha_from_logits(classifier_logits(w, b, f_swa), config.kd_temp)
    kd, dkd_dalpha = kd_loss_and_alpha_grad(alpha, beta, p_bar)
    dkd_dz = dkd_dalpha * dalpha_dz
    return (0.5 * ce + 0.5 * kd, 0.5 * gw_ce + 0.5 * (f_swa.T @ dkd_dz),
            0.5 * gb_ce + 0.5 * dkd_dz.sum(axis=0))


def assert_close_normwise(got, want, rtol=1e-12):
    for g, e in zip(got, want, strict=True):
        g, e = np.asarray(g), np.asarray(e)
        assert g.shape == e.shape
        assert np.max(np.abs(g - e)) <= rtol * np.max(np.abs(e))


def beta_rtol(probs, beta_floor):
    """The normwise bound on `estimate_beta`'s rounding between two orders
    of summation, and kappa: (max(1e-12, 64 eps kappa), kappa). Its
    disagreement sum d = sum_k pbar_k (log pbar_k - mean_log_k) cancels
    when the teachers agree, so its error relative to the divisor
    max(d, beta_floor) grows with kappa, the largest row value of
    sum_k pbar_k (|log pbar_k| + |mean_log_k|) / max(|d|, beta_floor).
    On random draws the error stayed below 9 eps kappa."""
    p_bar = probs.mean(axis=0)
    log_p_bar = np.log(np.maximum(p_bar, PROB_FLOOR))
    mean_log = np.log(np.maximum(probs, PROB_FLOOR)).mean(axis=0)
    d = (p_bar * (log_p_bar - mean_log)).sum(axis=-1)
    scale = (p_bar * (np.abs(log_p_bar) + np.abs(mean_log))).sum(axis=-1)
    kappa = np.max(scale / np.maximum(np.abs(d), beta_floor))
    return max(1e-12, 64 * np.finfo(np.float64).eps * kappa), kappa


class TestClassMajorLayout:
    """srepr's step forms its logits in class-major memory, so every sum
    over K in its loss pieces runs along the outermost axis. The pieces
    take the same shapes either way, and give the same values to rounding:
    sums over K and B add in another order. K spans both sides of numpy's
    8-wide pairwise-summation block."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.sampled_from(KINDS), st.integers(2, 12), st.integers(1, 20), st.integers(1, 8),
           st.integers(2, 40), st.integers(0, 2**16))
    def test_pieces_and_step_match_c_order(self, kind, m, n, l, k, seed):
        rng = np.random.default_rng(seed)
        reps = rng.standard_normal((m, n, l)) * 3.0
        f_swa = rng.standard_normal((n, l)) * 3.0
        y = rng.integers(0, k, size=n)
        w, b = rng.standard_normal((l, k)), rng.standard_normal(k)
        spec = BalancingSpec(kind, rho=1.0, frequencies=rng.dirichlet(np.ones(k)) + 1e-3)
        config = RetrainConfig(srepr_m=m, kd_temp=float(rng.uniform(0.5, 30.0)))
        logits = classifier_logits(w, b, reps)
        z = classifier_logits(w, b, f_swa)
        probs, p_bar = teacher_probs(logits, config.kd_temp)
        alpha, _ = student_alpha_from_logits(z, config.kd_temp)
        beta = estimate_beta(probs, config.beta_floor)
        # beta's bound follows the conditioning of its disagreement sum;
        # every other piece, and the whole step, keeps 1e-12
        rtol, _ = beta_rtol(probs, config.beta_floor)
        pieces = [
            (balanced_ce_loss_and_grad, (logits, y, spec), 1e-12),
            (lambda lg: mean_ce_loss_and_grad(w, b, reps, y, spec, lg), (logits,), 1e-12),
            (teacher_probs, (logits, config.kd_temp), 1e-12),
            (estimate_beta, (probs, config.beta_floor), rtol),
            (estimate_beta, (probs, config.beta_floor, p_bar), rtol),
            (student_alpha_from_logits, (z, config.kd_temp), 1e-12),
            (kd_loss_and_alpha_grad, (alpha, beta, p_bar), 1e-12),
        ]
        for piece, args, bound in pieces:
            moved = [class_major(a) if np.ndim(a) >= 2 else a for a in args]
            want, got = piece(*args), piece(*moved)
            if isinstance(want, np.ndarray):
                want, got = (want,), (got,)
            assert_close_normwise(got, want, bound)
        got = srepr_batch_loss_and_grad(w, b, reps, f_swa, y, spec, config)[:3]
        assert_close_normwise(got, srepr_step_c_order(w, b, reps, f_swa, y, spec, config))

    def test_beta_bound_rejects_a_1e9_relative_error_when_well_conditioned(self):
        # the bound loosens only with kappa: on teachers that disagree it
        # stays 1e-12, which a beta off by 1e-9 (relative) fails
        probs = softmax(np.random.default_rng(0).standard_normal((4, 3, 5)) * 3.0)
        rtol, kappa = beta_rtol(probs, 1e-6)
        assert kappa < 10 and rtol == 1e-12
        beta = estimate_beta(probs, 1e-6)
        assert_close_normwise([estimate_beta(class_major(probs), 1e-6)], [beta], rtol)
        with pytest.raises(AssertionError):
            assert_close_normwise([beta * (1.0 + 1e-9)], [beta], rtol)

    def test_step_hands_the_pieces_class_major_logits(self, monkeypatch):
        # each piece runs once, and every array it receives besides the
        # caller's w and reps is an (..., K) view of class-major memory
        seen = []

        def spy(name):
            piece = getattr(retrain_mod, name)

            def wrapped(*args, **kwargs):
                seen.append((name, [a for a in (*args, *kwargs.values())
                                    if isinstance(a, np.ndarray) and a.ndim >= 2]))
                return piece(*args, **kwargs)
            monkeypatch.setattr(retrain_mod, name, wrapped)

        names = ("mean_ce_loss_and_grad", "balanced_ce_loss_and_grad", "teacher_probs",
                 "estimate_beta", "student_alpha_from_logits", "kd_loss_and_alpha_grad")
        for name in names:
            spy(name)
        rng = np.random.default_rng(5)
        m, n, l, k = 4, 6, 5, 3
        w, b = rng.standard_normal((l, k)), rng.standard_normal(k)
        reps, f_swa = rng.standard_normal((m, n, l)), rng.standard_normal((n, l))
        srepr_batch_loss_and_grad(w, b, reps, f_swa, rng.integers(0, k, size=n),
                                  BalancingSpec("none"), RetrainConfig(srepr_m=m))
        assert [name for name, _ in seen] == list(names)
        for name, arrays in seen:
            logits_like = [a for a in arrays if a is not w and a is not reps]
            assert logits_like, name
            for a in logits_like:
                assert a.shape[-1] == k and np.moveaxis(a, -1, 0).flags.c_contiguous, name


class TestSreprTraining:
    def make_problem(self, seed=0):
        rng = np.random.default_rng(seed)
        ds = blob_dataset([60, 30, 10], [[-2, 0, 0], [2, 0, 0], [0, 2.5, 0]], seed=seed)
        params = init_params(rng, 3, (8,), 5, 3)
        post = frozen_posterior(params, spread=0.05)
        return ds, params, post

    def test_zero_steps_returns_phi_init(self):
        ds, params, post = self.make_problem()
        hyper = OptimConfig(epochs=0, batch_size=16, weight_decay=0.0005)
        w, b = srepr_retrain(
            swa_features(params, ds), params.layers, post, (params.w, params.b), ds,
            BalancingSpec("cbs"), RetrainConfig(srepr_m=3), hyper, np.random.default_rng(1), "relu",
        )
        np.testing.assert_array_equal(w, params.w)
        np.testing.assert_array_equal(b, params.b)

    def test_posterior_required(self):
        ds, params, _ = self.make_problem()
        with pytest.raises(ValueError, match="posterior required"):
            srepr_retrain(
                swa_features(params, ds), params.layers, None, (params.w, params.b), ds,
                BalancingSpec("cbs"), RetrainConfig(srepr_m=3),
                OptimConfig(epochs=1, batch_size=16, weight_decay=0.0005),
                np.random.default_rng(2), "relu",
            )

    def test_jitter_source_runs_without_posterior(self):
        ds, params, _ = self.make_problem()
        cfg = RetrainConfig(srepr_m=3, stochastic_source="input_jitter", jitter_std=0.1)
        w, b = srepr_retrain(
            swa_features(params, ds), params.layers, None, (params.w, params.b), ds,
            BalancingSpec("cbs"), cfg, OptimConfig(epochs=1, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(3), "relu",
        )
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))

    def test_backbone_frozen_bitwise(self):
        ds, params, post = self.make_problem(seed=4)
        snapshot = [(w.copy(), b.copy()) for w, b in params.layers]
        srepr_retrain(
            swa_features(params, ds), params.layers, post, (params.w, params.b), ds,
            BalancingSpec("cbs"), RetrainConfig(srepr_m=3),
            OptimConfig(epochs=2, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(5), "relu",
        )
        for (w0, b0), (w1, b1) in zip(snapshot, params.layers):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_descent_over_200_steps(self):
        ds, params, post = self.make_problem(seed=6)
        spe = -(-ds.num_examples // 16)
        epochs = -(-200 // spe)
        assert spe * epochs >= 200
        spec, config = BalancingSpec("cbs"), RetrainConfig(srepr_m=3)
        w, b = srepr_retrain(
            swa_features(params, ds), params.layers, post, (params.w, params.b), ds, spec, config,
            OptimConfig(lr=0.2, epochs=epochs, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(7), "relu",
        )
        # the combined loss on the whole training set, under one fixed set of
        # posterior draws, is lower after training than at the initialization
        reps = stochastic_representations(ds.features, "posterior", post, config,
                                          np.random.default_rng(8))
        f_swa = features(params.layers, ds.features)

        def loss(w, b):
            return srepr_batch_loss_and_grad(w, b, reps, f_swa, ds.labels, spec, config)[0]

        assert loss(w, b) < loss(params.w, params.b)


class TestDrawAhead:
    """srepr's draw stream: one posterior block per stage-2 epoch, input
    jitter per step, drawn from the caller's rng in a fixed order on the
    calling thread and never ahead of the epoch that uses it."""

    def make_problem(self, seed=0):
        return TestSreprTraining().make_problem(seed)

    def run_srepr(self, ds, params, post, config=RetrainConfig(srepr_m=3), lr=0.1, epochs=2):
        return srepr_retrain(
            swa_features(params, ds), params.layers, post, (params.w, params.b), ds,
            BalancingSpec("cbs"), config,
            OptimConfig(lr=lr, epochs=epochs, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(9), "relu",
        )

    @staticmethod
    def hand_stream(ds, params, post, config, optim, rng, blocks=None, activation="relu"):
        """srepr's stream drawn by hand: a block of M draws at the start of
        each epoch, then each step's indices (and, for jitter, that step's M
        noisy copies), each step's batch run through every member (a
        posterior member in float32, `float32_member_forward`); each
        epoch's block is appended to ``blocks``."""
        source, m = config.stochastic_source, config.srepr_m
        for _ in range(optim.epochs):
            if source == "posterior":
                block = inline_block(post, rng, m)
                if blocks is not None:
                    blocks.append(block)
            for _ in range(-(-ds.num_examples // optim.batch_size)):
                idx = class_balanced_indices(ds, optim.batch_size, rng)
                x = ds.features[idx]
                if source == "posterior":
                    reps = np.stack([float32_member_forward(row, post.shapes[:-2], x,
                                                            activation) for row in block])
                else:
                    reps = jittered_per_member(params.layers, x, config.jitter_std, m, rng,
                                               activation)
                yield idx, reps

    def check_same_stream(self, source, batch=16, epochs=3):
        ds, params, post = self.make_problem(seed=1)
        config = RetrainConfig(srepr_m=3, stochastic_source=source)
        optim = OptimConfig(epochs=epochs, batch_size=batch, weight_decay=0.0005)
        per_epoch = -(-ds.num_examples // batch)
        rng, blocks = np.random.default_rng(4), []
        expected = list(self.hand_stream(ds, params, post, config, optim, rng, blocks))

        got_rng = np.random.default_rng(4)
        before = threading.active_count()
        got = []
        for idx, reps in srepr_batches(params.layers, post, ds, BalancingSpec("cbs"), config,
                                       optim, got_rng):
            assert threading.active_count() == before
            got.append((idx, reps.copy()))
        assert len(got) == len(expected) == epochs * per_epoch
        for (i0, r0), (i1, r1) in zip(expected, got):
            np.testing.assert_array_equal(i0, i1)
            assert r0.tobytes() == r1.tobytes()
        assert got_rng.bit_generator.state == rng.bit_generator.state
        # every step of an epoch sees its block; the next epoch a fresh one
        assert len(blocks) == (epochs if source == "posterior" else 0)
        for first, second in zip(blocks, blocks[1:]):
            assert not np.array_equal(first, second)

    @pytest.mark.parametrize("source", ["posterior", "input_jitter"])
    def test_inline_mode_same_stream_without_thread(self, source):
        self.check_same_stream(source)

    @pytest.mark.parametrize("source", ["posterior", "input_jitter"])
    def test_partial_last_block_same_stream(self, source):
        # 100 examples: batches of 48 leave the epoch's last step partly
        # past the data (3 steps), and a batch of 128 makes every step an
        # epoch of its own with a fresh block
        for batch in (48, 128):
            self.check_same_stream(source, batch=batch, epochs=3)

    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    @pytest.mark.parametrize("source", ["posterior", "input_jitter"])
    def test_same_stream_as_inline_draws(self, source, switch_interval):
        # srepr_retrain fits its head on exactly the hand-drawn stream, bit
        # for bit, however finely the interpreter switches threads
        ds, params, post = self.make_problem(seed=1)
        spec = BalancingSpec("cbs")
        config = RetrainConfig(srepr_m=3, stochastic_source=source)
        optim = OptimConfig(lr=0.1, epochs=2, batch_size=16, weight_decay=0.0005)
        saved = sys.getswitchinterval()
        try:
            if switch_interval is not None:
                sys.setswitchinterval(switch_interval)
            w, b = srepr_retrain(swa_features(params, ds), params.layers, post,
                                 (params.w, params.b), ds, spec, config, optim,
                                 np.random.default_rng(4), "relu")
        finally:
            sys.setswitchinterval(saved)

        f_swa = features(params.layers, ds.features)
        w0, b0 = params.w.copy(), params.b.copy()

        def loss_and_grads(item):
            idx, reps = item
            loss, gw, gb, _ = srepr_batch_loss_and_grad(w0, b0, reps, f_swa[idx],
                                                        ds.labels[idx], spec, config)
            return loss, [gw, gb]

        stream = self.hand_stream(ds, params, post, config, optim, np.random.default_rng(4))
        fit_head("srepr", [w0, b0], loss_and_grads, stream, ds, optim)
        assert w.tobytes() == w0.tobytes() and b.tobytes() == b0.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_posterior_reps_are_float32_values_in_float64(self, monkeypatch, activation):
        # the member table is float32, but the head reads float64 reps that
        # hold float32 values: every step's, in every epoch
        def float32_values(a):
            return a.astype(np.float32).astype(np.float64).tobytes() == a.tobytes()

        seen = []
        step = retrain_mod.srepr_batch_loss_and_grad
        monkeypatch.setattr(retrain_mod, "srepr_batch_loss_and_grad",
                            lambda w, b, reps, *a: seen.append(reps.copy()) or step(w, b, reps, *a))
        ds, params, post = self.make_problem(seed=2)
        srepr_retrain(swa_features(params, ds, activation), params.layers, post,
                      (params.w, params.b), ds, BalancingSpec("cbs"), RetrainConfig(srepr_m=3),
                      OptimConfig(epochs=2, batch_size=16, weight_decay=0.0005),
                      np.random.default_rng(9), activation)
        assert len(seen) == 2 * -(-ds.num_examples // 16)
        for reps in seen:
            assert reps.dtype == np.float64 and reps.shape == (3, 16, post.repr_dim)
            assert float32_values(reps)
        # the check has teeth: the float64 forward of the SWA point fails it
        assert not float32_values(features(params.layers, ds.features, activation))

    def test_every_member_is_one_sample_theta_call(self, monkeypatch):
        # the posterior source draws each epoch's M members through the
        # `sample_theta` that retrain binds, which the benchmark's tracer counts
        calls = []
        draw = retrain_mod.sample_theta
        monkeypatch.setattr(retrain_mod, "sample_theta",
                            lambda *a, **k: calls.append(a[0]) or draw(*a, **k))
        ds, params, post = self.make_problem()
        config = RetrainConfig(srepr_m=3)
        self.run_srepr(ds, params, post, config, epochs=4)
        assert len(calls) == 4 * 3 and all(c is post for c in calls)
        self.run_srepr(ds, params, post, RetrainConfig(srepr_m=3, stochastic_source="input_jitter"))
        assert len(calls) == 4 * 3

    def test_no_thread_outlives_return(self, monkeypatch):
        # the thread count at every training step and after return
        counts = []
        step = retrain_mod.srepr_batch_loss_and_grad
        monkeypatch.setattr(retrain_mod, "srepr_batch_loss_and_grad",
                            lambda *a: counts.append(threading.active_count()) or step(*a))
        ds, params, post = self.make_problem()
        before = threading.active_count()
        for source in ("posterior", "input_jitter"):
            self.run_srepr(ds, params, post, RetrainConfig(srepr_m=3, stochastic_source=source))
        assert len(counts) == 2 * 2 * -(-ds.num_examples // 16)
        assert set(counts) == {before}
        assert threading.active_count() == before

    @pytest.mark.parametrize("jitter", [True, False])
    def test_divergence_raises_and_joins(self, jitter):
        ds, params, post = self.make_problem()
        config = RetrainConfig(srepr_m=3,
                             stochastic_source="input_jitter" if jitter else "posterior")
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="srepr diverged: "):
            self.run_srepr(ds, params, post, config, lr=1e6, epochs=20)
        assert threading.active_count() == before

    @pytest.mark.parametrize("retrain", [True, False])
    def test_producer_exception_surfaces_and_joins(self, retrain):
        # an unfrozen posterior fails the first draw, through srepr_retrain
        # or straight from the stream, before anything is drawn
        ds, params, _ = self.make_problem()
        unfrozen = new_posterior(params)
        update_moments(unfrozen, params)
        rng = np.random.default_rng(9)
        fresh = rng.bit_generator.state
        before = threading.active_count()
        with pytest.raises(ValueError, match="frozen"):
            if retrain:
                self.run_srepr(ds, params, unfrozen)
            else:
                next(srepr_batches(params.layers, unfrozen, ds, BalancingSpec("cbs"),
                                   RetrainConfig(srepr_m=3),
                                   OptimConfig(epochs=2, batch_size=16, weight_decay=0.0005), rng))
        if not retrain:
            assert rng.bit_generator.state == fresh
        assert threading.active_count() == before

    def test_consumer_leaving_early_joins(self):
        # a consumer that stops after 3 steps has used the first block and
        # all of the first epoch's indices of the rng, and nothing more
        ds, params, post = self.make_problem()
        config = RetrainConfig(srepr_m=3)
        optim = OptimConfig(epochs=1000, batch_size=16, weight_decay=0.0005)
        per_epoch = -(-ds.num_examples // optim.batch_size)
        rng, hand_rng = np.random.default_rng(0), np.random.default_rng(0)
        before = threading.active_count()
        draws = srepr_batches(params.layers, post, ds, BalancingSpec("cbs"), config, optim, rng)
        hand = self.hand_stream(ds, params, post, config, optim, hand_rng)
        for step, ((idx, reps), (hand_idx, hand_reps)) in enumerate(zip(draws, hand)):
            np.testing.assert_array_equal(idx, hand_idx)
            assert reps.tobytes() == hand_reps.tobytes()
            if step == 2:
                break
        draws.close()
        assert per_epoch > 3
        for _ in range(per_epoch - 3):  # the hand stream's rest of the first epoch
            next(hand)
        assert rng.bit_generator.state == hand_rng.bit_generator.state
        assert threading.active_count() == before

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data(), st.integers(2, 6), st.integers(2, 5),
           st.lists(st.integers(2, 9), min_size=1, max_size=3), st.integers(1, 9),
           st.sampled_from(["relu", "tanh"]), st.integers(1, 3), st.integers(0, 2**16))
    def test_table_stream_equals_per_step_forwards(self, data, k, m, widths, d, activation,
                                                   epochs, seed):
        # each epoch's distinct rows, forwarded once per member into a table,
        # give every step the bits of its own batch's per-member forward.
        # Layers are at least 2 wide: a 1-wide layer runs as gemv, whose row
        # bits depend on the row's place in the product.
        n = data.draw(st.integers(k, 40), label="n")
        batch = data.draw(st.integers(2, 2 * n), label="batch")
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.arange(n) % k)
        ds = LongTailDataset.from_arrays(rng.standard_normal((n, d)), labels, k)
        params = init_params(rng, d, tuple(widths[:-1]), widths[-1], k)
        post = frozen_posterior(params, spread=0.3)
        config = RetrainConfig(srepr_m=m)
        optim = OptimConfig(epochs=epochs, batch_size=batch, weight_decay=0.0005)
        hand_rng, got_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        expected = list(self.hand_stream(ds, params, post, config, optim, hand_rng,
                                         activation=activation))
        got = [(idx, reps.copy()) for idx, reps in srepr_batches(
            params.layers, post, ds, BalancingSpec("cbs"), config, optim, got_rng, activation)]
        assert len(got) == len(expected) == epochs * -(-n // batch)
        for (i0, r0), (i1, r1) in zip(expected, got):
            np.testing.assert_array_equal(i0, i1)
            assert r0.shape == r1.shape == (m, batch, widths[-1])
            assert r0.tobytes() == r1.tobytes()
        assert got_rng.bit_generator.state == hand_rng.bit_generator.state

    def test_lone_distinct_row_keeps_its_gemm_bits(self, monkeypatch):
        # when every step of an epoch samples one example, its table row is
        # still that row's bits inside a product of two or more rows (a
        # one-row product runs as gemv, which rounds differently)
        ds = self.make_problem()[0]
        params = init_params(np.random.default_rng(1), 3, (32,), 16, 3)
        post = frozen_posterior(params)
        monkeypatch.setattr(retrain_mod, "class_balanced_indices",
                            lambda dataset, batch, rng: np.full(batch, 7))
        config = RetrainConfig(srepr_m=3)
        optim = OptimConfig(epochs=1, batch_size=16, weight_decay=0.0005)
        block = inline_block(post, np.random.default_rng(5), 3)
        want = np.stack([float32_member_forward(row, post.shapes[:-2], ds.features[[7, 0]])[:1]
                         for row in block]).repeat(16, axis=1)
        steps = 0
        for idx, reps in srepr_batches(params.layers, post, ds, BalancingSpec("cbs"), config,
                                       optim, np.random.default_rng(5)):
            np.testing.assert_array_equal(idx, np.full(16, 7))
            assert reps.tobytes() == want.tobytes()
            steps += 1
        assert steps == -(-ds.num_examples // 16)
