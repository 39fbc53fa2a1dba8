"""Tests for stage-2 classifier learning: baselines, Dirichlet math, and
stochastic-representation re-training."""

import math
import sys
import threading

import numpy as np
import pytest
from gradcheck import assert_grad_close, numeric_grad
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import dirichlet_kl, kd_loss, mean_ce_loss
from scipy import stats
from scipy.special import digamma, gammaln, polygamma

from ltsrepr.balancing import BalancingSpec, example_weights, logit_adjust
from ltsrepr.data import LongTailDataset, class_balanced_indices
from ltsrepr.netcore import (
    OptimConfig,
    classifier_logits,
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
from ltsrepr.swag import (
    fill_theta,
    freeze,
    new_posterior,
    theta_layers,
    update_moments,
)


def blob_dataset(counts, centers, noise=0.3, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for k, (n, c) in enumerate(zip(counts, centers)):
        xs.append(np.asarray(c) + noise * rng.standard_normal((n, len(c))))
        ys.append(np.full(n, k))
    return LongTailDataset.from_arrays(np.concatenate(xs), np.concatenate(ys), len(counts))


def frozen_posterior(params, spread=0.05, rng_seed=0):
    """Posterior around params with a controlled diagonal spread."""
    post = new_posterior(params)
    update_moments(post, params)
    update_moments(post, params)
    freeze(post)
    post.mean = params.flat.copy()
    post.sigma = np.full_like(post.mean, spread**2)
    return post


class TestCrt:
    def test_zero_epochs_returns_initialization(self):
        ds = blob_dataset([10, 10], [[-1, 0], [1, 0]])
        hyper = OptimConfig(epochs=0, batch_size=8, weight_decay=0.0005)
        w, b = crt([], ds, BalancingSpec("cbs"), hyper, np.random.default_rng(5))
        w0, b0 = init_classifier(np.random.default_rng(5), 2, 2)
        np.testing.assert_array_equal(w, w0)
        np.testing.assert_array_equal(b, b0)

    def test_separable_toy_reaches_full_accuracy(self):
        ds = blob_dataset([30, 30], [[-5, -5], [5, 5]], noise=0.5, seed=1)
        hyper = OptimConfig(lr=0.5, momentum=0.9, weight_decay=0.0, epochs=50, batch_size=16)
        w, b = crt([], ds, BalancingSpec("cbs"), hyper, np.random.default_rng(2))
        preds = classifier_logits(w, b, ds.features).argmax(axis=1)
        assert (preds == ds.labels).mean() == 1.0

    def test_backbone_untouched(self):
        rng = np.random.default_rng(3)
        params = init_params(rng, 2, (5,), 3, 2)
        theta = params.layers
        snapshot = [(w.copy(), b.copy()) for w, b in theta]
        ds = blob_dataset([20, 8], [[-1, 0], [1, 0]], seed=4)
        optim = OptimConfig(epochs=3, batch_size=8, weight_decay=0.0005)
        crt(theta, ds, BalancingSpec("cbs"), optim, rng)
        for (w0, b0), (w1, b1) in zip(snapshot, theta):
            np.testing.assert_array_equal(w0, w1)
            np.testing.assert_array_equal(b0, b1)

    def test_divergence_raises(self):
        ds = blob_dataset([20, 8], [[-1, 0], [1, 0]], seed=4)
        hyper = OptimConfig(lr=1e6, epochs=100, batch_size=8, weight_decay=0.0005)
        with pytest.raises(FloatingPointError, match="crt diverged"):
            crt([], ds, BalancingSpec("cbs"), hyper, np.random.default_rng(5))


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
        w, b, tau = lws([], (w_star, b_star), ds, BalancingSpec("cbs"), hyper, rng)
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
            lws([], (w_star, b_star), ds, BalancingSpec("cbs"), optim, rng)


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
            params.layers, (params.w, params.b), ds,
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
            disalign(params.layers, (params.w, params.b), ds,
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


def reference_kd(alpha, beta, p_bar):
    """kd_loss_and_alpha_grad written with dirichlet_kl(a, ones) and
    polygamma(1, .), which the module's version must match bit for bit."""
    n, k = alpha.shape
    a0 = alpha.sum(axis=1)
    b0 = beta.sum(axis=1)
    term1 = -(p_bar * (digamma(alpha) - digamma(a0)[:, None])).sum(axis=1)
    loss = (term1 + dirichlet_kl(alpha, np.ones_like(alpha)) / b0).mean()
    tri_a, tri_a0 = polygamma(1, alpha), polygamma(1, a0)
    g_term1 = -p_bar * tri_a + (p_bar.sum(axis=1) * tri_a0)[:, None]
    g_kl = (alpha - 1.0) * tri_a - ((a0 - k) * tri_a0)[:, None]
    return float(loss), (g_term1 + g_kl / b0[:, None]) / n


class TestKdLoss:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_polygamma_and_dirichlet_kl_form(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        alpha = 1.0 + np.exp(rng.uniform(-20.0, 25.0, size=(64, k)))
        beta = 1.0 + np.exp(rng.uniform(-5.0, 12.0, size=(64, k)))
        p_bar = rng.dirichlet(np.ones(k), size=64)
        loss, grad = kd_loss_and_alpha_grad(alpha, beta, p_bar)
        ref_loss, ref_grad = reference_kd(alpha, beta, p_bar)
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert grad.tobytes() == ref_grad.tobytes()

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
            params.layers, post, (params.w, params.b), ds, BalancingSpec("cbs"),
            RetrainConfig(srepr_m=3), hyper, np.random.default_rng(1),
        )
        np.testing.assert_array_equal(w, params.w)
        np.testing.assert_array_equal(b, params.b)

    def test_posterior_required(self):
        ds, params, _ = self.make_problem()
        with pytest.raises(ValueError, match="posterior required"):
            srepr_retrain(
                params.layers, None, (params.w, params.b), ds, BalancingSpec("cbs"),
                RetrainConfig(srepr_m=3), OptimConfig(epochs=1, batch_size=16, weight_decay=0.0005),
                np.random.default_rng(2),
            )

    def test_jitter_source_runs_without_posterior(self):
        ds, params, _ = self.make_problem()
        cfg = RetrainConfig(srepr_m=3, stochastic_source="input_jitter", jitter_std=0.1)
        w, b = srepr_retrain(
            params.layers, None, (params.w, params.b), ds, BalancingSpec("cbs"),
            cfg, OptimConfig(epochs=1, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(3),
        )
        assert np.all(np.isfinite(w)) and np.all(np.isfinite(b))

    def test_backbone_frozen_bitwise(self):
        ds, params, post = self.make_problem(seed=4)
        snapshot = [(w.copy(), b.copy()) for w, b in params.layers]
        srepr_retrain(
            params.layers, post, (params.w, params.b), ds, BalancingSpec("cbs"),
            RetrainConfig(srepr_m=3), OptimConfig(epochs=2, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(5),
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
            params.layers, post, (params.w, params.b), ds, spec, config,
            OptimConfig(lr=0.2, epochs=epochs, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(7),
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
    calling thread and never ahead of the step that uses it."""

    def make_problem(self, seed=0):
        return TestSreprTraining().make_problem(seed)

    def run_srepr(self, ds, params, post, config=RetrainConfig(srepr_m=3), lr=0.1, epochs=2):
        return srepr_retrain(
            params.layers, post, (params.w, params.b), ds, BalancingSpec("cbs"), config,
            OptimConfig(lr=lr, epochs=epochs, batch_size=16, weight_decay=0.0005),
            np.random.default_rng(9),
        )

    @staticmethod
    def hand_stream(ds, params, post, config, optim, rng, blocks=None):
        """srepr's stream drawn by hand: a block of M draws at the start of
        each epoch, then each step's indices (and, for jitter, that step's M
        noisy copies); each epoch's block is appended to ``blocks``."""
        source, m = config.stochastic_source, config.srepr_m
        for _ in range(optim.epochs):
            if source == "posterior":
                block = np.empty((m, post.theta_dim))
                fill_theta(post, rng, block)
                if blocks is not None:
                    blocks.append(block)
            for _ in range(-(-ds.num_examples // optim.batch_size)):
                idx = class_balanced_indices(ds, optim.batch_size, rng)
                x = ds.features[idx]
                if source == "posterior":
                    reps = np.stack([features(theta_layers(post, row), x) for row in block])
                else:
                    reps = stochastic_representations(x, source, params.layers, config, rng)
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
            w, b = srepr_retrain(params.layers, post, (params.w, params.b), ds, spec, config,
                                 optim, np.random.default_rng(4))
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
        # 3 steps' indices of the rng, and nothing more
        ds, params, post = self.make_problem()
        config = RetrainConfig(srepr_m=3)
        optim = OptimConfig(epochs=1000, batch_size=16, weight_decay=0.0005)
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
        assert rng.bit_generator.state == hand_rng.bit_generator.state
        assert threading.active_count() == before
