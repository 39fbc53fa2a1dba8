"""Tests for the differentiable model core: forward pass, losses, gradients,
and the SGD optimizer with its cosine schedule."""

import copy
import math
import pickle

import numpy as np
import pytest
from gradcheck import assert_grad_close, max_grad_error, numeric_grad
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import allocating_softmax_ce, per_layer_scan_backward, soft_ce_loss_and_grad

from ltsrepr.netcore import (
    PROB_FLOOR,
    ModelParams,
    OptimConfig,
    OptimState,
    backward,
    classifier_logits,
    cosine_lr,
    cross_entropy,
    features,
    init_params,
    sgd_update_arrays,
    softmax,
    softmax_ce,
)


def small_params(rng, d=3, hidden=(6,), l=4, k=3):
    return init_params(rng, d, hidden, l, k)


class TestFeatures:
    def test_identity_network(self):
        layers = [(np.eye(4), np.zeros(4))]
        x = np.random.default_rng(0).standard_normal((5, 4))
        np.testing.assert_array_equal(features(layers, x), x)

    def test_zero_network(self):
        layers = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
        x = np.ones((6, 3))
        np.testing.assert_array_equal(features(layers, x), np.zeros((6, 2)))

    def test_bitwise_deterministic(self):
        params = small_params(np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((7, 3))
        a = features(params.layers, x)
        b = features(params.layers, x)
        assert np.array_equal(a, b)

    def test_shape_mismatch(self):
        layers = [(np.zeros((3, 4)), np.zeros(4))]
        with pytest.raises(ValueError, match="layer 0"):
            features(layers, np.zeros((2, 5)))

    def test_stacked_shape_mismatch_names_layer(self):
        stacked = [(np.zeros((2, 3, 4)), np.zeros((2, 1, 4))),
                   (np.zeros((2, 5, 2)), np.zeros((2, 1, 2)))]
        with pytest.raises(ValueError, match="layer 1: input width 4 != weight fan-in 5"):
            features(stacked, np.zeros((6, 3)))
        with pytest.raises(ValueError, match="layer 0: input width 5 != weight fan-in 3"):
            features([(np.zeros((3, 4)), np.zeros(4))], np.zeros((2, 6, 5)))

    def test_single_vector_input(self):
        params = small_params(np.random.default_rng(3))
        x = np.random.default_rng(4).standard_normal(3)
        single = features(params.layers, x)
        batched = features(params.layers, x[None, :])
        np.testing.assert_array_equal(single, batched[0])


class TestSoftmax:
    def test_equal_logits_uniform(self):
        for k in (2, 5, 10):
            np.testing.assert_allclose(softmax(np.full(k, 3.7)), np.full(k, 1.0 / k))

    def test_analytic_two_class(self):
        np.testing.assert_allclose(
            softmax(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-15
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 6))
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-12)

    def test_on_simplex_and_stable(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(-1e4, 1e4, size=(20, 8))
        p = softmax(z)
        assert np.all(p > 0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(np.isfinite(p))


class TestCrossEntropy:
    def test_certain_prediction(self):
        p = np.array([[0.0, 1.0, 0.0]])
        assert cross_entropy(p, np.array([1]))[0] == 0.0

    def test_uniform_ten_class(self):
        p = np.full((1, 10), 0.1)
        np.testing.assert_allclose(cross_entropy(p, np.array([4]))[0], math.log(10), atol=1e-12)

    def test_floor_prevents_inf(self):
        p = np.array([[1.0, 0.0]])
        assert np.isfinite(cross_entropy(p, np.array([1]))[0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z = rng.standard_normal((4, 5))
            y = rng.integers(0, 5, size=4)
            for weights in (None, rng.uniform(0.1, 2.0, size=4)):
                _, grad = softmax_ce(z, y, weights)
                num = numeric_grad(lambda zz: softmax_ce(zz, y, weights)[0], z.copy(), h=1e-4)
                assert_grad_close(grad, num, rtol=1e-4, atol=1e-6)

    def test_stacked_members_equal_their_own_calls(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((3, 5, 4)) * 4.0
        y = rng.integers(0, 4, size=5)
        soft = rng.dirichlet(np.ones(4), size=5)
        for targets, weights in ((y, None), (y, rng.uniform(0.1, 2.0, size=5)), (soft, None)):
            losses, grad = softmax_ce(z, targets, weights)
            assert losses.shape == (3,) and grad.shape == z.shape
            for j in range(3):
                loss_j, grad_j = softmax_ce(z[j], targets, weights)
                assert losses[j] == loss_j and grad[j].tobytes() == grad_j.tobytes()

    def test_soft_targets_match_hard_when_onehot(self):
        rng = np.random.default_rng(8)
        z = rng.standard_normal((6, 4))
        y = rng.integers(0, 4, size=6)
        hard_loss, hard_grad = softmax_ce(z, y)
        soft_loss, soft_grad = softmax_ce(z, np.eye(4)[y])
        np.testing.assert_allclose(hard_loss, soft_loss, atol=1e-12)
        np.testing.assert_allclose(hard_grad, soft_grad, atol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 6), st.integers(2, 6), st.floats(0.1, 60.0), st.integers(0, 2**16))
    def test_soft_targets_match_log_softmax_reference(self, batch, k, scale, seed):
        # mixup's soft rows: the gradient keeps its bits, and the loss agrees
        # with the unfloored log-softmax form while no probability is floored.
        # log p of a p near 1 carries an absolute rounding error near 1e-16
        # in either form, so a loss below 1 is compared on the scale of 1.
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((batch, k)) * scale
        lam = rng.uniform()
        onehot = np.eye(k)[rng.integers(0, k, size=(2, batch))]
        t = lam * onehot[0] + (1.0 - lam) * onehot[1]
        loss, grad = softmax_ce(z, t)
        ref_loss, ref_grad = soft_ce_loss_and_grad(z, t)
        assert grad.tobytes() == ref_grad.tobytes()
        if np.all(softmax(z) > PROB_FLOOR):
            assert abs(loss - ref_loss) <= 1e-12 * max(abs(ref_loss), 1.0)


    @pytest.mark.parametrize("layout", ["rows", "stacked", "class-major"])
    @pytest.mark.parametrize("target", ["labels", "rows", "weighted"])
    def test_in_place_form_matches_allocating_bitwise(self, layout, target):
        rng = np.random.default_rng(17)
        m, n, k = 3, 13, 10
        logits = {"rows": rng.standard_normal((n, k)) * 4.0,
                  "stacked": rng.standard_normal((m, n, k)) * 4.0,
                  "class-major": (rng.standard_normal((k, m, n)) * 4.0).transpose(1, 2, 0),
                  }[layout]
        labels = rng.integers(0, k, size=n)
        targets = rng.dirichlet(np.ones(k), size=n) if target == "rows" else labels
        weights = rng.uniform(0.1, 2.0, size=n) if target == "weighted" else None
        logits_before = logits.copy()
        loss, grad = softmax_ce(logits, targets, weights)
        want_loss, want_grad = allocating_softmax_ce(logits, targets, weights)
        assert np.array_equal(logits, logits_before)  # the caller's logits are not touched
        assert np.array_equal(loss, want_loss) and type(loss) is type(want_loss)
        assert np.array_equal(grad, want_grad) and grad.strides == want_grad.strides


class TestBackward:
    def test_zero_network_bias_gradient(self):
        # all-zero parameters: softmax is uniform, so the classifier bias
        # gradient is uniform minus the empirical label distribution
        layers = [(np.zeros((3, 4)), np.zeros(4))]
        params = ModelParams(layers, np.zeros((4, 3)), np.zeros(3))
        y = np.array([0, 0, 2, 1, 0])
        _, grads = backward(params, np.ones((5, 3)), y)
        label_freq = np.bincount(y, minlength=3) / 5
        np.testing.assert_allclose(grads.b, 1.0 / 3 - label_freq, atol=1e-12)

    def test_all_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            params = small_params(rng)
            x = rng.standard_normal((5, 3))
            y = rng.integers(0, 3, size=5)
            _, grads = backward(params, x, y, activation="tanh")

            def loss_of_flat(flat):
                p = params.like(flat)
                return backward(p, x, y, activation="tanh")[0]

            num = numeric_grad(loss_of_flat, params.flat.copy())
            assert_grad_close(grads.flat, num, rtol=1e-4, atol=1e-6)

    def test_gradient_check_invariant(self):
        # module invariant: max relative error <= 1e-4 over random draws
        rng = np.random.default_rng(10)
        worst = 0.0
        for _ in range(25):
            params = small_params(rng)
            x = rng.standard_normal((4, 3))
            y = rng.integers(0, 3, size=4)
            _, grads = backward(params, x, y, activation="tanh")
            num = numeric_grad(
                lambda flat: backward(params.like(flat), x, y, activation="tanh")[0],
                params.flat.copy(),
            )
            worst = max(worst, max_grad_error(grads.flat, num))
        assert worst <= 1e-4

    def test_batch_gradient_is_mean_of_per_example(self):
        rng = np.random.default_rng(11)
        params = small_params(rng)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, size=6)
        _, batch_grads = backward(params, x, y)
        acc = np.zeros_like(params.flat)
        for i in range(6):
            _, g = backward(params, x[i : i + 1], y[i : i + 1])
            acc += g.flat
        np.testing.assert_allclose(batch_grads.flat, acc / 6, atol=1e-10)

    def test_relu_gradients_match_fd_off_kinks(self):
        rng = np.random.default_rng(12)
        params = small_params(rng)
        x = rng.standard_normal((5, 3)) + 0.05  # nudge away from kink alignment
        y = rng.integers(0, 3, size=5)
        _, grads = backward(params, x, y, activation="relu")
        num = numeric_grad(
            lambda flat: backward(params.like(flat), x, y, activation="relu")[0],
            params.flat.copy(),
            h=1e-6,
        )
        assert max_grad_error(grads.flat, num, atol=1e-4) < 5e-3

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_out_equals_fresh_bitwise(self, activation):
        rng = np.random.default_rng(21)
        params = init_params(rng, 5, (7, 6), 4, 3)
        out = params.like(np.full_like(params.flat, np.nan))  # every entry must be written
        for _ in range(3):  # the same buffer, reused across steps
            x = rng.standard_normal((9, 5))
            y = rng.integers(0, 3, size=9)
            loss, fresh = backward(params, x, y, activation=activation)
            loss_out, grads = backward(params, x, y, activation=activation, out=out)
            assert grads is out and loss_out == loss
            assert np.array_equal(out.flat, fresh.flat)

    def test_nonfinite_intermediate_names_layer(self):
        params = small_params(np.random.default_rng(13))
        params.layers[0][0][0, 0] = np.inf
        with pytest.raises(FloatingPointError, match="layer 0"):
            backward(params, np.ones((2, 3)), np.array([0, 1]))


class TestFinitenessGate:
    """backward tests one scalar, the sum of every pre-activation and logit,
    and scans the layers only when it is non-finite. The per-layer scan it
    replaced (reference.py) is the oracle: every case that scan catches
    must raise its message, naming the same layer."""

    @staticmethod
    def problem(dtype, seed=40):
        rng = np.random.default_rng(seed)
        # extractor layers 0 and 1 feed the activation; layer 2 is linear
        params = init_params(rng, 5, (7, 6), 4, 3)
        params = params.like(params.flat.astype(dtype))
        return params, rng.standard_normal((9, 5)), rng.integers(0, 3, size=9)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("layer", [0, 1, 2, "logits"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_raises_the_per_layer_scans_error(self, dtype, activation, layer, value):
        # relu zeroes a -inf and tanh maps a +inf to 1, so in those cases
        # the layers after the injected one, and the logits, stay finite
        params, x, y = self.problem(dtype)
        bias = params.b if layer == "logits" else params.layers[layer][1]
        bias[2] = value
        with pytest.raises(FloatingPointError) as want:
            per_layer_scan_backward(params, x, y, softmax_ce, activation)
        with pytest.raises(FloatingPointError) as got:
            backward(params, x, y, activation=activation)
        assert str(got.value) == str(want.value)
        named = ("non-finite logits in classifier layer" if layer == "logits"
                 else f"non-finite pre-activation in extractor layer {layer}")
        assert str(got.value) == named

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_overflowing_sum_of_finite_values_does_not_raise(self, activation):
        # -1e38 pre-activations are finite float32 values that relu zeroes
        # and tanh maps to -1, but 63 of them sum past float32's range
        params, x, y = self.problem(np.float32)
        params.layers[0][1][:] = -1e38
        z0 = features(params.layers[:1], x, activation)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(z0)) and not np.isfinite(np.add.reduce(z0, axis=None))
        loss, grads = backward(params, x, y, activation=activation)
        want_loss, want_grads = per_layer_scan_backward(params, x, y, softmax_ce, activation)
        assert loss == want_loss
        assert np.array_equal(grads.flat, want_grads) and np.all(np.isfinite(grads.flat))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("soft", [False, True])
    def test_gradients_match_the_per_layer_scan_form_bitwise(self, dtype, activation, soft):
        for seed in range(5):
            params, x, y = self.problem(dtype, seed)
            targets = np.eye(3)[y] * 0.8 + 0.2 / 3 if soft else y
            loss, grads = backward(params, x, targets, activation=activation)
            want_loss, want_grads = per_layer_scan_backward(params, x, targets, softmax_ce,
                                                            activation)
            assert loss == want_loss and np.array_equal(grads.flat, want_grads)


class TestCosineSchedule:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 0.4) == pytest.approx(0.4)
        assert cosine_lr(100, 100, 0.4) == pytest.approx(0.0, abs=1e-17)
        assert cosine_lr(50, 100, 0.4) == pytest.approx(0.2)

    def test_returns_a_python_float(self):
        # a numpy float64 scalar would promote float32 in-place passes to float64
        assert all(type(cosine_lr(t, 10, 0.1)) is float for t in range(11))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 0, 0.1)
        with pytest.raises(ValueError):
            cosine_lr(5, 4, 0.1)


class TestSgd:
    def test_zero_gradient_no_decay_is_identity(self):
        params = small_params(np.random.default_rng(14))
        before = params.flat.copy()
        zero = ModelParams(
            [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers],
            np.zeros_like(params.w),
            np.zeros_like(params.b),
        )
        hyper = OptimConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        state = OptimState.for_arrays([params.flat], hyper)
        sgd_update_arrays([params.flat], [zero.flat], state, lr=0.1)
        np.testing.assert_array_equal(params.flat, before)

    def test_weight_decay_hand_case(self):
        # scalar 1.0, zero gradient, wd 5e-4, lr 0.1: 1 - 0.1*(2*5e-4*1) = 0.9999
        p = [np.array([1.0])]
        hyper = OptimConfig(lr=0.1, momentum=0.0, weight_decay=0.0005)
        state = OptimState.for_arrays(p, hyper)
        sgd_update_arrays(p, [np.array([0.0])], state, lr=0.1)
        np.testing.assert_allclose(p[0], [0.9999], atol=1e-15)

    def test_two_steps_equal_summed_gradients_without_momentum(self):
        rng = np.random.default_rng(15)
        g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
        p = [rng.standard_normal(4)]
        start = p[0].copy()
        hyper = OptimConfig(lr=0.05, momentum=0.0, weight_decay=0.0)
        state = OptimState.for_arrays(p, hyper)
        sgd_update_arrays(p, [g1], state, lr=0.05)
        sgd_update_arrays(p, [g2], state, lr=0.05)
        np.testing.assert_allclose(p[0], start - 0.05 * (g1 + g2), atol=1e-12)

    def test_nesterov_matches_hand_recurrence(self):
        # oracle: v <- mu v + g ; p <- p - lr (g + mu v), rolled by hand
        rng = np.random.default_rng(16)
        grads = [rng.standard_normal(3) for _ in range(4)]
        p = [np.zeros(3)]
        hyper = OptimConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        state = OptimState.for_arrays(p, hyper)
        for g in grads:
            sgd_update_arrays(p, [g], state, lr=0.1)
        expected = np.zeros(3)
        v = np.zeros(3)
        for g in grads:
            v = 0.9 * v + g
            expected = expected - 0.1 * (g + 0.9 * v)
        np.testing.assert_allclose(p[0], expected, atol=1e-12)


def reference_sgd(arrays, grads, buffers, lr, mu, wd):
    """The allocating per-array Nesterov loop the fused update must match."""
    for p, g, v in zip(arrays, grads, buffers):
        g_eff = g + 2.0 * wd * p
        if mu != 0.0:
            v *= mu
            v += g_eff
            p -= lr * (g_eff + mu * v)
        else:
            p -= lr * g_eff


shapes = st.lists(
    st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple), min_size=1, max_size=6
)


class TestFusedSgd:
    @settings(max_examples=60, deadline=None, database=None)
    @given(shapes, st.sampled_from([0.0, 0.9]), st.sampled_from([0.0, 1e-3]),
           st.integers(0, 2**16), st.integers(1, 4))
    def test_flat_update_equals_per_array_loop(self, layout, mu, wd, seed, steps):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(shape) for shape in layout]
        flat = np.concatenate([a.ravel() for a in arrays])
        buffers = [np.zeros_like(a) for a in arrays]
        state = OptimState.for_arrays([flat], OptimConfig(momentum=mu, weight_decay=wd))
        for _ in range(steps):
            grads = [rng.standard_normal(shape) for shape in layout]
            lr = float(rng.uniform(0.01, 0.5))
            reference_sgd(arrays, grads, buffers, lr, mu, wd)
            sgd_update_arrays([flat], [np.concatenate([g.ravel() for g in grads])], state, lr)
        assert np.array_equal(flat, np.concatenate([a.ravel() for a in arrays]))
        assert np.array_equal(state.buffers[0], np.concatenate([v.ravel() for v in buffers]))

    def test_pretrain_step_moves_params_in_place(self):
        rng = np.random.default_rng(22)
        params = small_params(rng)
        reference = [a.copy() for a in params.arrays()]
        buffers = [np.zeros_like(a) for a in reference]
        hyper = OptimConfig(momentum=0.9, weight_decay=5e-4)
        grads = params.like(np.empty_like(params.flat))
        state = OptimState.for_arrays([params.flat], hyper)
        for _ in range(2):
            x, y = rng.standard_normal((5, 3)), rng.integers(0, 3, size=5)
            backward(params, x, y, out=grads)
            reference_sgd(reference, grads.arrays(), buffers, 0.1, 0.9, 5e-4)
            sgd_update_arrays([params.flat], [grads.flat], state, 0.1)
        for a, b in zip(params.arrays(), reference):
            assert np.array_equal(a, b)

    def test_mismatched_state_rejected(self):
        params = small_params(np.random.default_rng(23))
        state = OptimState.for_arrays(params.arrays(), OptimConfig())
        with pytest.raises(ValueError):
            sgd_update_arrays([params.flat], [np.zeros_like(params.flat)], state, 0.1)


def as_float32(params):
    return params.like(params.flat.astype(np.float32))


class TestFloat32:
    """Stage 1 trains in float32: the forward, gradients and SGD step keep
    float32 parameters float32."""

    def test_forward_runs_in_the_weights_dtype(self):
        params = as_float32(small_params(np.random.default_rng(30)))
        x = np.random.default_rng(31).standard_normal((5, 3))
        assert features(params.layers, x).dtype == np.float32

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_backward_agrees_with_float64(self, activation):
        rng = np.random.default_rng(32)
        for _ in range(10):
            p32 = as_float32(init_params(rng, 5, (7, 6), 4, 3))
            p64 = p32.like(p32.flat.astype(np.float64))  # the same values
            x = rng.standard_normal((9, 5))
            y = rng.integers(0, 3, size=9)
            loss32, g32 = backward(p32, x, y, activation=activation)
            loss64, g64 = backward(p64, x, y, activation=activation)
            assert g32.flat.dtype == np.float32
            assert abs(loss32 - loss64) < 1e-5
            assert_grad_close(g32.flat, g64.flat, rtol=1e-3, atol=1e-5)

    @pytest.mark.parametrize("flat, message", [
        (np.zeros(22, dtype=np.float16), "1-D float16"),
        (np.zeros(22, dtype=np.int64), "1-D int64"),
        (np.zeros(44)[::2], "non-contiguous 1-D float64"),
        (np.zeros((2, 11), dtype=np.float32), "2-D float32"),
    ])
    def test_params_reject_other_vectors(self, flat, message):
        shapes = small_params(np.random.default_rng(33)).shapes  # 22 entries
        with pytest.raises(ValueError, match=f"float32 or float64 vector, got a {message} array"):
            ModelParams.from_flat(flat, shapes)

    def test_sgd_step_keeps_every_buffer_float32(self):
        rng = np.random.default_rng(34)
        params = as_float32(small_params(rng))
        reference = [a.copy() for a in params.arrays()]
        buffers = [np.zeros_like(a) for a in reference]
        grads = params.like(np.empty_like(params.flat))
        state = OptimState.for_arrays([params.flat], OptimConfig(momentum=0.9, weight_decay=5e-4))
        for step in range(3):
            backward(params, rng.standard_normal((5, 3)), rng.integers(0, 3, size=5), out=grads)
            lr = cosine_lr(step, 3, 0.1)
            assert type(lr) is float
            sgd_update_arrays([params.flat], [grads.flat], state, lr)
            reference_sgd(reference, grads.arrays(), buffers, lr, 0.9, 5e-4)
        for a in (params.flat, grads.flat, *state.buffers, *state.scratch[0]):
            assert a.dtype == np.float32
        # the float32 step is the allocating loop's float32 arithmetic, bit for bit
        for a, b in zip(params.arrays(), reference):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFlatLayout:
    def test_every_view_shares_the_flat_vector(self):
        params = init_params(np.random.default_rng(24), 5, (7, 6), 4, 3)
        assert params.flat.flags.c_contiguous and params.flat.dtype == np.float64
        for a in params.arrays():
            assert np.shares_memory(a, params.flat)

    def test_pickle_and_deepcopy_keep_the_views(self):
        params = small_params(np.random.default_rng(27))
        for clone in (pickle.loads(pickle.dumps(params)), copy.deepcopy(params)):
            np.testing.assert_array_equal(clone.flat, params.flat)
            assert not np.shares_memory(clone.flat, params.flat)
            for a in clone.arrays():
                assert np.shares_memory(a, clone.flat)

    def test_extractor_is_the_prefix(self):
        params = init_params(np.random.default_rng(25), 5, (7,), 4, 3)
        assert params.theta_dim == 5 * 7 + 7 + 7 * 4 + 4
        theta = np.concatenate([a.ravel() for pair in params.layers for a in pair])
        np.testing.assert_array_equal(params.flat[: params.theta_dim], theta)

    def test_like_rejects_a_wrong_size(self):
        params = small_params(np.random.default_rng(26))
        with pytest.raises(ValueError, match="entries"):
            params.like(np.zeros(params.flat.size + 1))


class TestInit:
    def test_shapes_chain(self):
        params = init_params(np.random.default_rng(17), 20, (64, 64), 32, 10)
        dims = [20, 64, 64, 32]
        for (w, b), (fi, fo) in zip(params.layers, zip(dims[:-1], dims[1:])):
            assert w.shape == (fi, fo) and b.shape == (fo,)
        assert params.w.shape == (32, 10) and params.b.shape == (10,)
        assert params.repr_dim == 32 and params.num_classes == 10

    def test_flatten_roundtrip(self):
        params = small_params(np.random.default_rng(18))
        # checkpoint order: every array's entries, extractor first
        flat = np.concatenate([a.ravel() for a in params.arrays()])
        np.testing.assert_array_equal(params.flat, flat)
        back = params.like(flat)
        for a, b in zip(back.arrays(), params.arrays()):
            np.testing.assert_array_equal(a, b)
        packed = ModelParams(params.layers, params.w, params.b)
        np.testing.assert_array_equal(packed.flat, flat)
        assert not np.shares_memory(packed.flat, params.flat)

    def test_all_finite(self):
        params = init_params(np.random.default_rng(19), 5, (7,), 3, 4)
        assert np.all(np.isfinite(params.flat))

    def test_logits_shape(self):
        params = small_params(np.random.default_rng(20))
        z = classifier_logits(params.w, params.b, features(params.layers, np.zeros((6, 3))))
        assert z.shape == (6, 3)
