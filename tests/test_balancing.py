"""Tests for the class-rebalancing strategies."""

import math

import numpy as np
import pytest
from gradcheck import assert_grad_close, numeric_grad

from ltsrepr.balancing import (
    BalancingSpec,
    balanced_ce_loss_and_grad,
    grw_weights,
    logit_adjust,
)
from ltsrepr.netcore import softmax, softmax_ce


class TestGrwWeights:
    def test_rho_zero_is_uniform(self):
        for k in (2, 5, 9):
            pi = np.random.default_rng(k).dirichlet(np.ones(k))
            np.testing.assert_allclose(grw_weights(pi, 0.0), np.full(k, 1.0 / k), atol=1e-15)

    def test_hand_case(self):
        np.testing.assert_allclose(grw_weights([0.75, 0.25], 1.0), [0.25, 0.75], atol=1e-15)

    def test_uniform_frequencies_uniform_weights(self):
        for rho in (0.0, 0.5, 1.0, 3.0):
            np.testing.assert_allclose(grw_weights([0.2] * 5, rho), [0.2] * 5, atol=1e-15)

    def test_probability_vector(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            pi = rng.dirichlet(np.ones(k))
            rho = float(rng.uniform(0.0, 4.0))
            w = grw_weights(pi, rho)
            assert abs(w.sum() - 1.0) < 1e-12
            assert np.all(w > 0)

    def test_rare_class_weighted_higher(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pi = np.sort(rng.dirichlet(np.ones(4)))
            w = grw_weights(pi, rho=float(rng.uniform(0.1, 3.0)))
            assert np.all(np.diff(w) < 0)  # pi ascending -> weights descending

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            grw_weights([0.5, 0.0, 0.5], 1.0)


class TestLogitAdjust:
    def test_rho_zero_identity(self):
        z = np.array([[1.0, -2.0, 0.5]])
        np.testing.assert_array_equal(logit_adjust(z, [0.5, 0.3, 0.2], 0.0), z)

    def test_uniform_pi_constant_shift(self):
        z = np.random.default_rng(3).standard_normal((4, 5))
        adjusted = logit_adjust(z, [0.2] * 5, 1.0)
        np.testing.assert_allclose(softmax(adjusted), softmax(z), atol=1e-12)
        np.testing.assert_array_equal(adjusted.argmax(axis=1), z.argmax(axis=1))

    def test_hand_case(self):
        adjusted = logit_adjust(np.array([0.0, 0.0]), [0.9, 0.1], 1.0)
        np.testing.assert_allclose(adjusted, [math.log(0.9), math.log(0.1)], atol=1e-12)
        np.testing.assert_allclose(adjusted, [-0.1054, -2.3026], atol=1e-4)
        np.testing.assert_allclose(softmax(adjusted), [0.9, 0.1], atol=1e-12)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            logit_adjust(np.zeros(2), [1.0, 0.0], 1.0)


class TestBalancedLoss:
    def setup_method(self):
        rng = np.random.default_rng(4)
        self.z = rng.standard_normal((8, 4))
        self.y = rng.integers(0, 4, size=8)
        self.pi = np.array([0.55, 0.25, 0.15, 0.05])

    def test_none_equals_cbs(self):
        # class-balanced sampling changes the stream, not the loss
        loss_none, grad_none = balanced_ce_loss_and_grad(
            self.z, self.y, BalancingSpec("none")
        )
        loss_cbs, grad_cbs = balanced_ce_loss_and_grad(self.z, self.y, BalancingSpec("cbs"))
        assert loss_none == loss_cbs
        np.testing.assert_array_equal(grad_none, grad_cbs)
        plain, _ = softmax_ce(self.z, self.y)
        assert loss_none == plain

    def test_grw_rho_zero_scales_by_k(self):
        loss, _ = balanced_ce_loss_and_grad(
            self.z, self.y, BalancingSpec("grw", rho=0.0, frequencies=self.pi)
        )
        plain, _ = softmax_ce(self.z, self.y)
        np.testing.assert_allclose(loss, plain / 4, atol=1e-12)

    def test_la_uniform_pi_equals_plain_ce(self):
        for rho in (0.3, 1.0, 2.5):
            loss, grad = balanced_ce_loss_and_grad(
                self.z, self.y, BalancingSpec("la", rho=rho, frequencies=[0.25] * 4)
            )
            plain, plain_grad = softmax_ce(self.z, self.y)
            np.testing.assert_allclose(loss, plain, atol=1e-12)
            np.testing.assert_allclose(grad, plain_grad, atol=1e-12)

    @pytest.mark.parametrize("kind,rho", [("grw", 1.0), ("grw", 2.0), ("la", 1.0)])
    def test_gradient_matches_finite_differences(self, kind, rho):
        spec = BalancingSpec(kind, rho=rho, frequencies=self.pi)
        _, grad = balanced_ce_loss_and_grad(self.z, self.y, spec)
        num = numeric_grad(
            lambda zz: balanced_ce_loss_and_grad(zz, self.y, spec)[0], self.z.copy(), h=1e-4
        )
        assert_grad_close(grad, num, rtol=1e-4, atol=1e-6)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            balanced_ce_loss_and_grad(self.z, self.y, BalancingSpec("focal"))

    def test_missing_frequencies_rejected(self):
        with pytest.raises(ValueError):
            balanced_ce_loss_and_grad(self.z, self.y, BalancingSpec("grw"))

    def test_grw_is_primitive_with_class_weights(self):
        spec = BalancingSpec("grw", rho=1.0, frequencies=self.pi)
        loss, grad = balanced_ce_loss_and_grad(self.z, self.y, spec)
        ref_loss, ref_grad = softmax_ce(self.z, self.y, grw_weights(self.pi, 1.0)[self.y])
        assert loss == ref_loss
        np.testing.assert_array_equal(grad, ref_grad)

    def test_sampler_selection(self):
        assert BalancingSpec("cbs").uses_class_balanced_sampler
        for kind in ("none", "grw", "la"):
            spec = BalancingSpec(kind, frequencies=self.pi)
            assert not spec.uses_class_balanced_sampler
