"""Tests for accuracy/NLL/ECE, dispersion measures, quartile analysis,
class probabilities, ensembling, and per-class diagnostics."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import stacked_dispersion_prob, stacked_dispersion_repr
from test_pipeline import tiny_config

from ltsrepr.data import FEW, MANY, MEDIUM
from ltsrepr.metrics import (
    MemberSums,
    accuracy,
    class_probs,
    dispersion_prob,
    dispersion_repr,
    ece,
    ensemble_predict,
    evaluate_probs,
    nll,
    pearson_corr,
    posterior_sums,
    quartile_analysis,
    reliability_bins,
)
from ltsrepr import pipeline as pl
from ltsrepr.netcore import (
    ModelParams,
    classifier_logits,
    cross_entropy,
    features,
    init_params,
    softmax,
)
from ltsrepr.retrain import DisAlignParams, disalign_logits
from ltsrepr.swag import extractor_layers, freeze, new_posterior, sample_theta, update_moments


class TestAccuracy:
    def test_all_correct(self):
        probs = np.eye(3)[[0, 1, 2, 1]]
        assert accuracy(probs, np.array([0, 1, 2, 1]))["all"] == 1.0

    def test_half_correct(self):
        probs = np.eye(2)[[0, 0, 1, 1]]
        assert accuracy(probs, np.array([0, 1, 0, 1]))["all"] == 0.5

    def test_uniform_ties_break_to_lowest_index(self):
        probs = np.full((4, 3), 1.0 / 3)
        labels = np.array([0, 0, 1, 2])
        out = accuracy(probs, labels)
        assert out["all"] == 0.5  # only the label-0 rows count

    def test_per_split_accuracies(self):
        splits = [MANY, FEW]
        probs = np.eye(2)[[0, 1, 1, 1]]
        labels = np.array([0, 0, 1, 1])
        out = accuracy(probs, labels, splits)
        assert out[MANY] == 0.5
        assert out[FEW] == 1.0
        assert out[MEDIUM] is None  # no medium classes present


class TestNll:
    def test_perfect_predictions(self):
        probs = np.eye(3)[[0, 2]]
        assert nll(probs, np.array([0, 2])) == 0.0

    def test_uniform_ten_class(self):
        probs = np.full((7, 10), 0.1)
        np.testing.assert_allclose(
            nll(probs, np.zeros(7, dtype=int)), math.log(10), atol=1e-12
        )

    def test_hand_mean(self):
        probs = np.array([[1.0, 0.0], [math.exp(-2.0), 1 - math.exp(-2.0)]])
        np.testing.assert_allclose(nll(probs, np.array([0, 0])), 1.0, atol=1e-12)

    def test_per_instance_values(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_allclose(
            cross_entropy(probs, np.array([0, 0])), [math.log(2), math.log(4)], atol=1e-12
        )


class TestEce:
    def test_hand_case_two_examples(self):
        # confidences 0.6 (correct) and 0.8 (incorrect) land in distinct bins
        probs = np.array([[0.6, 0.4], [0.2, 0.8]])
        labels = np.array([0, 0])
        value, bins = ece(probs, labels, n_bins=15)
        np.testing.assert_allclose(value, 0.6, atol=1e-12)
        occupied = [b for b in bins if b.count]
        assert len(occupied) == 2
        assert occupied[0].lo == pytest.approx(8 / 15)
        assert occupied[1].hi == pytest.approx(12 / 15)

    def test_confident_and_correct_is_calibrated(self):
        probs = np.eye(4)[[0, 1, 2, 3]]
        value, _ = ece(probs, np.array([0, 1, 2, 3]))
        assert value == 0.0

    def test_identical_rows_single_bin(self):
        probs = np.tile([0.7, 0.3], (10, 1))
        labels = np.array([0] * 4 + [1] * 6)  # accuracy 0.4
        value, bins = ece(probs, labels, n_bins=15)
        occupied = [b for b in bins if b.count]
        assert len(occupied) == 1
        np.testing.assert_allclose(value, abs(0.4 - 0.7), atol=1e-12)

    def test_boundary_confidence_goes_to_lower_bin(self):
        bins = reliability_bins(np.array([[0.2, 0.8]]), np.array([1]), n_bins=5)
        assert bins[3].count == 1  # 0.8 in (0.6, 0.8], not (0.8, 1.0]

    def test_within_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(5), size=50)
            labels = rng.integers(0, 5, size=50)
            value, _ = ece(probs, labels)
            assert 0.0 <= value <= 1.0

    def test_perfectly_calibrated_synthetic(self):
        # correctness drawn with probability equal to the stated confidence
        rng = np.random.default_rng(1)
        n = 200_000
        conf = rng.uniform(0.55, 0.95, size=n)
        correct = rng.random(n) < conf
        probs = np.stack([conf, 1 - conf], axis=1)
        labels = np.where(correct, 0, 1)
        value, _ = ece(probs, labels, n_bins=15)
        assert value <= 1 / (2 * 15) + 0.01

    def test_rejects_bad_bins(self):
        with pytest.raises(ValueError):
            ece(np.array([[1.0]]), np.array([0]), n_bins=0)


class TestDispersionRepr:
    def test_identical_representations(self):
        reps = np.tile([1.0, 2.0, 3.0], (4, 1))
        assert dispersion_repr(reps) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pair_hand_case(self):
        reps = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = 1.0 - math.sqrt(0.5)  # cosine of each to the centroid
        np.testing.assert_allclose(dispersion_repr(reps), expected, atol=1e-12)
        np.testing.assert_allclose(dispersion_repr(reps), 0.2929, atol=1e-4)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        reps = rng.standard_normal((5, 7))
        base = dispersion_repr(reps)
        for c in (0.001, 3.0, 1e4):
            np.testing.assert_allclose(dispersion_repr(c * reps), base, atol=1e-9)

    def test_zero_vector_counts_as_orthogonal(self):
        reps = np.array([[0.0, 0.0], [2.0, 0.0]])
        # zero member contributes 1; the other is colinear with the centroid
        np.testing.assert_allclose(dispersion_repr(reps), 0.5, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            reps = rng.standard_normal((6, 4))
            d = dispersion_repr(reps)
            assert 0.0 - 1e-12 <= d <= 2.0 + 1e-12

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        reps = rng.standard_normal((5, 8, 3))
        batched = dispersion_repr(reps)
        for i in range(8):
            np.testing.assert_allclose(batched[i], dispersion_repr(reps[:, i]), atol=1e-12)


class TestDispersionProb:
    def test_identical_predictions(self):
        preds = np.tile([0.2, 0.5, 0.3], (6, 1))
        assert dispersion_prob(preds) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_pair_is_log_two(self):
        preds = np.array([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(dispersion_prob(preds), math.log(2), atol=1e-12)

    def test_nonnegative_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            preds = rng.dirichlet(np.ones(4), size=m)
            d = dispersion_prob(preds)
            assert 0.0 <= d <= math.log(m) + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        preds = rng.dirichlet(np.ones(3), size=5)
        base = dispersion_prob(preds)
        np.testing.assert_allclose(dispersion_prob(preds[::-1]), base, atol=1e-12)


class TestQuartiles:
    def test_pcc_one_when_identical(self):
        values = np.linspace(0.1, 2.0, 40)
        qa = quartile_analysis(values, values)
        assert qa.pcc == pytest.approx(1.0)

    def test_constant_dispersion_undefined(self):
        nll_values = np.linspace(0.0, 1.0, 8)
        qa = quartile_analysis(nll_values, np.full(8, 0.5))
        assert qa.pcc is None
        assert pearson_corr(np.full(8, 0.5), nll_values) is None

    def test_group_sizes_equal(self):
        rng = np.random.default_rng(7)
        qa = quartile_analysis(rng.standard_normal(40), rng.standard_normal(40))
        assert [g.count for g in qa.groups] == [10, 10, 10, 10]

    def test_groups_ordered_by_nll(self):
        nll_values = np.arange(8.0)
        disp = np.arange(8.0) * 10
        qa = quartile_analysis(nll_values, disp)
        medians = [g.median for g in qa.groups]
        assert medians == sorted(medians)

    def test_box_stats_match_percentile_oracle(self):
        rng = np.random.default_rng(8)
        nll_values = rng.random(16)
        disp = rng.random(16)
        qa = quartile_analysis(nll_values, disp)
        order = np.argsort(nll_values, kind="stable")
        first_group = disp[order[:4]]
        assert qa.groups[0].median == pytest.approx(np.percentile(first_group, 50))
        assert qa.groups[0].q3 == pytest.approx(np.percentile(first_group, 75))

    def test_needs_four(self):
        with pytest.raises(ValueError):
            quartile_analysis([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    def test_pcc_affine_sign(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100)
        for a in (2.5, -0.3):
            assert pearson_corr(x, a * x + 1.7) == pytest.approx(math.copysign(1.0, a))


class TestEnsemble:
    def build(self, spread, seed=0):
        rng = np.random.default_rng(seed)
        params = init_params(rng, 3, (4,), 3, 2)
        post = new_posterior(params)
        update_moments(post, params)
        update_moments(post, params)
        freeze(post)
        post.mean = params.flat.copy()
        post.sigma = np.full_like(post.mean, spread**2)
        return params, post, rng.standard_normal((6, 3))

    def test_single_member_equals_one_sample(self):
        params, post, x = self.build(spread=0.3)
        p1 = ensemble_predict(x, post, params.w, params.b, 1, np.random.default_rng(1), "relu")
        theta = sample_theta(post, np.random.default_rng(1))
        expected = softmax(classifier_logits(params.w, params.b, features(theta, x, "relu")))
        np.testing.assert_allclose(p1, expected, atol=1e-12)

    def test_zero_variance_matches_point_prediction(self):
        params, post, x = self.build(spread=0.0)
        point = softmax(classifier_logits(params.w, params.b, features(params.layers, x, "relu")))
        for m in (1, 4):
            p = ensemble_predict(x, post, params.w, params.b, m, np.random.default_rng(2), "relu")
            np.testing.assert_allclose(p, point, atol=1e-12)

    def test_exact_mean_of_members(self):
        params, post, x = self.build(spread=0.2, seed=3)
        m = 5
        p = ensemble_predict(x, post, params.w, params.b, m, np.random.default_rng(4), "relu")
        rng = np.random.default_rng(4)
        acc = np.zeros_like(p)
        for _ in range(m):
            theta = sample_theta(post, rng)
            acc += softmax(classifier_logits(params.w, params.b, features(theta, x, "relu")))
        np.testing.assert_allclose(p, acc / m, atol=1e-12)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_zero_members(self):
        params, post, x = self.build(spread=0.1)
        with pytest.raises(ValueError):
            ensemble_predict(x, post, params.w, params.b, 0, np.random.default_rng(0), "relu")


class TestClassProbs:
    def test_stacked_members_equal_their_own_calls(self):
        rng = np.random.default_rng(11)
        reps = rng.standard_normal((4, 7, 3))
        w, b = rng.standard_normal((3, 5)), rng.standard_normal(5)
        probs = class_probs(reps, w, b)
        assert probs.shape == (4, 7, 5)
        for j in range(4):
            assert probs[j].tobytes() == class_probs(reps[j], w, b).tobytes()

    def test_ensemble_calibrates_every_member(self):
        params, post, x = TestEnsemble().build(spread=0.2, seed=5)
        calib = DisAlignParams(
            scale=np.array([1.5, 0.5]), shift=np.array([0.2, -0.1]),
            gate_w=np.array([0.3, -0.2]), gate_b=0.1,
        )
        p = ensemble_predict(x, post, params.w, params.b, 3, np.random.default_rng(6), "relu",
                             disalign=calib)
        rng = np.random.default_rng(6)
        acc = np.zeros_like(p)
        for _ in range(3):
            z = classifier_logits(params.w, params.b, features(sample_theta(post, rng), x, "relu"))
            acc += softmax(disalign_logits(z, calib))
        np.testing.assert_allclose(p, acc / 3, atol=1e-12)
        assert not np.allclose(p, ensemble_predict(x, post, params.w, params.b, 3,
                                                   np.random.default_rng(6), "relu"))


class TestStreamedMembers:
    """eval and analyze reduce each posterior member as it arrives; the
    results are those of the old formulas over the stack of all M."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 7), st.integers(1, 9), st.integers(1, 6), st.integers(2, 6),
           st.booleans(), st.integers(0, 2**16))
    def test_stream_equals_stack(self, m, n, dim, k, calibrated, seed):
        rng = np.random.default_rng(seed)
        params = init_params(rng, 3, (5,), dim, k)
        post = new_posterior(params)
        for _ in range(3):
            update_moments(post, init_params(rng, 3, (5,), dim, k))
        freeze(post)
        x = rng.standard_normal((n, 3))
        calib = DisAlignParams(
            scale=rng.uniform(0.5, 1.5, k), shift=rng.standard_normal(k),
            gate_w=rng.standard_normal(k), gate_b=0.2,
        ) if calibrated else None
        loop_rng, draw = np.random.default_rng(seed + 1), np.empty(post.theta_dim)

        def member():
            # as eval and analyze forward a member: its float64 draw rounded to float32
            sample_theta(post, loop_rng, draw)
            return features(extractor_layers(post, draw.astype(np.float32)), x, "relu")

        stack = np.stack([member() for _ in range(m)]).astype(np.float64)
        probs = class_probs(stack, params.w, params.b, calib)

        mean_rng, sums_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        mean = ensemble_predict(x, post, params.w, params.b, m, mean_rng, "relu", disalign=calib)
        sums = posterior_sums(x, post, params.w, params.b, m, sums_rng, "relu", disalign=calib,
                              reps=True)
        assert mean.tobytes() == probs.mean(axis=0).tobytes()
        assert sums.count == m
        for used in (mean_rng, sums_rng):
            assert used.bit_generator.state == loop_rng.bit_generator.state

        want_p = stacked_dispersion_prob(probs)
        assert dispersion_prob(sums).tobytes() == want_p.tobytes()
        assert dispersion_prob(probs).tobytes() == want_p.tobytes()
        want_r = stacked_dispersion_repr(stack)
        np.testing.assert_allclose(dispersion_repr(sums), want_r, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dispersion_repr(stack), want_r, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(2, 7), st.integers(2, 9), st.integers(1, 6), st.floats(0.0, 0.6),
           st.integers(0, 2**16))
    def test_zero_members_and_zero_centroids(self, m, n, dim, zero_share, seed):
        rng = np.random.default_rng(seed)
        reps = np.maximum(rng.standard_normal((m, n, dim)), 0.0)  # relu zeroes whole rows too
        reps[rng.random((m, n)) < zero_share] = 0.0
        reps[:, 0] = 0.0  # every member zero: a zero centroid
        reps[0, 1] = rng.standard_normal(dim)  # members that cancel: a zero centroid
        reps[1, 1] = -reps[0, 1]
        reps[2:, 1] = 0.0
        sums = MemberSums()
        for member in reps:
            sums.add(reps=member)
        want = stacked_dispersion_repr(reps)
        assert want[0] == want[1] == 1.0
        np.testing.assert_allclose(dispersion_repr(sums), want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dispersion_repr(reps), want, rtol=0, atol=1e-12)
        for i in range(n):
            np.testing.assert_allclose(dispersion_repr(reps[:, i]), want[i], rtol=0, atol=1e-12)

    def test_rejects_one_member(self):
        sums = MemberSums()
        sums.add(reps=np.ones((3, 2)), probs=np.full((3, 2), 0.5))
        with pytest.raises(ValueError, match="need at least 2 representations"):
            dispersion_repr(sums)
        with pytest.raises(ValueError, match="need at least 2 predictions"):
            dispersion_prob(sums)


class TestPerClassDiagnostics:
    """`run_analyze`'s per-class report fields: the classifier's column
    norms and the mean point prediction of each class."""

    @pytest.fixture(scope="class")
    def tiny_model(self):
        cfg = tiny_config()
        ds = pl.build_datasets(cfg)
        pre, _ = pl.run_pretrain(cfg, ds)
        return cfg, ds, pre

    @staticmethod
    def report_with_classifier(tiny_model, w, b):
        cfg, ds, pre = tiny_model
        model = replace(pre, params=ModelParams(pre.params.layers, w, b))
        return pl.run_analyze(cfg, model, ds).report

    def test_equal_weight_rows_equal_norms(self, tiny_model):
        w = np.tile([[1.0], [2.0], [3.0], [4.0]], (1, 3))
        report = self.report_with_classifier(tiny_model, w, np.array([0.3, -0.1, 0.7]))
        np.testing.assert_allclose(report.per_class_weight_norm, np.linalg.norm(w[:, 0]))

    def test_uniform_predictions_uniform_marginal(self, tiny_model):
        # equal class columns and biases score every class alike
        w = np.tile([[1.0], [-2.0], [0.5], [3.0]], (1, 3))
        report = self.report_with_classifier(tiny_model, w, np.full(3, 0.5))
        np.testing.assert_allclose(report.per_class_marginal, 1.0 / 3, atol=1e-12)

    def test_marginal_sums_to_one(self, tiny_model):
        rng = np.random.default_rng(10)
        report = self.report_with_classifier(tiny_model, rng.standard_normal((4, 3)),
                                             rng.standard_normal(3))
        assert len(report.per_class_marginal) == 3
        assert abs(sum(report.per_class_marginal) - 1.0) < 1e-9


class TestReport:
    def test_json_schema_and_order(self):
        probs = np.eye(3)[[0, 1, 2, 0]]
        labels = np.array([0, 1, 2, 1])
        report = evaluate_probs(probs, labels, [MANY, MEDIUM, FEW])
        payload = report.to_json_dict()
        keys = list(payload)
        assert keys[:6] == ["acc_all", "acc_many", "acc_medium", "acc_few", "nll", "ece"]
        parsed = json.loads(json.dumps(payload, allow_nan=False))
        assert parsed["acc_all"] == 0.75

    def test_absent_split_omitted(self):
        probs = np.eye(2)[[0, 1]]
        report = evaluate_probs(probs, np.array([0, 1]), [MANY, MANY])
        payload = report.to_json_dict()
        assert "acc_medium" not in payload
        assert "acc_few" not in payload

    def test_csv_rows_scalars_only(self):
        probs = np.eye(2)[[0, 1]]
        report = evaluate_probs(probs, np.array([0, 1]), None)
        names = [name for name, _ in report.csv_rows()]
        assert names == ["acc_all", "nll", "ece"]
