"""Tests for moment tracking, the frozen diagonal posterior, and sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import float64_moments
from scipy import stats

from ltsrepr.netcore import ModelParams, features, init_params
from ltsrepr.swag import (
    SwaConfig,
    extractor_layers,
    freeze,
    member_features,
    new_posterior,
    sample_theta,
    should_capture,
    swa_learning_rate,
    swa_params,
    update_moments,
)


def scalarish_params(value: float) -> ModelParams:
    """One 1x1 extractor layer plus 1-class classifier; 4 parameters total."""
    return ModelParams(
        [(np.array([[value]]), np.array([value]))],
        np.array([[value]]),
        np.array([value]),
    )


def random_params(rng) -> ModelParams:
    return init_params(rng, 3, (4,), 3, 2)


def flat_theta(layers) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in layers for a in pair])


class TestMoments:
    def test_starts_at_zero(self):
        post = new_posterior(scalarish_params(0.0))
        assert post.count == 0
        assert np.all(post.mean == 0.0)
        assert np.all(post.sq_mean == 0.0)

    def test_first_capture_is_exact(self):
        rng = np.random.default_rng(0)
        params = random_params(rng)
        post = new_posterior(params)
        update_moments(post, params)
        np.testing.assert_array_equal(post.mean, params.flat)

    def test_scalar_hand_case(self):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(1.0))
        update_moments(post, scalarish_params(3.0))
        np.testing.assert_allclose(post.mean, 2.0, atol=1e-15)
        np.testing.assert_allclose(post.sq_mean, 5.0, atol=1e-15)  # (1 + 9) / 2
        freeze(post)
        np.testing.assert_allclose(post.sigma, 1.0, atol=1e-15)  # 5 - 4

    def test_mean_equals_arithmetic_mean_of_snapshots(self):
        rng = np.random.default_rng(1)
        params = random_params(rng)
        post = new_posterior(params)
        snaps = []
        for _ in range(20):
            p = random_params(rng)
            snaps.append(p.flat)
            update_moments(post, p)
        stacked = np.stack(snaps)
        np.testing.assert_allclose(post.mean, stacked.mean(axis=0), atol=1e-12)
        freeze(post)
        np.testing.assert_allclose(post.sigma, stacked.var(axis=0), atol=1e-10)

    def test_jensen_inequality_of_moments(self):
        rng = np.random.default_rng(2)
        params = random_params(rng)
        post = new_posterior(params)
        for _ in range(5):
            update_moments(post, random_params(rng))
            assert np.all(post.sq_mean >= post.mean**2 - 1e-9)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 12), st.integers(0, 2**16))
    def test_in_place_update_equals_allocating_formula(self, d, h, count, seed):
        rng = np.random.default_rng(seed)
        post = new_posterior(init_params(rng, d, (h,), 2, 2))
        mean, sq_mean = post.mean.copy(), post.sq_mean.copy()
        for n in range(count):
            snap = init_params(rng, d, (h,), 2, 2)
            snap.flat[:] *= 10.0 ** rng.uniform(-3.0, 3.0, size=snap.flat.size)
            update_moments(post, snap)
            flat = snap.flat
            mean = (n * mean + flat) / (n + 1)
            sq_mean = (n * sq_mean + flat * flat) / (n + 1)
            assert post.mean.tobytes() == mean.tobytes()
            assert post.sq_mean.tobytes() == sq_mean.tobytes()
        assert post.count == count

    def test_float32_snapshots_fold_into_float64_moments(self):
        # stage 1 captures float32 parameters; the moments stay float64 and
        # square each snapshot in float64, so m2 - m^2 keeps its precision
        rng = np.random.default_rng(7)
        post = new_posterior(random_params(rng))
        snaps = []
        for _ in range(6):
            p = random_params(rng)
            snap = p.like((p.flat * 10.0 ** rng.uniform(-3.0, 3.0, p.flat.size)).astype(np.float32))
            update_moments(post, snap)
            snaps.append(snap.flat.copy())
        mean, sq_mean = float64_moments(snaps)
        assert post.mean.dtype == post.sq_mean.dtype == np.float64
        assert post.mean.tobytes() == mean.tobytes()
        assert post.sq_mean.tobytes() == sq_mean.tobytes()
        # squaring in float32 rounds these snapshots, so the oracle tells the two apart
        assert not np.array_equal((snaps[0] * snaps[0]).astype(np.float64),
                                  np.square(snaps[0], dtype=np.float64))

    def test_layout_derived_from_shapes(self):
        # one hidden layer and none: the posterior keeps only the shapes
        for params in (random_params(np.random.default_rng(8)), scalarish_params(0.0)):
            post = new_posterior(params)
            assert post.shapes == params.shapes
            assert post.theta_dim == params.theta_dim
            assert post.repr_dim == params.repr_dim
            assert not post.frozen
            update_moments(post, params)
            update_moments(post, params)
            assert freeze(post).frozen
            assert swa_params(post).shapes == params.shapes

    def test_update_after_freeze_rejected(self):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(1.0))
        update_moments(post, scalarish_params(2.0))
        freeze(post)
        with pytest.raises(ValueError, match="frozen"):
            update_moments(post, scalarish_params(3.0))


class TestFreeze:
    def test_needs_two_captures(self):
        post = new_posterior(scalarish_params(0.0))
        with pytest.raises(ValueError):
            freeze(post)
        update_moments(post, scalarish_params(1.0))
        with pytest.raises(ValueError):
            freeze(post)

    def test_identical_captures_zero_variance(self):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(2.5))
        update_moments(post, scalarish_params(2.5))
        freeze(post)
        np.testing.assert_array_equal(post.sigma, np.zeros(4))

    def test_negative_rounding_residue_clamped(self):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(1.0))
        update_moments(post, scalarish_params(1.0))
        post.sq_mean = post.mean**2 - 1e-15  # simulate cancellation residue
        freeze(post)
        assert np.all(post.sigma == 0.0)


class TestSampling:
    def make_frozen(self, mean_value=2.0, var_value=1.0):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(0.0))
        update_moments(post, scalarish_params(0.0))
        freeze(post)
        post.mean = np.full(4, mean_value)
        post.sigma = np.full(4, var_value)
        return post

    def test_zero_variance_returns_mean(self):
        post = self.make_frozen(var_value=0.0)
        theta = sample_theta(post, np.random.default_rng(0))
        np.testing.assert_array_equal(theta[0][0], [[2.0]])
        np.testing.assert_array_equal(theta[0][1], [2.0])

    def test_unfrozen_rejected(self):
        post = new_posterior(scalarish_params(0.0))
        update_moments(post, scalarish_params(1.0))
        with pytest.raises(ValueError, match="frozen"):
            sample_theta(post, np.random.default_rng(0))

    def test_same_seed_same_sample(self):
        post = self.make_frozen()
        a = sample_theta(post, np.random.default_rng(42))
        b = sample_theta(post, np.random.default_rng(42))
        np.testing.assert_array_equal(a[0][0], b[0][0])

    def test_sampling_moments(self):
        # scalar posterior mean 2, variance 1: empirical moments over 1e5 draws
        post = self.make_frozen(mean_value=2.0, var_value=1.0)
        rng = np.random.default_rng(3)
        draws = np.array([sample_theta(post, rng)[0][1][0] for _ in range(100_000)])
        assert abs(draws.mean() - 2.0) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_classifier_entries_not_sampled(self):
        # variance only on the classifier suffix: extractor samples are exact
        post = self.make_frozen(var_value=0.0)
        post.sigma = np.array([0.0, 0.0, 5.0, 5.0])  # theta_dim == 2
        theta = sample_theta(post, np.random.default_rng(4))
        np.testing.assert_array_equal(theta[0][0], [[2.0]])
        np.testing.assert_array_equal(theta[0][1], [2.0])

    def make_random_frozen(self, seed=5):
        rng_build = np.random.default_rng(seed)
        post = new_posterior(random_params(rng_build))
        for _ in range(4):
            update_moments(post, random_params(rng_build))
        return freeze(post)

    def test_out_buffer_draw_is_bitwise_a_fresh_draw(self):
        post = self.make_random_frozen()
        rng_fresh, rng_out = np.random.default_rng(11), np.random.default_rng(11)
        fresh = sample_theta(post, rng_fresh)
        buf = np.empty(post.theta_dim)
        into = sample_theta(post, rng_out, out=buf)
        for (w0, b0), (w1, b1) in zip(fresh, into):
            assert w0.tobytes() == w1.tobytes() and b0.tobytes() == b1.tobytes()
            assert np.shares_memory(w1, buf) and np.shares_memory(b1, buf)
        assert rng_out.bit_generator.state == rng_fresh.bit_generator.state

    def test_draw_matches_mean_plus_scaled_noise_reference(self):
        # mean + sqrt(sigma) * eps on a full copy of the mean, drawn inline
        post = self.make_random_frozen(seed=6)
        td = post.theta_dim
        ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
        for _ in range(3):
            flat = post.mean.copy()
            flat[:td] += np.sqrt(post.sigma[:td]) * ref_rng.standard_normal(td)
            assert flat_theta(sample_theta(post, rng)).tobytes() == flat[:td].tobytes()

    def test_block_fill_matches_single_draws(self):
        # M draws into the rows of an (M, theta_dim) block, in row order, are
        # one C-order block of normals scaled and shifted inline
        post = self.make_random_frozen(seed=7)
        td = post.theta_dim
        rng_rows, rng_block = np.random.default_rng(13), np.random.default_rng(13)
        rows = np.empty((5, td))
        for row in rows:
            sample_theta(post, rng_rows, row)
        block = post.mean[:td] + np.sqrt(post.sigma[:td]) * rng_block.standard_normal((5, td))
        assert rows.tobytes() == block.tobytes()
        assert rng_rows.bit_generator.state == rng_block.bit_generator.state

    def test_replaced_sigma_is_used(self):
        post = self.make_frozen(var_value=0.0)
        sample_theta(post, np.random.default_rng(0))
        post.sigma = np.full(4, 4.0)
        theta = sample_theta(post, np.random.default_rng(0))
        assert theta[0][0][0, 0] == 2.0 + 2.0 * np.random.default_rng(0).standard_normal()

    def test_standardized_samples_pass_ks(self):
        rng_build = np.random.default_rng(5)
        params = random_params(rng_build)
        post = new_posterior(params)
        for _ in range(12):
            update_moments(post, random_params(rng_build))
        freeze(post)
        post.sigma = np.maximum(post.sigma, 1e-4)
        rng = np.random.default_rng(6)
        td = post.theta_dim
        assert td >= 10
        flats = []
        for _ in range(10_000 // td + 1):
            flats.append(flat_theta(sample_theta(post, rng)))
        samples = np.stack(flats)  # (draws, td)
        z = (samples - post.mean[:td]) / np.sqrt(post.sigma[:td])
        result = stats.kstest(z.ravel()[:10_000], "norm")
        assert result.pvalue > 0.001


    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(1, 9),
           st.integers(1, 10), st.integers(1, 12), st.sampled_from(["relu", "tanh"]),
           st.integers(0, 2**16))
    def test_member_features_equals_member_loop(self, widths, d, members, batch, activation,
                                                seed):
        rng = np.random.default_rng(seed)
        params = init_params(rng, d, tuple(widths[:-1]), widths[-1], 2)
        post = new_posterior(params)
        for _ in range(3):
            update_moments(post, init_params(rng, d, tuple(widths[:-1]), widths[-1], 2))
        freeze(post)
        x = rng.standard_normal((batch, d))
        loop_rng = np.random.default_rng(seed + 1)
        want = np.stack([features(sample_theta(post, loop_rng), x, activation)
                         for _ in range(members)])
        # eval and analyze: each member drawn lazily into one reused
        # parameter buffer, forwarded into one reused (N, L) buffer and
        # used before the next is drawn
        stream_rng = np.random.default_rng(seed + 1)
        buf, rep = np.empty(post.theta_dim), np.empty((batch, widths[-1]))
        lazy = (sample_theta(post, stream_rng, buf) for _ in range(members))
        got = [r.tobytes() for r in member_features(lazy, x, rep, activation)]
        assert got == [w.tobytes() for w in want]
        assert stream_rng.bit_generator.state == loop_rng.bit_generator.state
        # an (M, N, L) out: a slice per member, as `stochastic_representations`
        # fills it
        table_rng = np.random.default_rng(seed + 1)
        lazy = (sample_theta(post, table_rng, buf) for _ in range(members))
        out = np.empty((members, batch, widths[-1]))
        slices = list(member_features(lazy, x, out, activation))
        assert len(slices) == members and all(s.base is out for s in slices)
        assert out.tobytes() == want.tobytes()
        assert table_rng.bit_generator.state == loop_rng.bit_generator.state
        # srepr's members: drawn up front into the rows of one block, then
        # run through the same member loop
        eager_rng = np.random.default_rng(seed + 1)
        block = np.empty((members, post.theta_dim))
        eager = [sample_theta(post, eager_rng, row) for row in block]
        out = np.empty((members, batch, widths[-1]))
        assert len(list(member_features(eager, x, out, activation))) == members
        assert out.tobytes() == want.tobytes()
        assert eager_rng.bit_generator.state == loop_rng.bit_generator.state

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3), st.integers(1, 9),
           st.integers(1, 6), st.integers(1, 12), st.sampled_from(["relu", "tanh"]),
           st.integers(0, 2**16))
    def test_float32_out_runs_every_layer_in_float32(self, widths, d, members, batch,
                                                     activation, seed):
        # srepr's table: members over a float32 copy of the block and a
        # float32 out give `features` over float32 layers, bit for bit, so
        # the hidden buffers are float32 too
        rng = np.random.default_rng(seed)
        params = init_params(rng, d, tuple(widths[:-1]), widths[-1], 2)
        post = new_posterior(params)
        for _ in range(3):
            update_moments(post, init_params(rng, d, tuple(widths[:-1]), widths[-1], 2))
        freeze(post)
        x = rng.standard_normal((batch, d)).astype(np.float32)
        block = np.empty((members, post.theta_dim))
        for row in block:
            sample_theta(post, rng, row)
        block32 = block.astype(np.float32)
        want = np.stack([features([(w.astype(np.float32), b.astype(np.float32))
                                   for w, b in extractor_layers(post, row)], x, activation)
                         for row in block])
        out = np.empty((members, batch, widths[-1]), dtype=np.float32)
        for _ in member_features([extractor_layers(post, row) for row in block32], x, out,
                                 activation):
            pass
        assert want.dtype == np.float32
        assert out.tobytes() == want.tobytes()


class TestSwaPoint:
    def test_swa_params_unflattens_mean(self):
        rng = np.random.default_rng(7)
        a, b = random_params(rng), random_params(rng)
        post = new_posterior(a)
        update_moments(post, a)
        update_moments(post, b)
        avg = swa_params(post)
        np.testing.assert_allclose(
            avg.flat, (a.flat + b.flat) / 2, atol=1e-12
        )

    def test_requires_a_capture(self):
        post = new_posterior(scalarish_params(0.0))
        with pytest.raises(ValueError):
            swa_params(post)


class TestSchedule:
    def test_capture_gate(self):
        # 1200 steps, 20 per epoch, averaging starts past 75%
        swa = SwaConfig(start_frac=0.75, swa_lr=0.1)
        assert not should_capture(600, 1200, swa, 20)  # halfway
        assert not should_capture(900, 1200, swa, 20)  # boundary is exclusive
        assert should_capture(920, 1200, swa, 20)  # first epoch end past 75%
        assert not should_capture(965, 1200, swa, 20)  # mid-epoch at ~80%
        assert should_capture(1200, 1200, swa, 20)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            should_capture(101, 100, SwaConfig(start_frac=0.75, swa_lr=0.1), 10)

    def test_constant_rate_during_averaging_phase(self):
        swa = SwaConfig(start_frac=0.75, swa_lr=0.07)
        lrs = [swa_learning_rate(t, 100, 0.4, swa) for t in range(100)]
        assert all(lr == 0.07 for lr in lrs[75:])
        assert lrs[0] == pytest.approx(0.4)
        assert lrs[50] == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError, match="swa.start_frac"):
            SwaConfig(start_frac=1.0).validate()
        with pytest.raises(ValueError, match="swa.swa_lr"):
            SwaConfig(swa_lr=0.0).validate()
        for samples in (0, 1):  # a dispersion needs two members
            with pytest.raises(ValueError, match=f"swa.swag_samples must be >= 2, got {samples}"):
                SwaConfig(swag_samples=samples).validate()
        # the averaging schedule is not checked when averaging is off
        SwaConfig(enabled=False, start_frac=1.0, swa_lr=0.0).validate()

