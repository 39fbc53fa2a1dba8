"""Tests for the binary checkpoint format (base, posterior section, trailer)."""

import struct

import numpy as np
import pytest

from ltsrepr.checkpoint import (
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from ltsrepr.netcore import flatten_params, init_params
from ltsrepr.swag import freeze, new_posterior, update_moments


def make_params(seed=0):
    return init_params(np.random.default_rng(seed), 5, (6, 4), 3, 2)


def make_posterior(params, extra_seed=1):
    post = new_posterior(params)
    update_moments(post, params)
    update_moments(post, init_params(np.random.default_rng(extra_seed), 5, (6, 4), 3, 2))
    freeze(post)
    return post


class TestBaseSection:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_unrepresentable_value_rejected_before_writing(self, tmp_path, bad):
        params = make_params()
        params.w[1, 0] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="parameter array"):
            save_checkpoint(path, params)
        assert not path.exists()

    def test_unrepresentable_posterior_rejected(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        post.sigma[0] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="posterior covariance"):
            save_checkpoint(path, params, post)
        assert not path.exists()

    def test_roundtrip_quantizes_to_float32(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        loaded = load_checkpoint(path)
        assert loaded.posterior is None and loaded.metadata is None
        np.testing.assert_array_equal(
            flatten_params(loaded.params),
            flatten_params(params).astype("<f4").astype(np.float64),
        )
        assert len(loaded.params.layers) == 3
        assert loaded.params.w.shape == (3, 2)

    def test_raw_layout_magic_version_count(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        assert raw[:8] == b"SREPR001"
        version, count = struct.unpack("<II", raw[8:16])
        assert version == 1
        assert count == 8  # three extractor pairs + classifier pair

    def test_classifier_stored_last(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params)
        raw = path.read_bytes()
        offset = 16
        shapes = []
        for _ in range(8):
            rows, cols = struct.unpack_from("<II", raw, offset)
            shapes.append((rows, cols))
            offset += 8 + 4 * rows * cols
        assert shapes[-2] == (3, 2)  # classifier weight
        assert shapes[-1] == (1, 2)  # classifier bias as a row vector

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"BADMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        path.write_bytes(b"SREPR001" + struct.pack("<II", 9, 0))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestPosteriorSection:
    def test_roundtrip(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        path = tmp_path / "swa.ckpt"
        save_checkpoint(path, params, post)
        loaded = load_checkpoint(path)
        assert loaded.posterior is not None
        assert loaded.posterior.frozen
        assert loaded.posterior.count == 2
        assert loaded.posterior.theta_dim == post.theta_dim
        np.testing.assert_array_equal(
            loaded.posterior.mean, post.mean.astype("<f4").astype(np.float64)
        )
        np.testing.assert_array_equal(
            loaded.posterior.sigma, post.sigma.astype("<f4").astype(np.float64)
        )

    def test_section_magic_present(self, tmp_path):
        params = make_params()
        path = tmp_path / "swa.ckpt"
        save_checkpoint(path, params, make_posterior(params))
        assert b"SWAGDIAG" in path.read_bytes()

    def test_absent_when_not_given(self, tmp_path):
        path = tmp_path / "plain.ckpt"
        save_checkpoint(path, make_params())
        assert b"SWAGDIAG" not in path.read_bytes()

    def test_unfrozen_posterior_rejected(self, tmp_path):
        params = make_params()
        post = new_posterior(params)
        update_moments(post, params)
        update_moments(post, params)
        with pytest.raises(ValueError, match="frozen"):
            save_checkpoint(tmp_path / "x.ckpt", params, post)


class TestMetadataTrailer:
    def test_roundtrip(self, tmp_path):
        params = make_params()
        meta = {"stage": "retrain", "method": "crt", "seed": 3, "nested": {"a": [1, 2]}}
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, params, None, meta)
        loaded = load_checkpoint(path)
        assert loaded.metadata == meta

    def test_with_posterior_and_metadata(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        meta = {"stage": "pretrain", "swa": True}
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, params, post, meta)
        loaded = load_checkpoint(path)
        assert loaded.metadata == meta
        assert loaded.posterior is not None

    def test_save_is_byte_deterministic(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        meta = {"b": 1, "a": 2}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, params, post, meta)
        save_checkpoint(b, params, post, meta)
        assert a.read_bytes() == b.read_bytes()


def test_config_hash_stable():
    assert config_hash("abc") == config_hash("abc")
    assert config_hash("abc") != config_hash("abd")
    assert len(config_hash("xyz")) == 64
