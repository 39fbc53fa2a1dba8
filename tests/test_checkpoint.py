"""Tests for the binary checkpoint format (base, posterior section, trailer)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltsrepr.checkpoint import (
    Checkpoint,
    config_hash,
    load_checkpoint,
    save_checkpoint,
)
from ltsrepr.netcore import init_params
from ltsrepr.retrain import DisAlignParams
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
            save_checkpoint(path, Checkpoint(params))
        assert not path.exists()

    def test_unrepresentable_posterior_rejected(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        post.sigma[0] = np.nan
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="posterior covariance"):
            save_checkpoint(path, Checkpoint(params, post))
        assert not path.exists()

    def test_negative_covariance_rejected_before_writing(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        post.sigma[-1] = -1e-3  # the classifier bias, array 7
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="^posterior covariance array 7 values are negative$"):
            save_checkpoint(path, Checkpoint(params, post))
        assert not path.exists()
        with pytest.raises(ValueError, match="^posterior covariance array 7 values are negative$"):
            Checkpoint(params, post).rounded()
        # a negative mean is a valid posterior
        post.sigma[-1] = 0.0
        post.mean[-1] = -1.0
        save_checkpoint(path, Checkpoint(params, post))
        assert load_checkpoint(path).posterior.mean[-1] == -1.0

    @pytest.mark.parametrize("group", ["parameter", "posterior mean", "posterior covariance"])
    def test_rounded_rejects_unrepresentable_value(self, group):
        # the in-memory twin of the writer's check, naming the same array
        params = make_params()
        post = make_posterior(params)
        flat = {"parameter": params.flat, "posterior mean": post.mean,
                "posterior covariance": post.sigma}[group]
        flat[-1] = 1e39  # the classifier bias, array 7
        with pytest.raises(ValueError, match=f"^{group} array 7 values are non-finite or beyond"):
            Checkpoint(params, post).rounded()

    def test_roundtrip_quantizes_to_float32(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(params))
        loaded = load_checkpoint(path)
        assert loaded.posterior is None and loaded.metadata is None
        np.testing.assert_array_equal(
            loaded.params.flat,
            params.flat.astype("<f4").astype(np.float64),
        )
        assert len(loaded.params.layers) == 3
        assert loaded.params.w.shape == (3, 2)

    def test_raw_layout_magic_version_count(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(params))
        raw = path.read_bytes()
        assert raw[:8] == b"SREPR001"
        version, count = struct.unpack("<II", raw[8:16])
        assert version == 1
        assert count == 8  # three extractor pairs + classifier pair

    def test_classifier_stored_last(self, tmp_path):
        params = make_params()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(params))
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
        save_checkpoint(path, Checkpoint(params, post))
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
        save_checkpoint(path, Checkpoint(params, make_posterior(params)))
        assert b"SWAGDIAG" in path.read_bytes()

    def test_absent_when_not_given(self, tmp_path):
        path = tmp_path / "plain.ckpt"
        save_checkpoint(path, Checkpoint(make_params()))
        assert b"SWAGDIAG" not in path.read_bytes()

    def test_unfrozen_posterior_rejected(self, tmp_path):
        params = make_params()
        post = new_posterior(params)
        update_moments(post, params)
        update_moments(post, params)
        with pytest.raises(ValueError, match="frozen"):
            save_checkpoint(tmp_path / "x.ckpt", Checkpoint(params, post))


class TestMetadataTrailer:
    def test_roundtrip(self, tmp_path):
        params = make_params()
        meta = {"stage": "retrain", "method": "crt", "seed": 3, "nested": {"a": [1, 2]}}
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, Checkpoint(params, metadata=meta))
        loaded = load_checkpoint(path)
        assert loaded.metadata == meta

    def test_with_posterior_and_metadata(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        meta = {"stage": "pretrain", "swa": True}
        path = tmp_path / "full.ckpt"
        save_checkpoint(path, Checkpoint(params, post, meta))
        loaded = load_checkpoint(path)
        assert loaded.metadata == meta
        assert loaded.posterior is not None

    def test_save_is_byte_deterministic(self, tmp_path):
        params = make_params()
        post = make_posterior(params)
        meta = {"b": 1, "a": 2}
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, Checkpoint(params, post, meta))
        save_checkpoint(b, Checkpoint(params, post, meta))
        assert a.read_bytes() == b.read_bytes()


def encode(directory, params, posterior=None, metadata=None) -> bytes:
    path = directory / "encoded.ckpt"
    save_checkpoint(path, Checkpoint(params, posterior, metadata))
    return path.read_bytes()


def decode(directory, blob: bytes):
    path = directory / "decoded.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(path)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged")


class TestDamagedFiles:
    def full_checkpoint(self, directory):
        params = make_params()
        return encode(directory, params, make_posterior(params), {"stage": "pretrain"})

    def test_truncated_magic_named(self, scratch):
        with pytest.raises(ValueError, match="truncated checkpoint: magic needs 8 bytes"):
            decode(scratch, b"SREP")

    def test_truncated_base_array_named(self, scratch):
        with pytest.raises(ValueError, match="truncated checkpoint: base array 1 needs 24 bytes"):
            decode(scratch, self.full_checkpoint(scratch)[:160])

    def test_truncated_posterior_named(self, scratch):
        base_len = len(encode(scratch, make_params()))
        with pytest.raises(ValueError, match="posterior mean array 0"):
            decode(scratch, self.full_checkpoint(scratch)[: base_len + 20])

    def test_truncated_trailer_named(self, scratch):
        with pytest.raises(ValueError, match="metadata trailer needs"):
            decode(scratch, self.full_checkpoint(scratch)[:-1])

    def test_trailing_bytes_rejected(self, scratch):
        with pytest.raises(ValueError, match="7 unexpected bytes after the metadata trailer"):
            decode(scratch, self.full_checkpoint(scratch) + b"garbage")

    def test_trailer_not_json_named(self, scratch):
        blob = encode(scratch, make_params()) + struct.pack("<I", 3) + b"{x}"
        with pytest.raises(ValueError, match="metadata trailer is not valid JSON"):
            decode(scratch, blob)

    @staticmethod
    def payload_offsets(blob) -> dict:
        """The offset of each array's first payload value in a full
        checkpoint, keyed as the reader names the array."""
        offset, payloads = 16, {}
        for name in ("base", "posterior mean", "posterior second moment", "posterior covariance"):
            for i in range(8):
                rows, cols = struct.unpack_from("<II", blob, offset)
                payloads[f"{name} array {i}"] = offset + 8
                offset += 8 + 4 * rows * cols
            if name == "base":
                offset += 12  # posterior magic and capture count
        return payloads

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("group", ["base", "posterior mean", "posterior second moment",
                                       "posterior covariance"])
    def test_non_finite_payload_named(self, scratch, group, bad):
        blob = bytearray(self.full_checkpoint(scratch))
        start = self.payload_offsets(blob)[f"{group} array 2"] + 4  # its second value
        blob[start:start + 4] = np.float32(bad).tobytes()
        with pytest.raises(ValueError, match=f"^{group} array 2 values are non-finite"):
            decode(scratch, bytes(blob))

    def test_negative_covariance_named(self, scratch):
        # a negative value is a valid mean, but a posterior draw takes the
        # covariance's square root
        blob = bytearray(self.full_checkpoint(scratch))
        assert (decode(scratch, bytes(blob)).posterior.mean < 0).any()
        start = self.payload_offsets(blob)["posterior covariance array 0"]
        blob[start:start + 4] = np.float32(-1.0).tobytes()
        with pytest.raises(ValueError, match="^posterior covariance array 0 values are negative$"):
            decode(scratch, bytes(blob))

    def test_posterior_shape_mismatch_named(self, scratch):
        params = make_params()
        other = init_params(np.random.default_rng(0), 5, (6, 4), 3, 3)
        swag = encode(scratch, params, make_posterior(params))[len(encode(scratch, params)):]
        with pytest.raises(ValueError, match="posterior mean array .* shape"):
            decode(scratch, encode(scratch, other) + swag)


@st.composite
def checkpoint_contents(draw):
    """(params, posterior or None, metadata or None) of a random checkpoint."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    hidden = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    shape = (draw(st.integers(1, 4)), hidden, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    params = init_params(rng, *shape)
    posterior = None
    if draw(st.booleans()):
        posterior = new_posterior(params)
        update_moments(posterior, params)
        update_moments(posterior, init_params(rng, *shape))
        freeze(posterior)
    metadata = draw(st.none() | st.dictionaries(
        st.text(max_size=4), st.integers() | st.text(max_size=6) | st.booleans(), max_size=3
    ))
    return params, posterior, metadata


class TestDamageProperties:
    """A file format without an end marker cannot tell a file cut exactly at
    a section boundary from a shorter valid file, so the prefix property
    holds everywhere but there: such a prefix must be, byte for byte, the
    checkpoint without its later sections."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(checkpoint_contents(), st.data())
    def test_every_strict_prefix_rejected(self, scratch, contents, data):
        params, posterior, metadata = contents
        blob = encode(scratch, params, posterior, metadata)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        shorter = [encode(scratch, params)]
        if posterior is not None:
            shorter.append(encode(scratch, params, posterior))
        shorter = {len(b): b for b in shorter}
        near_boundaries = {n + d for n in shorter for d in (-1, 0, 1)}
        for n in sorted({cut} | near_boundaries & set(range(len(blob)))):
            if n in shorter:
                assert blob[:n] == shorter[n]
                decode(scratch, blob[:n])
            else:
                with pytest.raises(ValueError):
                    decode(scratch, blob[:n])

    @settings(max_examples=60, deadline=None, database=None)
    @given(checkpoint_contents(), st.binary(min_size=1, max_size=64))
    def test_any_suffix_after_trailer_rejected(self, scratch, contents, suffix):
        params, posterior, metadata = contents
        # without a trailer, appended bytes could form a well-formed one
        blob = encode(scratch, params, posterior, {} if metadata is None else metadata)
        with pytest.raises(ValueError):
            decode(scratch, blob + suffix)

    @settings(max_examples=30, deadline=None, database=None)
    @given(checkpoint_contents())
    def test_valid_checkpoint_roundtrips(self, scratch, contents):
        params, posterior, metadata = contents
        blob = encode(scratch, params, posterior, metadata)
        loaded = decode(scratch, blob)
        assert encode(scratch, loaded.params, loaded.posterior, loaded.metadata) == blob
        assert (loaded.posterior is None) == (posterior is None)
        assert loaded.metadata == metadata


def calibration():
    """A disalign calibration for `make_params`' two classes whose values
    need every bit of a float64."""
    return DisAlignParams(np.array([0.1, 1 / 3]), np.array([-2.0, 1e-300]),
                          np.array([np.pi, -0.0]), 1 / 7)


class TestCalibration:
    def test_roundtrip_is_exact(self, tmp_path):
        cal = calibration()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(make_params(), metadata={"disalign": cal.to_dict()}))
        got = load_checkpoint(path).calibration()
        for name in ("scale", "shift", "gate_w"):
            assert getattr(got, name).tobytes() == getattr(cal, name).tobytes()
        assert got.gate_b == cal.gate_b

    def test_absent_is_none(self):
        assert Checkpoint(make_params()).calibration() is None
        assert Checkpoint(make_params(), metadata={"method": "crt"}).calibration() is None

    @pytest.mark.parametrize("field, value, message", [
        ("scale", [1.0, 2.0, 3.0], "disalign.scale has 3 entries, model has 2 classes"),
        ("shift", [[0.0, 0.0]], r"disalign.shift has shape \(1, 2\), model has 2 classes"),
        ("gate_w", [0.0, float("nan")], "disalign.gate_w is not finite"),
        ("gate_w", ["a", 0.0], "disalign.gate_w is not numeric"),
        ("scale", [1.0, [2.0]], "disalign.scale is not numeric"),
        ("gate_b", [0.5], "disalign.gate_b has 1 entries, expected one number"),
        ("gate_b", True, "disalign.gate_b is not numeric"),
        ("gate_b", None, "disalign.gate_b is not numeric"),
        ("gate_b", float("inf"), "disalign.gate_b is not finite"),
        ("gate_b", ..., "disalign.gate_b is missing"),
    ])
    def test_malformed_field_named(self, field, value, message):
        entry = calibration().to_dict()
        if value is ...:
            del entry[field]
        else:
            entry[field] = value
        with pytest.raises(ValueError, match=f"^checkpoint metadata {message}"):
            Checkpoint(make_params(), metadata={"disalign": entry}).calibration()

    def test_malformed_calibration_rejected_at_load(self, tmp_path):
        entry = calibration().to_dict()
        entry["scale"] = entry["scale"][:1]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Checkpoint(make_params(), metadata={"disalign": entry}))
        with pytest.raises(ValueError, match="disalign.scale has 1 entries, model has 2 classes"):
            load_checkpoint(path)


def test_config_hash_stable():
    assert config_hash("abc") == config_hash("abc")
    assert config_hash("abc") != config_hash("abd")
    assert len(config_hash("xyz")) == 64
