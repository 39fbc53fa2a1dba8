"""Tests for synthetic long-tailed data generation and sampling."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ltsrepr.data import (
    FEW,
    MANY,
    MEDIUM,
    DatasetConfig,
    LongTailDataset,
    _class_means,
    assign_splits,
    class_balanced_indices,
    instance_balanced_indices,
    load_dataset_pair,
    longtail_class_counts,
    make_longtail_dataset,
    mixup_batch,
    save_dataset_pair,
    steps_per_epoch,
    write_dataset_record,
)


class TestClassCounts:
    def test_two_class_extreme(self):
        assert longtail_class_counts(2, 100, 0.01).tolist() == [100, 1]

    def test_ten_class_schedule(self):
        # independent oracle: evaluate round-half-up(500 * 0.01^(k/9)) directly
        expected = [math.floor(500 * 0.01 ** (k / 9) + 0.5) for k in range(10)]
        assert expected == [500, 300, 180, 108, 65, 39, 23, 14, 8, 5]
        assert longtail_class_counts(10, 500, 0.01).tolist() == expected

    def test_no_decay(self):
        for k in (2, 5, 17):
            assert longtail_class_counts(k, 42, 1.0).tolist() == [42] * k

    def test_non_increasing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 40))
            n_max = int(rng.integers(1, 2000))
            gamma = float(rng.uniform(0.001, 1.0))
            counts = longtail_class_counts(k, n_max, gamma)
            assert np.all(np.diff(counts) <= 0)
            assert np.all(counts >= 1)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            longtail_class_counts(1, 100, 0.5)
        with pytest.raises(ValueError):
            longtail_class_counts(5, 100, 0.0)
        with pytest.raises(ValueError):
            longtail_class_counts(5, 100, 1.5)


class TestSplits:
    @pytest.mark.parametrize(
        "count,tag",
        [(150, MANY), (101, MANY), (100, MEDIUM), (20, MEDIUM), (19, FEW), (1, FEW)],
    )
    def test_thresholds(self, count, tag):
        assert assign_splits([count]) == [tag]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            assign_splits([5, 0])


class TestGeneration:
    def test_invariants(self):
        cfg = DatasetConfig()
        train, test = make_longtail_dataset(cfg, 3)
        assert train.class_counts.sum() == train.num_examples
        assert abs(train.frequencies.sum() - 1.0) < 1e-12
        np.testing.assert_array_equal(
            train.class_counts, np.bincount(train.labels, minlength=cfg.num_classes)
        )
        assert np.all(train.class_counts >= 1)
        assert test.num_examples == cfg.num_classes * cfg.test_per_class

    def test_default_benchmark_populates_all_splits(self):
        train, _ = make_longtail_dataset(DatasetConfig(), 0)
        assert {MANY, MEDIUM, FEW} == set(train.splits)

    def test_test_split_inherits_train_tags(self):
        train, test = make_longtail_dataset(DatasetConfig(), 1)
        assert test.splits == train.splits
        # the balanced test counts would tag everything identically otherwise
        assert len(set(assign_splits(test.class_counts))) == 1

    def test_deterministic(self):
        a_train, a_test = make_longtail_dataset(DatasetConfig(), 11)
        b_train, b_test = make_longtail_dataset(DatasetConfig(), 11)
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)
        c_train, _ = make_longtail_dataset(DatasetConfig(), 12)
        assert not np.array_equal(a_train.features, c_train.features)

    def test_class_mean_separation(self):
        rng = np.random.default_rng(0)
        for k, d in [(10, 20), (2, 2), (8, 5)]:  # includes K > D
            means = _class_means(rng, k, d, separation=3.0)
            diffs = means[:, None, :] - means[None, :, :]
            dists = np.linalg.norm(diffs, axis=-1)
            off_diag = dists[~np.eye(k, dtype=bool)]
            assert off_diag.min() >= 3.0 - 1e-9

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            make_longtail_dataset(DatasetConfig(num_classes=1), 0)
        with pytest.raises(ValueError):
            make_longtail_dataset(DatasetConfig(imbalance_factor=0.0), 0)
        with pytest.raises(ValueError):
            make_longtail_dataset(DatasetConfig(imbalance_factor=1.0001), 0)


def toy_dataset(counts, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(counts)), counts)
    features = rng.standard_normal((labels.size, dim))
    return LongTailDataset.from_arrays(features, labels, len(counts))


class TestInstanceBalancedSampling:
    def test_uniform_over_examples(self):
        ds = toy_dataset([1, 1, 1, 1])
        rng = np.random.default_rng(5)
        n = 100_000
        idx = instance_balanced_indices(ds, n, rng)
        freq = np.bincount(idx, minlength=4) / n
        se = math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) < 3 * se)

    def test_class_probability_proportional_to_count(self):
        ds = toy_dataset([3, 1])
        rng = np.random.default_rng(6)
        n = 100_000
        idx = instance_balanced_indices(ds, n, rng)
        p_class0 = (ds.labels[idx] == 0).mean()
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(p_class0 - 0.75) < 3 * se

    def test_rejects_bad_batch(self):
        ds = toy_dataset([2, 2])
        with pytest.raises(ValueError):
            instance_balanced_indices(ds, 0, np.random.default_rng(0))

    def test_rejects_empty_dataset(self):
        empty = LongTailDataset(
            features=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=np.int64),
            class_counts=np.zeros(0, dtype=np.int64),
            frequencies=np.zeros(0),
            splits=[],
        )
        with pytest.raises(ValueError, match="empty"):
            instance_balanced_indices(empty, 4, np.random.default_rng(0))


class TestClassBalancedSampling:
    def test_class_marginal_uniform(self):
        ds = toy_dataset([3, 1])
        rng = np.random.default_rng(7)
        n = 100_000
        idx = class_balanced_indices(ds, n, rng)
        p_class0 = (ds.labels[idx] == 0).mean()
        se = math.sqrt(0.5 * 0.5 / n)
        assert abs(p_class0 - 0.5) < 3 * se

    def test_specific_instance_probability(self):
        # class 0 has 3 members; each should appear with probability 1/(2*3)
        ds = toy_dataset([3, 1])
        rng = np.random.default_rng(8)
        n = 120_000
        idx = class_balanced_indices(ds, n, rng)
        member = np.flatnonzero(ds.labels == 0)[0]
        p = (idx == member).mean()
        se = math.sqrt((1 / 6) * (5 / 6) / n)
        assert abs(p - 1 / 6) < 3 * se

    def test_chi_square_uniformity(self):
        ds = toy_dataset([200, 90, 40, 10, 2])
        rng = np.random.default_rng(9)
        n = 100_000
        labels = ds.labels[class_balanced_indices(ds, n, rng)]
        observed = np.bincount(labels, minlength=5)
        result = stats.chisquare(observed)
        assert result.pvalue > 0.001

    def test_within_class_uniform(self):
        ds = toy_dataset([4, 1])
        rng = np.random.default_rng(10)
        n = 100_000
        idx = class_balanced_indices(ds, n, rng)
        members = np.flatnonzero(ds.labels == 0)
        counts = np.array([(idx == m).sum() for m in members])
        freq = counts / counts.sum()
        se = math.sqrt(0.25 * 0.75 / counts.sum())
        assert np.all(np.abs(freq - 0.25) < 4 * se)


class TestMixup:
    def test_lambda_one_is_identity(self):
        ds = toy_dataset([3, 3])
        rng = np.random.default_rng(0)
        x, t = mixup_batch(ds.features, ds.labels, 0.2, 2, rng, lam=1.0)
        np.testing.assert_array_equal(x, ds.features)
        np.testing.assert_array_equal(t, np.eye(2)[ds.labels])

    def test_lambda_zero_is_permutation(self):
        ds = toy_dataset([4, 4])
        rng = np.random.default_rng(1)
        x, _ = mixup_batch(ds.features, ds.labels, 0.2, 2, rng, lam=0.0)
        orig_rows = {tuple(row) for row in ds.features}
        assert {tuple(row) for row in x} == orig_rows

    def test_midpoint(self):
        x = np.array([[0.0, 0.0], [2.0, 4.0]])
        y = np.array([0, 1])
        rng = np.random.default_rng(2)
        for _ in range(20):  # some permutation will swap the pair
            mixed, _ = mixup_batch(x, y, 1.0, 2, rng, lam=0.5)
            if not np.allclose(mixed[0], x[0]):
                np.testing.assert_allclose(mixed[0], [1.0, 2.0])
                return
        pytest.fail("permutation never paired the two rows")

    def test_targets_on_simplex(self):
        ds = toy_dataset([10, 5, 3])
        rng = np.random.default_rng(3)
        _, t = mixup_batch(ds.features, ds.labels, 0.4, 3, rng)
        np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(t >= 0)

    def test_rejects_bad_args(self):
        ds = toy_dataset([2, 2])
        with pytest.raises(ValueError):
            mixup_batch(ds.features, ds.labels, 0.0, 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            mixup_batch(ds.features[:1], ds.labels[:1], 1.0, 2, np.random.default_rng(0))


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path):
        train, test = make_longtail_dataset(DatasetConfig(), 2)
        path = tmp_path / "cache.bin"
        save_dataset_pair(path, train, test)
        loaded, _ = load_dataset_pair(path)
        np.testing.assert_array_equal(loaded.labels, train.labels)
        # payload is float32; loading quantizes accordingly
        np.testing.assert_array_equal(
            loaded.features, train.features.astype("<f4").astype(np.float64)
        )
        np.testing.assert_array_equal(loaded.class_counts, train.class_counts)
        assert loaded.splits == train.splits

    def test_header_layout(self, tmp_path):
        ds = toy_dataset([2, 1], dim=3)
        buf = io.BytesIO()
        write_dataset_record(buf, ds)
        raw = buf.getvalue()
        assert raw[:8] == b"LTDATA01"
        n, k, d = np.frombuffer(raw[8:20], dtype="<u4")
        assert (n, k, d) == (3, 2, 3)
        assert len(raw) == 8 + 12 + 4 * n * d + 4 * n

    def test_pair_roundtrip(self, tmp_path):
        train, test = make_longtail_dataset(DatasetConfig(), 4)
        path = tmp_path / "cache.bin"
        save_dataset_pair(path, train, test)
        t2, s2 = load_dataset_pair(path)
        np.testing.assert_array_equal(t2.labels, train.labels)
        np.testing.assert_array_equal(s2.labels, test.labels)
        assert s2.splits == train.splits

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_dataset_pair(path)


def record(dataset: LongTailDataset) -> bytes:
    buf = io.BytesIO()
    write_dataset_record(buf, dataset)
    return buf.getvalue()


def encode_pair(train: LongTailDataset, test: LongTailDataset) -> bytes:
    return record(train) + record(test)


def decode_pair(directory, blob: bytes):
    path = directory / "decoded.bin"
    path.write_bytes(blob)
    return load_dataset_pair(path)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("damaged_cache")


class TestDamagedCache:
    @pytest.fixture(scope="class")
    def desk_cache(self):
        return encode_pair(*make_longtail_dataset(DatasetConfig(), 0))

    def test_truncated_features_named(self, scratch, desk_cache):
        with pytest.raises(ValueError, match="truncated dataset cache: train features needs 99360 bytes"):
            decode_pair(scratch, desk_cache[:20_000])

    def test_truncation_names_record_and_field(self, scratch):
        train, test = toy_dataset([2, 1], dim=3), toy_dataset([1, 1], dim=3)
        blob = encode_pair(train, test)
        n = len(record(train))
        for field, end in [("train magic", 4), ("train header", 10),
                           ("test magic", n + 4), ("test labels", len(blob) - 1)]:
            with pytest.raises(ValueError, match=f"truncated dataset cache: {field} needs"):
                decode_pair(scratch, blob[:end])

    def test_trailing_bytes_rejected(self, scratch, desk_cache):
        with pytest.raises(ValueError, match="4 unexpected bytes after the test record"):
            decode_pair(scratch, desk_cache + b"junk")

    def test_trailing_bytes_after_single_record_rejected(self, tmp_path):
        # a lone record plus one byte: the byte cannot pass for the test record
        path = tmp_path / "one.bin"
        path.write_bytes(record(toy_dataset([2, 1])) + b"x")
        with pytest.raises(ValueError, match="truncated dataset cache: test magic needs 8 bytes"):
            load_dataset_pair(path)

    def test_label_outside_classes_named(self, scratch):
        train, test = toy_dataset([2, 1]), toy_dataset([1, 1])
        blob = bytearray(encode_pair(train, test))
        blob[-4:] = (7).to_bytes(4, "little")  # last test label, K = 2
        with pytest.raises(ValueError, match=r"test labels: label 7 outside \[0, 2\)"):
            decode_pair(scratch, bytes(blob))


@st.composite
def dataset_pairs(draw):
    """A random (train, test) pair: 1-4 classes, 1-3 examples each, 1-4 features."""
    k = draw(st.integers(1, 4))
    dim = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    counts = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return toy_dataset(counts, dim, seed), toy_dataset([1] * k, dim, seed + 1)


class TestCacheDamageProperties:
    """Both records are required, so unlike a checkpoint no strict prefix of
    a cache is itself a valid cache."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(dataset_pairs(), st.data())
    def test_every_strict_prefix_rejected(self, scratch, pair, data):
        blob = encode_pair(*pair)
        cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
        near_boundary = {len(record(pair[0])) + d for d in (-1, 0, 1)}
        for n in sorted({cut} | near_boundary):
            with pytest.raises(ValueError):
                decode_pair(scratch, blob[:n])

    @settings(max_examples=60, deadline=None, database=None)
    @given(dataset_pairs(), st.binary(min_size=1, max_size=64))
    def test_any_suffix_rejected(self, scratch, pair, suffix):
        with pytest.raises(ValueError, match="unexpected bytes after the test record"):
            decode_pair(scratch, encode_pair(*pair) + suffix)

    @settings(max_examples=30, deadline=None, database=None)
    @given(dataset_pairs())
    def test_valid_cache_roundtrips(self, scratch, pair):
        train, test = decode_pair(scratch, encode_pair(*pair))
        assert encode_pair(train, test) == encode_pair(*pair)
        assert test.splits == train.splits


def test_steps_per_epoch():
    assert steps_per_epoch(1242, 64) == 20
    assert steps_per_epoch(64, 64) == 1
    assert steps_per_epoch(65, 64) == 2
