"""IDX parsing and synthetic data generation."""

import struct

import numpy as np
import pytest

from caden import datasets

from helpers import write_idx_images, write_idx_labels


class TestIdx:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(7, 12)).astype(np.float64) / 255.0
        path = str(tmp_path / "imgs.idx")
        write_idx_images(path, images, rows=3, cols=4)
        loaded = datasets.load_idx_images(path)
        assert loaded.shape == (7, 12)
        assert np.allclose(loaded, images, atol=1e-12)
        assert loaded.min() >= 0.0 and loaded.max() <= 1.0

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 3, 9, 1], dtype=np.int64)
        path = str(tmp_path / "labels.idx")
        write_idx_labels(path, labels)
        assert np.array_equal(datasets.load_idx_labels(path), labels)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(ValueError, match="magic"):
            datasets.load_idx_images(str(path))
        with pytest.raises(ValueError, match="magic"):
            datasets.load_idx_labels(str(path))

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">IIII", datasets.IDX_IMAGES_MAGIC, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(ValueError, match="truncated"):
            datasets.load_idx_images(str(path))

    def test_trailing_bytes_ignored(self, tmp_path):
        path = tmp_path / "long.idx"
        path.write_bytes(struct.pack(">II", datasets.IDX_LABELS_MAGIC, 3) + bytes([2, 0, 1, 7, 7]))
        assert datasets.load_idx_labels(str(path)).tolist() == [2, 0, 1]

    @pytest.mark.parametrize("load, size", [("load_idx_images", 15), ("load_idx_labels", 7)])
    def test_short_header_rejected(self, tmp_path, load, size):
        path = tmp_path / "short.idx"
        path.write_bytes(b"\x00" * size)
        with pytest.raises(ValueError, match=f"IDX header of {size} bytes"):
            getattr(datasets, load)(str(path))

    def test_gzip_transparent(self, tmp_path):
        import gzip

        labels = np.arange(5, dtype=np.int64)
        raw = struct.pack(">II", datasets.IDX_LABELS_MAGIC, 5) + labels.astype(np.uint8).tobytes()
        path = tmp_path / "labels.idx.gz"
        path.write_bytes(gzip.compress(raw))
        assert np.array_equal(datasets.load_idx_labels(str(path)), labels)


class TestBlobs:
    def test_shapes_and_balance(self):
        x, y = datasets.gaussian_blobs(90, features=5, classes=3, seed=1)
        assert x.shape == (90, 5)
        counts = np.bincount(y, minlength=3)
        assert counts.tolist() == [30, 30, 30]

    def test_deterministic(self):
        a = datasets.gaussian_blobs(40, 4, 2, seed=7)
        b = datasets.gaussian_blobs(40, 4, 2, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_classes_are_separated(self):
        x, y = datasets.gaussian_blobs(300, 8, 3, seed=2, spread=0.5)
        centers = np.array([x[y == c].mean(axis=0) for c in range(3)])
        gaps = [np.linalg.norm(centers[a] - centers[b]) for a in range(3) for b in range(a)]
        assert min(gaps) > 2.0


class TestShards:
    def test_partition(self):
        shards = datasets.shard_indices(103, 10, seed=0)
        assert [len(s) for s in shards] == [10] * 9 + [13]
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(103))

    def test_deterministic(self):
        a = datasets.shard_indices(50, 7, seed=3)
        b = datasets.shard_indices(50, 7, seed=3)
        assert all(np.array_equal(s, t) for s, t in zip(a, b))
