"""Dataset ingestion and synthetic data generation.

Supports the classic IDX binary format (big-endian, magic 0x00000803 for u8
image tensors and 0x00000801 for u8 label vectors) and a seeded Gaussian-blob
generator for desk-scale classification benchmarks.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

_DATA_STREAM = 202
_SHARD_STREAM = 203

# Standard deviation of the blob class centers around the origin.
BLOB_CENTER_SCALE = 4.0


def _read_idx(path: str, magic: int, kind: str) -> tuple[list[int], np.ndarray]:
    """The dimensions and the u8 payload of an IDX file, gzip-compressed when
    its name ends in ``.gz``; ValueError for a short header, a magic other
    than ``magic``, a short payload or corrupt gzip data.  Reads what the
    file holds, whatever its header declares; bytes past the payload are
    ignored."""
    fields = 1 + (magic & 0xFF)  # the magic's last byte counts the dimensions
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fp:
            data = fp.read()
    except zlib.error as exc:
        raise ValueError(f"corrupt gzip data in IDX {kind} file ({exc})") from exc
    if len(data) < 4 * fields:
        raise ValueError(f"IDX header of {len(data)} bytes, expected {4 * fields}")
    found, *dims = struct.unpack_from(f">{fields}I", data)
    if found != magic:
        raise ValueError(f"bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
    size = math.prod(dims)
    if len(data) - 4 * fields < size:
        raise ValueError(f"truncated IDX {kind} file")
    return dims, np.frombuffer(data, dtype=np.uint8, count=size, offset=4 * fields)


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX u8 image file into a float array scaled to [0, 1].

    Returns an (count, rows*cols) array; pixels are row-major per image.
    """
    (count, rows, cols), raw = _read_idx(path, IDX_IMAGES_MAGIC, "image")
    return (raw.astype(np.float64) / 255.0).reshape(count, rows * cols)


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX u8 label file into an int array."""
    return _read_idx(path, IDX_LABELS_MAGIC, "label")[1].astype(np.int64)


def gaussian_blobs(
    samples: int,
    features: int,
    classes: int,
    seed: int,
    spread: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced Gaussian-blob classification data.

    Class centers are drawn once from N(0, BLOB_CENTER_SCALE^2 I); each
    sample is its class center plus N(0, spread^2 I) noise.  Returns (X, y)
    with X of shape (samples, features) and integer labels y.  Classes are
    balanced up to remainder, and the rows are shuffled.
    """
    rng = np.random.default_rng([_DATA_STREAM, seed])
    centers = BLOB_CENTER_SCALE * rng.standard_normal((classes, features))
    y = np.arange(samples) % classes
    x = centers[y] + spread * rng.standard_normal((samples, features))
    perm = rng.permutation(samples)
    return x[perm], y[perm]


def shard_indices(total: int, agents: int, seed: int) -> list[np.ndarray]:
    """Partition sample indices across agents by a seeded random shuffle.

    Shards are equal-sized with the remainder going to the last agent.
    """
    perm = np.random.default_rng([_SHARD_STREAM, seed]).permutation(total)
    cuts = [total // agents * i for i in range(agents)] + [total]
    return [np.sort(perm[start:end]) for start, end in zip(cuts, cuts[1:])]
