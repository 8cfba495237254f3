"""Dataset loading, synthesis, and iid / label-shard partitioning.

The IDX loader is bit-exact against the classic big-endian layout:
images carry magic 0x00000803 followed by [n, rows, cols] as unsigned
32-bit integers then raw pixel bytes; labels carry magic 0x00000801,
a count, then one byte per label.
"""

import math
import re
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def content_order(inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts (label, input) rows bytewise,
    labels as float64 first: an order that does not depend on where a row
    sits, since equal rows have equal bytes."""
    rows = np.column_stack([np.asarray(labels, dtype=np.float64), inputs])
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.argsort(keys, kind="stable")


@dataclass(frozen=True)
class Dataset:
    """Samples as rows. `canonical` is (inputs, labels) in content_order,
    gathered once on first use, read-only, with each row's slot in it; a
    dataset that has sorted its rows has read-only inputs and labels too,
    so a write cannot leave them stale. A batch() is gathered once from
    the sorted rows, at the sorted slots of its indices, so it comes in
    canonical order: its rows are its own `canonical` pair."""

    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 classes, or (n, out) float64 targets
    num_classes: int  # 0 for regression
    _canonical: Optional[tuple] = field(default=None, repr=False, compare=False)
    _slots: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def canonical(self) -> tuple:
        if self._canonical is None:
            self._sort()
        return self._canonical

    def _sort(self):
        order = content_order(self.inputs, self.labels)
        slots = np.empty_like(order)
        slots[order] = np.arange(len(order))
        rows = self.inputs[order], self.labels[order]
        for a in (self.inputs, self.labels, *rows):
            a.setflags(write=False)
        object.__setattr__(self, "_canonical", rows)
        object.__setattr__(self, "_slots", slots)

    def batch(self, idx) -> "Dataset":
        if self._slots is None:
            self._sort()
        # sorted slots are content order; rows that tie have equal bytes. Not
        # sorted in place: a slice idx gives a view of _slots
        rows = np.sort(self._slots[idx])
        # take() gathers 2-D rows about 2.5x faster than fancy indexing; a 1-D
        # gather is not faster by it
        inputs, labels = self._canonical[0].take(rows, axis=0), self._canonical[1][rows]
        inputs.setflags(write=False)
        labels.setflags(write=False)
        return Dataset(inputs, labels, self.num_classes, (inputs, labels))


@dataclass(frozen=True)
class Partition:
    shards: tuple  # K disjoint int64 index arrays covering the dataset
    weights: np.ndarray  # omega_k = n_k / N


def _read_exact(buf: bytes, offset: int, count: int, path: str) -> bytes:
    if offset + count > len(buf):
        raise ValueError(
            f"{path}: truncated at byte {len(buf)}, expected {offset + count} bytes"
        )
    return buf[offset : offset + count]


def _read_idx(path: str, magic: int, ndim: int) -> tuple:
    """(dims, payload) of one IDX file: the magic at byte 0, `ndim`
    big-endian sizes, then one byte per entry and nothing after them."""
    with open(path, "rb") as f:
        buf = f.read()
    (found,) = struct.unpack(">I", _read_exact(buf, 0, 4, path))
    if found != magic:
        raise ValueError(f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}")
    dims = struct.unpack(f">{ndim}I", _read_exact(buf, 4, 4 * ndim, path))
    start = 4 + 4 * ndim
    end = start + math.prod(dims)
    payload = _read_exact(buf, start, end - start, path)
    if len(buf) != end:
        raise ValueError(f"{path}: {len(buf) - end} trailing bytes at byte {end}")
    return dims, payload


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair, scaling pixels into [0, 1]."""
    (n, rows, cols), pixels = _read_idx(images_path, IMAGES_MAGIC, 3)
    if n == 0 or rows * cols == 0:
        raise ValueError(f"{images_path}: {n} images of {rows}x{cols} pixels, "
                         "expected at least one image of at least one pixel")
    (n_labels,), raw_labels = _read_idx(labels_path, LABELS_MAGIC, 1)
    if n_labels != n:
        raise ValueError(
            f"count mismatch at byte 4: {images_path} has {n} images, "
            f"{labels_path} has {n_labels} labels"
        )

    inputs = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    inputs = inputs.reshape(n, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(inputs, labels, int(labels.max()) + 1)


def synth_classification(
    n: int, d: int, classes: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Gaussian blobs, one unit-variance blob per class.

    Class centers are placed on scaled coordinate axes so that neighboring
    centers sit at distance ``separation``; labels cycle round-robin so the
    class counts are balanced. separation = 0 collapses every class onto
    the same blob.
    """
    centers = np.zeros((classes, d))
    scale = separation / np.sqrt(2.0)
    for c in range(classes):
        centers[c, c % d] = scale * (c // d + 1)
    labels = np.arange(n, dtype=np.int64) % classes
    inputs = centers[labels] + rng.standard_normal((n, d))
    return Dataset(inputs, labels, classes)


_LABEL_SHARD_RE = re.compile(r"^label_shard\((\d+)\)$")


def parse_partition_mode(mode: str):
    """Return ('iid', None) or ('label_shard', s); raise on anything else."""
    if mode == "iid":
        return "iid", None
    m = _LABEL_SHARD_RE.match(mode)
    if m:
        return "label_shard", int(m.group(1))
    raise ValueError(f"unknown partition mode {mode!r}")


def partition(ds: Dataset, k: int, mode: str, rng: np.random.Generator) -> Partition:
    """Split a dataset into K shards.

    iid deals a random permutation into near-equal contiguous chunks.
    label_shard(s) gives worker k the s labels {k*s, ..., k*s+s-1} mod C
    (label blocks dealt to workers cyclically) and then splits each
    label's samples evenly among the workers holding that label.
    """
    if k > ds.n:
        raise ValueError(f"cannot split {ds.n} samples across {k} workers")
    kind, s = parse_partition_mode(mode)

    if kind == "iid":
        shards = np.array_split(rng.permutation(ds.n), k)
    else:
        if s > ds.num_classes:
            raise ValueError(
                f"label_shard({s}) exceeds the {ds.num_classes} available labels"
            )
        if k * s < ds.num_classes:
            raise ValueError(
                f"label_shard({s}) with {k} workers covers only {k * s} of "
                f"{ds.num_classes} labels; shards must cover the dataset"
            )
        c = ds.num_classes
        shard_lists = [[] for _ in range(k)]
        for label in range(c):  # the coverage check above gives every label a holder
            workers = [w for w in range(k) if (label - w * s) % c < s]
            samples = rng.permutation(np.flatnonzero(ds.labels == label))
            for worker, chunk in zip(workers, np.array_split(samples, len(workers))):
                shard_lists[worker].append(chunk)
        shards = [np.sort(np.concatenate(parts)) for parts in shard_lists]
        empty = [worker for worker, sh in enumerate(shards) if len(sh) == 0]
        if empty:
            raise ValueError(f"label_shard({s}) leaves worker {empty[0]} without samples")

    shards = tuple(np.asarray(sh, dtype=np.int64) for sh in shards)
    weights = np.array([len(sh) for sh in shards], dtype=np.float64) / ds.n
    return Partition(shards, weights)
