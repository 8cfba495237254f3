"""Dataset loading, synthesis, and iid / label-shard partitioning.

The IDX loader is bit-exact against the classic big-endian layout:
images carry magic 0x00000803 followed by [n, rows, cols] as unsigned
32-bit integers then raw pixel bytes; labels carry magic 0x00000801,
a count, then one byte per label.
"""

import re
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def content_rank(inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dense rank of each (label, input) row in bytewise order: equal rows
    share a rank, so a stable argsort of ranks is a stable sort of rows."""
    rows = np.column_stack([np.asarray(labels, dtype=np.float64), inputs])
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.unique(keys, return_inverse=True)[1]


@dataclass(frozen=True)
class Dataset:
    """Samples as rows. `rank` is content_rank, carried by a batch() and
    computed on first use otherwise; a dataset holding its ranks has
    read-only inputs and labels, so a write cannot leave them stale.
    `canonical` is (inputs, labels) sorted by rank, gathered once on first
    use and read-only, so it cannot go stale either."""

    inputs: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 classes, or (n, out) float64 targets
    num_classes: int  # 0 for regression
    _rank: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    _canonical: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def rank(self) -> np.ndarray:
        if self._rank is None:
            object.__setattr__(self, "_rank", content_rank(self.inputs, self.labels))
            self.inputs.setflags(write=False)
            self.labels.setflags(write=False)
        return self._rank

    @property
    def canonical(self) -> tuple:
        if self._canonical is None:
            order = np.argsort(self.rank, kind="stable")
            rows = self.inputs[order], self.labels[order]
            for a in rows:
                a.setflags(write=False)
            object.__setattr__(self, "_canonical", rows)
        return self._canonical

    def batch(self, idx) -> "Dataset":
        inputs, labels = self.inputs[idx], self.labels[idx]
        inputs.setflags(write=False)
        labels.setflags(write=False)
        return Dataset(inputs, labels, self.num_classes, self.rank[idx])


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


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair, scaling pixels into [0, 1]."""
    with open(images_path, "rb") as f:
        img_buf = f.read()
    with open(labels_path, "rb") as f:
        lab_buf = f.read()

    (magic,) = struct.unpack(">I", _read_exact(img_buf, 0, 4, images_path))
    if magic != IMAGES_MAGIC:
        raise ValueError(
            f"{images_path}: bad magic 0x{magic:08x} at byte 0, expected 0x{IMAGES_MAGIC:08x}"
        )
    n, rows, cols = struct.unpack(">III", _read_exact(img_buf, 4, 12, images_path))
    pixels = _read_exact(img_buf, 16, n * rows * cols, images_path)
    if len(img_buf) != 16 + n * rows * cols:
        raise ValueError(
            f"{images_path}: {len(img_buf) - 16 - n * rows * cols} trailing bytes at byte {16 + n * rows * cols}"
        )

    (magic,) = struct.unpack(">I", _read_exact(lab_buf, 0, 4, labels_path))
    if magic != LABELS_MAGIC:
        raise ValueError(
            f"{labels_path}: bad magic 0x{magic:08x} at byte 0, expected 0x{LABELS_MAGIC:08x}"
        )
    (n_labels,) = struct.unpack(">I", _read_exact(lab_buf, 4, 4, labels_path))
    if n_labels != n:
        raise ValueError(
            f"count mismatch at byte 4: {images_path} has {n} images, "
            f"{labels_path} has {n_labels} labels"
        )
    raw_labels = _read_exact(lab_buf, 8, n, labels_path)

    inputs = np.frombuffer(pixels, dtype=np.uint8).astype(np.float64) / 255.0
    inputs = inputs.reshape(n, rows * cols)
    labels = np.frombuffer(raw_labels, dtype=np.uint8).astype(np.int64)
    return Dataset(inputs, labels, int(labels.max()) + 1 if n else 0)


def synth_classification(
    n: int, d: int, classes: int, separation: float, rng: np.random.Generator
) -> Dataset:
    """Gaussian blobs, one unit-variance blob per class.

    Class centers are placed on scaled coordinate axes so that neighboring
    centers sit at distance ``separation``; labels cycle round-robin so the
    class counts are balanced. separation = 0 collapses every class onto
    the same blob.
    """
    if n < classes:
        raise ValueError(f"need n >= classes, got n={n} classes={classes}")
    if d < 1:
        raise ValueError("d must be >= 1")
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


def _deal_evenly(indices: np.ndarray, parts: int) -> list:
    """Split into `parts` chunks; earlier chunks absorb one extra element."""
    base, extra = divmod(len(indices), parts)
    out = []
    off = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(indices[off : off + size])
        off += size
    return out


def partition(ds: Dataset, k: int, mode: str, rng: np.random.Generator) -> Partition:
    """Split a dataset into K shards.

    iid deals a random permutation into near-equal contiguous chunks.
    label_shard(s) gives worker k the s labels {k*s, ..., k*s+s-1} mod C
    (label blocks dealt to workers cyclically) and then splits each
    label's samples evenly among the workers holding that label.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    if k > ds.n:
        raise ValueError(f"cannot split {ds.n} samples across {k} workers")
    kind, s = parse_partition_mode(mode)

    if kind == "iid":
        perm = rng.permutation(ds.n)
        shards = _deal_evenly(perm, k)
    else:
        if ds.num_classes == 0:
            raise ValueError("label_shard partitioning needs a classification dataset")
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
        holders = {label: [] for label in range(c)}
        for worker in range(k):
            for j in range(s):
                holders[(worker * s + j) % c].append(worker)
        per_label = {
            label: rng.permutation(np.flatnonzero(ds.labels == label))
            for label in range(c)
        }
        shard_lists = [[] for _ in range(k)]
        for label in range(c):  # the coverage check above gives every label a holder
            workers = holders[label]
            for worker, chunk in zip(workers, _deal_evenly(per_label[label], len(workers))):
                shard_lists[worker].append(chunk)
        shards = [np.sort(np.concatenate(parts)) for parts in shard_lists]
        empty = [worker for worker, sh in enumerate(shards) if len(sh) == 0]
        if empty:
            raise ValueError(f"label_shard({s}) leaves worker {empty[0]} without samples")

    shards = tuple(np.asarray(sh, dtype=np.int64) for sh in shards)
    weights = np.array([len(sh) for sh in shards], dtype=np.float64) / ds.n
    return Partition(shards, weights)
