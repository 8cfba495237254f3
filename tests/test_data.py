import struct

import numpy as np
import pytest

from fedlbg.data import (
    Dataset,
    load_idx,
    parse_partition_mode,
    partition,
    synth_classification,
)
from fedlbg.models import build_model, gradient, accuracy
from fedlbg.numerics import RngStream, axpy


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, stem="a"):
    """Handcrafted IDX fixture, built byte by byte."""
    n = len(labels)
    images = tmp_path / f"{stem}-images.idx"
    labs = tmp_path / f"{stem}-labels.idx"
    images.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels)
    )
    labs.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return str(images), str(labs)


def test_idx_fixture_roundtrips_exactly(tmp_path):
    pixels = [0, 255, 128, 7, 1, 2, 3, 4]  # two 2x2 images
    img, lab = write_idx_pair(tmp_path, pixels, [3, 0])
    ds = load_idx(img, lab)
    assert ds.n == 2 and ds.dim == 4
    assert np.array_equal(ds.labels, [3, 0])
    expected = np.array(pixels, dtype=np.float64).reshape(2, 4) / 255.0
    assert np.array_equal(ds.inputs, expected)
    assert ds.num_classes == 4


def test_idx_bad_magic_reports_byte_zero(tmp_path):
    img, lab = write_idx_pair(tmp_path, [0, 0, 0, 0], [1])
    bad = tmp_path / "bad.idx"
    bad.write_bytes(struct.pack(">II", 0xDEADBEEF, 1) + bytes([1]))
    with pytest.raises(ValueError, match="bad magic 0xdeadbeef at byte 0"):
        load_idx(img, str(bad))
    with pytest.raises(ValueError, match="byte 0"):
        load_idx(str(bad), lab)


def test_idx_truncated_reports_offset(tmp_path):
    img = tmp_path / "short.idx"
    img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes([0, 1, 2]))
    _, lab = write_idx_pair(tmp_path, [0] * 4, [0])
    with pytest.raises(ValueError, match="truncated at byte 19"):
        load_idx(str(img), lab)


def test_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, [0] * 8, [1, 2], stem="two")
    _, lab = write_idx_pair(tmp_path, [0] * 4, [1], stem="one")
    with pytest.raises(ValueError, match="count mismatch at byte 4"):
        load_idx(img, lab)


def test_synth_deterministic():
    a = synth_classification(50, 4, 3, 2.0, RngStream(0, 9).generator())
    b = synth_classification(50, 4, 3, 2.0, RngStream(0, 9).generator())
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_synth_separated_blobs_are_learnable():
    ds = synth_classification(200, 2, 2, 10.0, RngStream(1, 9).generator())
    model = build_model("softmax_classifier", 2, 2)
    theta = np.zeros(model.param_dim)
    for _ in range(200):
        theta = axpy(-0.5, gradient(model, theta, ds), theta)
    assert accuracy(model, theta, ds) >= 0.99


def test_synth_zero_separation_is_chance_level():
    ds = synth_classification(400, 3, 4, 0.0, RngStream(2, 9).generator())
    model = build_model("softmax_classifier", 3, 4)
    theta = np.zeros(model.param_dim)
    for _ in range(200):
        theta = axpy(-0.5, gradient(model, theta, ds), theta)
    # no signal: accuracy hovers at 1/classes on fresh data
    fresh = synth_classification(400, 3, 4, 0.0, RngStream(3, 9).generator())
    acc = accuracy(model, theta, fresh)
    assert acc < 0.40


def test_synth_preconditions():
    rng = RngStream(0, 9).generator()
    with pytest.raises(ValueError, match="n >= classes"):
        synth_classification(2, 3, 4, 1.0, rng)
    with pytest.raises(ValueError, match="d must be"):
        synth_classification(10, 0, 2, 1.0, rng)


def test_parse_partition_mode():
    assert parse_partition_mode("iid") == ("iid", None)
    assert parse_partition_mode("label_shard(3)") == ("label_shard", 3)
    with pytest.raises(ValueError, match="unknown partition mode"):
        parse_partition_mode("dirichlet")


def assert_disjoint_cover(part, n):
    seen = np.concatenate(part.shards)
    assert len(seen) == n
    assert len(np.unique(seen)) == n
    assert abs(part.weights.sum() - 1.0) <= 1e-12


def test_partition_single_worker():
    ds = synth_classification(30, 2, 3, 1.0, RngStream(4, 9).generator())
    part = partition(ds, 1, "iid", RngStream(4, 10).generator())
    assert_disjoint_cover(part, 30)
    assert np.array_equal(part.weights, [1.0])


def test_partition_iid_equal_sizes():
    ds = synth_classification(100, 2, 4, 1.0, RngStream(5, 9).generator())
    part = partition(ds, 4, "iid", RngStream(5, 10).generator())
    assert [len(s) for s in part.shards] == [25, 25, 25, 25]
    assert_disjoint_cover(part, 100)


def test_partition_iid_uneven_residue():
    ds = synth_classification(10, 2, 2, 1.0, RngStream(6, 9).generator())
    part = partition(ds, 3, "iid", RngStream(6, 10).generator())
    assert [len(s) for s in part.shards] == [4, 3, 3]


def test_partition_label_shard_limits_labels():
    ds = synth_classification(500, 2, 10, 1.0, RngStream(7, 9).generator())
    part = partition(ds, 10, "label_shard(3)", RngStream(7, 10).generator())
    assert_disjoint_cover(part, 500)
    for shard in part.shards:
        assert len(np.unique(ds.labels[shard])) <= 3


def test_partition_label_shard_properties_across_settings():
    rng = RngStream(8, 9).generator()
    for k, s, classes in [(4, 2, 8), (10, 3, 10), (3, 1, 3), (7, 5, 6)]:
        ds = synth_classification(210, 3, classes, 1.0, rng)
        part = partition(ds, k, f"label_shard({s})", RngStream(8, 10).generator())
        assert_disjoint_cover(part, 210)
        for shard in part.shards:
            assert len(np.unique(ds.labels[shard])) <= s


def test_partition_errors():
    ds = synth_classification(10, 2, 5, 1.0, RngStream(9, 9).generator())
    rng = RngStream(9, 10).generator()
    with pytest.raises(ValueError, match="cannot split"):
        partition(ds, 11, "iid", rng)
    with pytest.raises(ValueError, match="exceeds"):
        partition(ds, 2, "label_shard(6)", rng)
    with pytest.raises(ValueError, match="covers only"):
        partition(ds, 2, "label_shard(2)", rng)  # 4 of 5 labels
    with pytest.raises(ValueError, match="leaves worker 5 without samples"):
        partition(ds, 10, "label_shard(2)", rng)  # 2 samples per label, 4 holders
    regression = Dataset(ds.inputs, ds.inputs.copy(), 0)
    with pytest.raises(ValueError, match="classification"):
        partition(regression, 2, "label_shard(2)", rng)


def test_partition_deterministic():
    ds = synth_classification(120, 2, 6, 1.0, RngStream(10, 9).generator())
    a = partition(ds, 5, "label_shard(2)", RngStream(10, 10).generator())
    b = partition(ds, 5, "label_shard(2)", RngStream(10, 10).generator())
    for sa, sb in zip(a.shards, b.shards):
        assert np.array_equal(sa, sb)
