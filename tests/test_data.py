import struct

import numpy as np
import pytest

from fedlbg.data import (
    Dataset,
    content_order,
    load_idx,
    parse_partition_mode,
    partition,
    synth_classification,
)
from fedlbg.models import build_model, gradient, accuracy
from fedlbg.numerics import rng_stream
from support import write_idx_pair


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


@pytest.mark.parametrize("which", ["images", "labels"])
def test_idx_trailing_bytes_are_rejected_in_either_file(tmp_path, which):
    img, lab = write_idx_pair(tmp_path, [0] * 8, [1, 0])
    path = img if which == "images" else lab
    with open(path, "ab") as f:
        f.write(bytes(3))
    end = 16 + 8 if which == "images" else 8 + 2
    with pytest.raises(ValueError) as info:
        load_idx(img, lab)
    assert str(info.value) == f"{path}: 3 trailing bytes at byte {end}"


def test_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, [0] * 8, [1, 2], stem="two")
    _, lab = write_idx_pair(tmp_path, [0] * 4, [1], stem="one")
    with pytest.raises(ValueError, match="count mismatch at byte 4"):
        load_idx(img, lab)


def test_synth_deterministic():
    a = synth_classification(50, 4, 3, 2.0, rng_stream(0, 9))
    b = synth_classification(50, 4, 3, 2.0, rng_stream(0, 9))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.labels, b.labels)


def test_synth_separated_blobs_are_learnable():
    ds = synth_classification(200, 2, 2, 10.0, rng_stream(1, 9))
    model = build_model("softmax_classifier", 2, 2)
    theta = np.zeros(model.param_dim)
    for _ in range(200):
        theta = theta - 0.5 * gradient(model, theta, ds)
    assert accuracy(model, theta, ds) >= 0.99


def test_synth_zero_separation_is_chance_level():
    ds = synth_classification(400, 3, 4, 0.0, rng_stream(2, 9))
    model = build_model("softmax_classifier", 3, 4)
    theta = np.zeros(model.param_dim)
    for _ in range(200):
        theta = theta - 0.5 * gradient(model, theta, ds)
    # no signal: accuracy hovers at 1/classes on fresh data
    fresh = synth_classification(400, 3, 4, 0.0, rng_stream(3, 9))
    acc = accuracy(model, theta, fresh)
    assert acc < 0.40


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
    ds = synth_classification(30, 2, 3, 1.0, rng_stream(4, 9))
    part = partition(ds, 1, "iid", rng_stream(4, 10))
    assert_disjoint_cover(part, 30)
    assert np.array_equal(part.weights, [1.0])


def test_partition_iid_equal_sizes():
    ds = synth_classification(100, 2, 4, 1.0, rng_stream(5, 9))
    part = partition(ds, 4, "iid", rng_stream(5, 10))
    assert [len(s) for s in part.shards] == [25, 25, 25, 25]
    assert_disjoint_cover(part, 100)


def test_partition_iid_uneven_residue():
    ds = synth_classification(10, 2, 2, 1.0, rng_stream(6, 9))
    part = partition(ds, 3, "iid", rng_stream(6, 10))
    assert [len(s) for s in part.shards] == [4, 3, 3]


def test_partition_label_shard_limits_labels():
    ds = synth_classification(500, 2, 10, 1.0, rng_stream(7, 9))
    part = partition(ds, 10, "label_shard(3)", rng_stream(7, 10))
    assert_disjoint_cover(part, 500)
    for shard in part.shards:
        assert len(np.unique(ds.labels[shard])) <= 3


def test_partition_label_shard_properties_across_settings():
    rng = rng_stream(8, 9)
    for k, s, classes in [(4, 2, 8), (10, 3, 10), (3, 1, 3), (7, 5, 6)]:
        ds = synth_classification(210, 3, classes, 1.0, rng)
        part = partition(ds, k, f"label_shard({s})", rng_stream(8, 10))
        assert_disjoint_cover(part, 210)
        for shard in part.shards:
            assert len(np.unique(ds.labels[shard])) <= s


def test_partition_errors():
    ds = synth_classification(10, 2, 5, 1.0, rng_stream(9, 9))
    rng = rng_stream(9, 10)
    with pytest.raises(ValueError, match="cannot split"):
        partition(ds, 11, "iid", rng)
    with pytest.raises(ValueError, match="exceeds"):
        partition(ds, 2, "label_shard(6)", rng)
    with pytest.raises(ValueError, match="covers only"):
        partition(ds, 2, "label_shard(2)", rng)  # 4 of 5 labels
    with pytest.raises(ValueError, match="leaves worker 5 without samples"):
        partition(ds, 10, "label_shard(2)", rng)  # 2 samples per label, 4 holders


def test_partition_deterministic():
    ds = synth_classification(120, 2, 6, 1.0, rng_stream(10, 9))
    a = partition(ds, 5, "label_shard(2)", rng_stream(10, 10))
    b = partition(ds, 5, "label_shard(2)", rng_stream(10, 10))
    for sa, sb in zip(a.shards, b.shards):
        assert np.array_equal(sa, sb)


def test_content_order_is_stable_and_bytewise():
    inputs = np.array([[1.0], [0.0], [-0.0], [1.0], [0.0]])
    labels = np.array([0, 0, 0, 0, 1])
    # -0.0 differs from 0.0 only in its sign bit and sorts after it bytewise;
    # equal rows keep their order
    assert content_order(inputs, labels).tolist() == [1, 2, 0, 3, 4]
    ds = Dataset(inputs, labels, 2)
    assert ds.canonical[0].tobytes() == inputs[[1, 2, 0, 3, 4]].tobytes()
    # each row's slot is its position in the sorted rows
    assert ds._slots.tolist() == [2, 0, 1, 3, 4]


@pytest.mark.parametrize("targets", ["labels", "regression"])
@pytest.mark.parametrize("idx", [np.array([7, 2, 7, 11, 0]), [7, 2, 7, 11, 0], slice(1, 17, 3)],
                         ids=["ndarray", "list", "slice"])
def test_batch_gathers_the_bytes_of_fancy_indexing_and_leaves_the_slots(targets, idx):
    ds = synth_classification(20, 3, 4, 1.0, rng_stream(12, 0))
    if targets == "regression":
        ds = Dataset(ds.inputs, rng_stream(12, 1).standard_normal((20, 2)), 0)
    x, y = ds.canonical
    slots = ds._slots.copy()
    # unsorted, so a sort in place of a slice's view would reorder the slots
    assert (np.diff(slots[idx]) < 0).any()
    rows = np.sort(slots[idx])
    batch = ds.batch(idx)
    for got, want in ((batch.inputs, x[rows]), (batch.labels, y[rows])):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert ds._slots.tobytes() == slots.tobytes()


def test_sorting_the_rows_makes_a_dataset_read_only():
    ds = synth_classification(30, 2, 3, 1.0, rng_stream(11, 0))
    assert ds.inputs.flags.writeable and ds.labels.flags.writeable
    idx = np.array([4, 1, 4])
    batch = ds.batch(idx)
    # one gather, already in canonical order: the rows of idx in bytewise
    # order, which are also the batch's own canonical pair
    keys = [np.float64(y).tobytes() + x.tobytes() for y, x in zip(ds.labels[idx], ds.inputs[idx])]
    order = sorted(range(len(idx)), key=keys.__getitem__)
    assert batch.inputs.tobytes() == ds.inputs[idx][order].tobytes()
    assert batch.labels.tobytes() == ds.labels[idx][order].tobytes()
    assert batch.canonical[0] is batch.inputs and batch.canonical[1] is batch.labels
    assert ds.canonical is ds.canonical  # sorted once
    x, y = ds.canonical
    assert x[ds._slots].tobytes() == ds.inputs.tobytes()
    assert y[ds._slots].tobytes() == ds.labels.tobytes()
    for a in (ds.inputs, ds.labels, x, y, batch.inputs, batch.labels):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
