"""Property tests for the look-back step, the scalar numerics against
their earlier numpy-scalar form, the ledger's cost oracle, the
compressors' round trips and error feedback, the content order against
its earlier rank form, the models' canonical sample order, their
invariance under batch order, their softmax reductions against the
earlier row-major form, the partition against its earlier hand-dealt
form, config text against configs made in Python, and the analyzer's
cosine matrices against one computed a pair at a time."""

import io
import math
import string
from contextlib import redirect_stderr
from dataclasses import fields
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedlbg import analyzer, models
from fedlbg.compressors import ef_wrap, rank_r, sign_compress, topk
from fedlbg.data import Dataset, content_order, partition
from fedlbg.harness import ALGORITHMS, ConfigError, ExperimentConfig, parse_config
from fedlbg.lbgm import DensePayload, UplinkMessage, lbp_error, look_back, reconstruct
from fedlbg.models import (
    MODEL_KINDS,
    _canonical_order,
    _row_max,
    accuracy,
    build_model,
    forward_loss,
    gradient,
    init_params,
    one_hot,
    unpack,
)
from fedlbg.numerics import cosine_sim, dot, norm_sq, rng_stream
import cosine_oracle
import model_oracle
from order_oracle import content_rank
from partition_oracle import reference_partition
from ledger_oracle import ledger_cost

# zero, or of a size whose square is a normal float; products of two
# squared norms still under- and overflow
ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))

PAYLOADS = {
    "dense": DensePayload,
    "topk": lambda g: topk(g, max(1, g.shape[0] // 2)),
}


def exact_sin2(g, lbg):
    """lbp_error in rational arithmetic: no rounding, no under- or overflow."""
    g, lbg = [Fraction(x) for x in g], [Fraction(x) for x in lbg]
    gg, ll = sum(x * x for x in g), sum(x * x for x in lbg)
    if gg == 0:
        return 0.0
    if ll == 0:
        return 1.0
    return float(1 - sum(x * y for x, y in zip(g, lbg)) ** 2 / (gg * ll))


@st.composite
def look_back_cases(draw):
    dim = draw(st.integers(1, 8))
    vectors = hnp.arrays(np.float64, dim, elements=ENTRY)
    g = draw(st.one_of(vectors, st.builds(np.zeros, st.just(dim))))
    lbg = draw(st.one_of(st.none(), st.builds(np.zeros, st.just(dim)), vectors))
    return g, lbg, draw(st.floats(0.0, 1.0))


@pytest.mark.parametrize("kind", sorted(PAYLOADS))
@settings(deadline=None, max_examples=150)
@given(case=look_back_cases())
@example(case=(np.array([1e-100, 1e-100]), np.array([1e-100, 1e-100]), 0.0))
def test_look_back_gates_on_the_look_back_error(kind, case):
    g, lbg, delta = case
    payload = PAYLOADS[kind](g)
    dense = payload.densify()
    sin2_before = 0.0 if lbg is None else lbp_error(dense, lbg)
    if lbg is not None:
        assert sin2_before == pytest.approx(exact_sin2(dense, lbg), abs=1e-12)
    scalar = lbg is not None and (not dense.any() or (lbg.any() and sin2_before <= delta))

    worker = SimpleNamespace(lbg=lbg)
    msg, sin2 = look_back(worker, payload, dense, delta)
    assert sin2 == sin2_before
    assert (msg.payload is None) == scalar
    if scalar:
        assert np.array_equal(reconstruct({0: lbg}, 0, msg), msg.rho * lbg)
        residual = dense - msg.rho * lbg
        bound = 1e-9 * math.sqrt(norm_sq(dense)) * math.sqrt(norm_sq(lbg))
        assert abs(dot(residual, lbg)) <= bound
        assert worker.lbg is lbg
    else:
        assert msg.payload is payload
        assert np.array_equal(worker.lbg, dense)


def outcome(f, *args):
    """A result as (type, bits), or an error as (type, message)."""
    try:
        with np.errstate(over="ignore", under="ignore"):
            out = f(*args)
    except (ValueError, FloatingPointError) as e:
        return type(e), str(e)
    return type(out), out.hex()  # hex tells -0.0 from 0.0


# normal, rescale (squared norms under- or overflow) and, drawn per
# vector, mixed scales; entries near 1 keep many 1e-160 vectors nonzero in
# their squared norm, ENTRY spreads them over 200 decades
SCALE = st.sampled_from([1.0, 1e-160, 1e160])
NEAR_ONE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def scaled_pairs(draw):
    dim = draw(st.integers(1, 8))
    vectors = hnp.arrays(np.float64, dim, elements=draw(st.sampled_from([NEAR_ONE, ENTRY])))
    return draw(vectors) * draw(SCALE), draw(vectors) * draw(SCALE)


@settings(deadline=None, max_examples=300)
@given(pair=scaled_pairs())
@example(pair=(np.array([1e160, 0.0]), np.array([1e160, 1e160])))  # a squared norm overflows
@example(pair=(np.array([1e-100, 0.0]), np.array([1e-100, 1e-100])))  # na * nb underflows
@example(pair=(np.array([3.0, -4.0]), np.array([-3.0, 4.0])))  # antiparallel: exactly -1
@example(pair=(np.array([1e-163, 0.0]), np.array([1.0, 1.0])))  # a squared norm underflows to 0
def test_dot_cosine_and_look_back_error_are_bit_identical_to_the_reference(pair):
    a, b = pair
    for f, ref in ((dot, cosine_oracle.reference_dot), (cosine_sim, cosine_oracle.cosine_sim),
                   (lbp_error, cosine_oracle.reference_lbp_error)):
        got = outcome(f, a, b)
        assert got == outcome(ref, a, b)
        assert got[0] in (float, ValueError, FloatingPointError)
    # strided views: every other entry of a longer array, and reversed;
    # numpy's own loop for a negative stride flags inf - inf as invalid,
    # where BLAS does not, before both raise on the non-finite result
    for view in (lambda v: np.repeat(v, 2)[::2], lambda v: v[::-1]):
        for x, y in ((view(a), view(b)), (view(a), b)):
            with np.errstate(invalid="ignore"):
                assert outcome(dot, x, y) == outcome(cosine_oracle.reference_dot, x, y)


# a factor that keeps the angle, or turns it around: such pairs have a
# quotient that rounds past +-1 and is clamped
PARALLEL = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))
# quotient 0x1.0000000000001p+0 before the clamp
PAST_ONE = (np.array([-2.7111624789659685, -1.8890132459676727]),
            np.array([-3.556612154536391, -2.4780836717876396]))


@st.composite
def parallel_pairs(draw):
    v = draw(hnp.arrays(np.float64, draw(st.integers(1, 8)), elements=NEAR_ONE)) * draw(SCALE)
    return v, v * draw(PARALLEL)


def test_a_quotient_past_one_is_clamped_to_one():
    a, b = PAST_ONE
    assert (dot(a, b) / math.sqrt(dot(a, a) * dot(b, b))).hex() == "0x1.0000000000001p+0"
    assert cosine_sim(a, b).hex() == "0x1.0000000000000p+0"
    assert cosine_sim(a, -b).hex() == "-0x1.0000000000000p+0"


@settings(deadline=None, max_examples=300)
@given(pair=parallel_pairs())
@example(pair=PAST_ONE)
@example(pair=(PAST_ONE[0], -PAST_ONE[1]))
def test_cosine_of_parallel_and_antiparallel_pairs_is_bit_identical_to_the_reference(pair):
    assert outcome(cosine_sim, *pair) == outcome(cosine_oracle.cosine_sim, *pair)


@st.composite
def gradient_stacks(draw):
    """A (T, M) stack whose rows are drawn at a scale where the squared norm,
    or the product of two, is normal, underflows or overflows, or are zero,
    or repeat, negate or scale an earlier row."""
    dim = draw(st.integers(1, 6))
    vectors = hnp.arrays(np.float64, dim, elements=draw(st.sampled_from([NEAR_ONE, ENTRY])))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["drawn", "zero", "repeat", "negate", "scale"]))
        if kind == "zero":
            rows.append(np.zeros(dim))
        elif kind == "drawn" or not rows:
            rows.append(draw(vectors) * draw(SCALE))
        else:
            base = draw(st.sampled_from(rows))
            rows.append({"repeat": base, "negate": -base,
                         "scale": base * draw(PARALLEL)}[kind])
    return np.array(rows)


def same_bits(x, y):
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


@settings(deadline=None, max_examples=200)
@given(grads=gradient_stacks())
@example(grads=np.array([*PAST_ONE, -PAST_ONE[0], np.zeros(2), [1e-163, 0.0], [1e-163, 0.0]]))
@example(grads=np.array([[1e160, 0.0], [1e160, -1e160], np.zeros(2)]))  # squared norms overflow
def test_overlap_and_similarity_are_bit_identical_to_the_per_pair_oracle(grads):
    zero = [i for i, g in enumerate(grads) if not g.any()]
    dirs = [g for g in grads if g.any()]
    # numpy's own loop, used for one entry, warns on an overflowing square;
    # such a row is not zero and has its angle, as in the oracle
    with np.errstate(over="ignore"):
        with redirect_stderr(io.StringIO()) as err:
            similarity = analyzer.similarity_matrix(grads)
            assert same_bits(similarity, cosine_oracle.similarity(grads))
        assert err.getvalue() == "".join(
            f"warning: epoch {i} gradient has zero norm; similarity row zeroed\n" for i in zero)
        if not dirs:
            return
        with redirect_stderr(io.StringIO()) as err:
            overlap = analyzer.overlap_matrix(grads, dirs)
            assert same_bits(overlap, cosine_oracle.overlap(grads, dirs))
        assert err.getvalue() == "".join(
            f"warning: epoch {i} gradient has zero norm; overlap row zeroed\n" for i in zero)


@settings(deadline=None, max_examples=100)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), rank=st.integers(1, 3), data=st.data())
def test_ledger_cost_is_the_message_cost(rows, cols, rank, data):
    dim = rows * cols + cols
    g = data.draw(hnp.arrays(np.float64, dim, elements=st.floats(-1e3, 1e3)))
    k = data.draw(st.integers(1, dim))
    payloads = (None, DensePayload(g), topk(g, k), sign_compress(g),
                rank_r(unpack(build_model("softmax_classifier", rows, cols), g), rank))
    for payload in payloads:
        msg = UplinkMessage(rho=0.5, payload=payload)
        assert ledger_cost(msg) == (msg.cost_floats, 32 * msg.cost_floats)


# few repeated values, signed zeros among them, mixed with ENTRY: ties in
# magnitude and in sign
TIED = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), ENTRY)


def tied_vectors(dim):
    return hnp.arrays(np.float64, dim, elements=TIED)


@st.composite
def error_feedback_cases(draw):
    dim = draw(st.integers(1, 12))
    return draw(tied_vectors(dim)), draw(tied_vectors(dim)), draw(st.integers(1, dim))


@settings(deadline=None, max_examples=150)
@given(case=error_feedback_cases())
@example(case=(np.array([-0.0, 2.0, -0.0]), np.array([-0.0, 0.0, -0.0]), 2))  # -0.0 kept and dropped
def test_topk_error_feedback_conserves_mass(case):
    g, residual, k = case
    payload, new_residual = ef_wrap(residual, g, lambda v: topk(v, k))
    sent, carried = payload.densify() + new_residual, g + residual
    assert np.array_equal(sent, carried)
    # bit for bit, except that -0.0 comes back as 0.0: x - x and 0.0 + x
    # round to +0.0 when x is -0.0
    differ = sent.view(np.int64) != carried.view(np.int64)
    assert not sent[differ].any() and not carried[differ].any()


@settings(deadline=None, max_examples=100)
@given(g=st.integers(1, 40).flatmap(tied_vectors))
def test_sign_densifies_to_the_signs(g):
    # M need not be a multiple of 8: the packed bits' padding is dropped
    dense = sign_compress(g).densify()
    assert dense.tobytes() == np.where(g >= 0, 1.0, -1.0).tobytes()  # sign(-0.0) = +1


@settings(deadline=None, max_examples=100)
@given(rows=st.integers(1, 6), cols=st.integers(1, 6), extra=st.integers(0, 3), data=st.data())
def test_full_rank_r_densifies_back_to_the_gradient(rows, cols, extra, data):
    g = data.draw(tied_vectors(rows * cols + cols))
    dense = rank_r(unpack(build_model("softmax_classifier", rows, cols), g),
                   min(rows, cols) + extra).densify()
    assert dense.shape == g.shape
    assert np.linalg.norm(dense - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_loss_and_gradient_invariant_under_batch_permutation_with_ties(kind, data):
    # few distinct values, and more rows than distinct samples: batches hold
    # whole duplicate samples and inputs shared across labels
    dim, classes = 3, 3
    value = st.sampled_from([-1.5, -0.25, 0.0, 0.5, 2.0])
    distinct = data.draw(st.integers(1, 5))
    inputs = data.draw(hnp.arrays(np.float64, (distinct, dim), elements=value))
    if kind == "linear_regression":
        labels = data.draw(hnp.arrays(np.float64, (distinct, classes), elements=value))
    else:
        labels = data.draw(hnp.arrays(np.int64, distinct, elements=st.integers(0, classes - 1)))
    rows = np.array(data.draw(st.lists(st.integers(0, distinct - 1),
                                       min_size=distinct + 1, max_size=12)))
    perm = np.array(data.draw(st.permutations(range(len(rows)))))
    model = build_model(kind, dim, classes, 4)
    theta = init_params(model, rng_stream(data.draw(st.integers(0, 2**16)), 0))
    batch = Dataset(inputs[rows], labels[rows], 0 if kind == "linear_regression" else classes)
    shuffled = batch.batch(perm)
    assert forward_loss(model, theta, batch) == forward_loss(model, theta, shuffled)
    assert np.array_equal(gradient(model, theta, batch), gradient(model, theta, shuffled))


def bytewise_order(batch):
    """The canonical order as a sort of the batch's own rows: a stable
    argsort of each row's bytes, labels (as float64) first, then inputs."""
    labels = np.asarray(batch.labels)
    if labels.ndim == 1:
        lab = labels.astype(np.float64).reshape(-1, 1)
    else:
        lab = labels.astype(np.float64)
    rows = np.ascontiguousarray(np.hstack([lab, batch.inputs]))
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.argsort(keys, kind="stable")


@st.composite
def datasets_with_ties(draw):
    """(dataset, idx): few distinct values, signed zeros among them, rows
    repeated within the dataset and within the batch, and class labels or
    one-hot regression targets."""
    dim, classes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    distinct = draw(st.integers(1, 5))
    value = st.sampled_from([-0.0, 0.0, -1.5, 0.5])
    inputs = draw(hnp.arrays(np.float64, (distinct, dim), elements=value))
    labels = draw(hnp.arrays(np.int64, distinct, elements=st.integers(0, classes - 1)))
    rows = np.array(draw(st.lists(st.integers(0, distinct - 1), min_size=1, max_size=10)))
    if draw(st.booleans()):
        ds = Dataset(inputs[rows], labels[rows], classes)
    else:
        ds = Dataset(inputs[rows], np.eye(classes)[labels[rows]], 0)
    idx = np.array(draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=12)))
    return ds, idx


@settings(deadline=None, max_examples=150)
@given(case=datasets_with_ties())
# 0.0 and -0.0 differ only in their bytes: a numeric sort would tie them
@example(case=(Dataset(np.array([[0.0], [-0.0], [0.0]]), np.zeros(3, dtype=np.int64), 1),
               np.array([1, 0, 2, 1])))
def test_canonical_order_is_the_bytewise_order_of_the_batch(case):
    ds, idx = case
    # the rows of idx as gathered, without ranks: a batch comes sorted
    gathered = Dataset(ds.inputs[idx], ds.labels[idx], ds.num_classes)
    order = bytewise_order(gathered)
    inputs, labels = _canonical_order(ds.batch(idx))
    # compare bytes: array_equal would take 0.0 and -0.0 for equal
    assert inputs.tobytes() == gathered.inputs[order].tobytes()
    assert labels.tobytes() == gathered.labels[order].tobytes()


@settings(deadline=None, max_examples=100)
@given(case=datasets_with_ties(), data=st.data())
def test_a_batch_of_a_batch_is_in_bytewise_order(case, data):
    ds, idx = case
    batch = ds.batch(idx)
    sub = np.array(data.draw(st.lists(st.integers(0, len(idx) - 1), min_size=1, max_size=12)))
    gathered = Dataset(batch.inputs[sub], batch.labels[sub], ds.num_classes)
    order = bytewise_order(gathered)
    inputs, labels = _canonical_order(batch.batch(sub))
    assert inputs.tobytes() == gathered.inputs[order].tobytes()
    assert labels.tobytes() == gathered.labels[order].tobytes()


# signed zeros, infinities, and NaNs whose payloads and sign bits differ
ORDER_VALUES = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, -np.nan,
                         *np.array([0x7FF0000000000001, 0x7FF8000000000123,
                                    0xFFF4000000000000], dtype=np.uint64).view(np.float64)])


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_content_order_is_the_stable_argsort_of_the_dense_ranks(data):
    n, dim = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 3))
    # few distinct values, drawn by index so that every NaN keeps its bits
    pick = st.integers(0, data.draw(st.integers(0, len(ORDER_VALUES) - 1)))
    inputs = ORDER_VALUES[data.draw(hnp.arrays(np.int64, (n, dim), elements=pick))]
    if data.draw(st.booleans()):
        labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 2)))
    else:  # float targets, one column or several
        labels = ORDER_VALUES[data.draw(hnp.arrays(np.int64, (n, data.draw(st.integers(1, 3))),
                                                   elements=pick))]
    want = np.argsort(content_rank(inputs, labels), kind="stable")
    assert np.array_equal(content_order(inputs, labels), want)


# on two or more rows of at least 9 columns, numpy 2.4's row max can give
# +0 where the column-major reduce gives -0, as on these rows
SIGNED_ZERO_MAX = np.array([[0.0] * 8 + [-0.0, -1.0]] * 2)


@st.composite
def row_arrays(draw, elements):
    n, k = draw(st.sampled_from([1, 2, 7, 32, 512])), draw(st.integers(1, 12))
    return draw(hnp.arrays(np.float64, (n, k), elements=elements))


@settings(deadline=None, max_examples=60)
@given(a=row_arrays(st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
                              st.floats(-1e3, 1e3))))
@example(a=SIGNED_ZERO_MAX)
def test_row_max_equals_the_row_major_max(a):
    got, want = _row_max(a), a.max(axis=1, keepdims=True)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    # max is order-free: only the sign of a zero maximum may differ
    assert np.all((got.view(np.int64) == want.view(np.int64)) | (want == 0.0))


def assert_loss_and_gradient_match_the_reference(model, theta, batch):
    loss = forward_loss(model, theta, batch)
    assert loss.hex() == model_oracle.reference_forward_loss(model, theta, batch).hex()
    got = gradient(model, theta, batch)
    assert got.tobytes() == model_oracle.reference_gradient(model, theta, batch).tobytes()
    if model.kind == "linear_regression":  # one-hot targets, read as their classes
        batch = Dataset(batch.inputs, batch.labels.argmax(axis=1), batch.labels.shape[1])
    acc = accuracy(model, theta, batch)
    assert acc.hex() == model_oracle.reference_accuracy(model, theta, batch).hex()


@pytest.mark.parametrize("kind", MODEL_KINDS)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_loss_and_gradient_are_bit_identical_to_the_row_major_reference(kind, data):
    dim, classes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 12))
    n = data.draw(st.sampled_from([1, 7, 32, 200, 512]))
    value = st.sampled_from([-0.0, 0.0, -1.5, -0.25, 0.5, 2.0])
    inputs = data.draw(hnp.arrays(np.float64, (n, dim), elements=value))
    labels = data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    model = build_model(kind, dim, classes, 3)
    theta = init_params(model, rng_stream(data.draw(st.integers(0, 2**16)), 0))
    if kind == "linear_regression":  # fits one-hot targets, as a run on labelled data does
        batch = Dataset(inputs, one_hot(labels, classes), 0)
    else:
        batch = Dataset(inputs, labels, classes)
    assert_loss_and_gradient_match_the_reference(model, theta, batch)


@settings(deadline=None, max_examples=60)
@given(logits=row_arrays(st.sampled_from([0.0, -0.0, -1.0, -2.5])), data=st.data())
@example(logits=SIGNED_ZERO_MAX, data=None)
def test_softmax_is_bit_identical_on_a_signed_zero_row_max(logits, data):
    # a matmul never returns -0.0, so the logits are set directly
    n, classes = logits.shape
    inputs = np.arange(n, dtype=np.float64).reshape(n, 1)
    labels = (np.zeros(n, dtype=np.int64) if data is None
              else data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, classes - 1))))
    model = build_model("softmax_classifier", 1, classes)
    theta = np.zeros(model.param_dim)

    def fixed_logits(model, params, x):
        return None, logits.copy()

    with mock.patch.object(models, "_forward", fixed_logits), \
            mock.patch.object(model_oracle, "forward", fixed_logits):
        assert_loss_and_gradient_match_the_reference(model, theta, Dataset(inputs, labels, classes))


@settings(deadline=None, max_examples=200)
@given(data=st.data())
@example(data=None)
def test_partition_equals_the_hand_dealt_reference(data):
    # labels are drawn freely, so some labels have no samples and shards
    # split with uneven residues; settings the partition rejects must be
    # rejected with the same message
    if data is None:  # the shipped non-iid setting: 10 workers, 3 labels each
        classes, k, mode, labels = 10, 10, "label_shard(3)", np.arange(500) % 10
    else:
        classes, k = data.draw(st.integers(2, 10)), data.draw(st.integers(1, 12))
        mode = data.draw(st.one_of(st.just("iid"), st.integers(1, classes).map(
            lambda s: f"label_shard({s})")))
        labels = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=1,
                                             max_size=60)), dtype=np.int64)
    ds = Dataset(np.zeros((len(labels), 1)), labels, classes)
    seed = 0 if data is None else data.draw(st.integers(0, 2**16))
    outcomes = []
    for split in (partition, reference_partition):
        rng = rng_stream(seed, 2**40 + 1)
        try:
            part = split(ds, k, mode, rng)
        except ValueError as exc:
            outcomes.append(("error", str(exc)))
        else:
            outcomes.append(([sh.tobytes() for sh in part.shards], part.weights.tobytes(),
                             [sh.dtype for sh in part.shards], rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


TINY = math.ulp(0.0)
FIELD_VALUES = {
    # the bounds of the checks are 0, 1 and 2
    int: st.one_of(st.integers(-3, 4), st.integers()),
    float: st.one_of(st.sampled_from([0.0, -0.0, TINY, -TINY, 1.0, math.nextafter(1.0, 0.0),
                                      math.nextafter(1.0, 2.0), math.nan, math.inf, -math.inf]),
                     st.floats()),
    str: st.one_of(st.sampled_from([*ALGORITHMS, *MODEL_KINDS, "synth", "idx", "iid",
                                    "label_shard(2)", "label_shard(0)", "inv_sqrt_tau_t", ""]),
                   st.text(string.ascii_letters + string.digits + "_()./-", max_size=12)),
    bool: st.booleans(),
}


def config_text(values):
    """Config text that sets each field named in `values`."""
    lines = []
    for f in fields(ExperimentConfig):  # the top-level fields come first
        if f.name in values:
            value = values[f.name]
            section = f.metadata["section"]
            lines += [f"[{section}]"] * bool(section)
            lines.append(f"{f.metadata['key'] or f.name} = "
                         f"{repr(value) if f.type is float else value}")
    return "\n".join(lines) + "\n"


def raises_config_error(make, *args, **kwargs):
    try:
        make(*args, **kwargs)
    except ConfigError:
        return True
    return False


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_config_text_and_the_constructor_reject_the_same_values(data):
    f = data.draw(st.sampled_from(fields(ExperimentConfig)))
    values = {"algorithm": data.draw(st.sampled_from(ALGORITHMS)),
              f.name: data.draw(FIELD_VALUES[f.type])}
    assert (raises_config_error(parse_config, config_text(values))
            == raises_config_error(ExperimentConfig, **values))
