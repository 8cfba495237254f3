"""Property tests for the look-back step, the ledger's cost oracle, the
compressors' round trips and error feedback, the models' canonical sample
order and their invariance under batch order."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedlbg.compressors import ef_wrap, rank_r, sign_compress, topk
from fedlbg.data import Dataset
from fedlbg.fl_core import ServerState
from fedlbg.harness import ledger_cost
from fedlbg.lbgm import DensePayload, UplinkMessage, lbp_error, look_back, reconstruct
from fedlbg.models import (
    MODEL_KINDS,
    _canonical_order,
    build_model,
    forward_loss,
    gradient,
    init_params,
)
from fedlbg.numerics import RngStream, dot, norm_sq

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
        server = ServerState(np.zeros_like(g))
        server.lbg_copies[0] = lbg
        assert np.array_equal(reconstruct(server, 0, msg), msg.rho * lbg)
        residual = dense - msg.rho * lbg
        bound = 1e-9 * math.sqrt(norm_sq(dense)) * math.sqrt(norm_sq(lbg))
        assert abs(dot(residual, lbg)) <= bound
        assert worker.lbg is lbg
    else:
        assert msg.payload is payload
        assert np.array_equal(worker.lbg, dense)


@settings(deadline=None, max_examples=100)
@given(rows=st.integers(1, 5), cols=st.integers(1, 5), rank=st.integers(1, 3), data=st.data())
def test_ledger_cost_is_the_message_cost(rows, cols, rank, data):
    dim = rows * cols + cols
    g = data.draw(hnp.arrays(np.float64, dim, elements=st.floats(-1e3, 1e3)))
    k = data.draw(st.integers(1, dim))
    payloads = (None, DensePayload(g), topk(g, k), sign_compress(g),
                rank_r(g, [(rows, cols), (1, cols)], rank))
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
    dense = rank_r(g, [(rows, cols), (1, cols)], min(rows, cols) + extra).densify()
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
    theta = init_params(model, RngStream(data.draw(st.integers(0, 2**16)), 0).generator())
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
    batch = ds.batch(idx)
    order = bytewise_order(batch)
    inputs, labels = _canonical_order(batch)
    # compare bytes: array_equal would take 0.0 and -0.0 for equal
    assert inputs.tobytes() == batch.inputs[order].tobytes()
    assert labels.tobytes() == batch.labels[order].tobytes()
