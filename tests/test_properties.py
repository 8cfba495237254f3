"""Property tests for the look-back step and the ledger's cost oracle."""

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedlbg.compressors import rank_r, sign_compress, topk
from fedlbg.fl_core import ServerState
from fedlbg.harness import ledger_cost
from fedlbg.lbgm import DensePayload, UplinkMessage, lbp_error, look_back, reconstruct
from fedlbg.numerics import dot, norm_sq

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
