from types import SimpleNamespace

import numpy as np
import pytest

from fedlbg.compressors import (
    CompressedPolicy,
    ef_wrap,
    majority_sign,
    rank_r,
    sign_compress,
    stack_lbgm,
    topk,
)
from fedlbg.fl_core import build_experiment, run_with_policy
from fedlbg.harness import policy_for, simulate
from fedlbg.lbgm import FLOAT_BITS, TAG_PAYLOAD, TAG_SCALAR, DensePayload
from fedlbg.models import build_model, unpack
from fedlbg.numerics import rng_stream
from support import federated_config, vec


def brute_force_topk(g, k):
    """Oracle: sort all coordinates by (-|value|, index), take the first k."""
    order = sorted(range(len(g)), key=lambda i: (-abs(g[i]), i))
    keep = sorted(order[:k])
    return keep, [g[i] for i in keep]


def test_topk_full_k_is_dense():
    g = vec(0.5, -1.0, 2.0)
    p = topk(g, 3)
    assert np.array_equal(p.densify(), g)
    assert p.cost_floats == 6


def test_topk_single_max_magnitude():
    p = topk(vec(0.1, -3.0, 2.0), 1)
    assert np.array_equal(p.indices, [1])
    assert np.array_equal(p.values, [-3.0])


def test_topk_tie_break_lower_index():
    p = topk(vec(1.0, -1.0, 1.0), 2)
    keep, vals = brute_force_topk([1.0, -1.0, 1.0], 2)
    assert np.array_equal(p.indices, keep)
    assert np.array_equal(p.values, vals)
    assert list(p.indices) == [0, 1]


def test_topk_matches_brute_force_oracle():
    rng = rng_stream(20, 0)
    for _ in range(50):
        g = np.round(rng.standard_normal(30), 1)  # rounding forces ties
        k = int(rng.integers(1, 31))
        p = topk(g, k)
        keep, vals = brute_force_topk(list(g), k)
        assert np.array_equal(p.indices, keep)
        assert np.array_equal(p.values, vals)


def test_topk_idempotent():
    rng = rng_stream(21, 0)
    g = rng.standard_normal(40)
    p = topk(g, 7)
    again = topk(p.densify(), 7)
    assert np.array_equal(p.indices, again.indices)
    assert np.array_equal(p.values, again.values)


def test_ef_lossless_compressor_keeps_residual_zero():
    rng = rng_stream(23, 0)
    residual = np.zeros(16)
    for _ in range(5):
        payload, residual = ef_wrap(residual, rng.standard_normal(16), DensePayload)
        assert np.array_equal(residual, np.zeros(16))

    # top-k with k = M is also lossless
    _, residual = ef_wrap(np.zeros(16), rng.standard_normal(16), lambda v: topk(v, 16))
    assert np.array_equal(residual, np.zeros(16))


def test_sign_examples():
    p = sign_compress(vec(-0.5, 2.0))
    assert np.array_equal(p.densify(), vec(-1.0, 1.0))
    assert sign_compress(np.zeros(3)).densify().tolist() == [1.0, 1.0, 1.0]
    assert FLOAT_BITS * p.cost_floats == 2
    assert p.cost_floats == 2 / 32


def test_sign_positive_scale_invariance():
    rng = rng_stream(24, 0)
    g = rng.standard_normal(100)
    assert np.array_equal(sign_compress(g).densify(), sign_compress(4.0 * g).densify())


def test_sign_odd_length_roundtrip():
    g = vec(1, -1, 1, -1, -1, 1, 1, -1, -1, 1, -1)  # 11 coords, not byte aligned
    assert np.array_equal(sign_compress(g).densify(), g)


def test_rank_r_exact_on_rank_one_block():
    rng = rng_stream(25, 0)
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    g = np.outer(u, v).ravel()
    p = rank_r([g.reshape(6, 4)], 1)
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)


def test_rank_r_full_rank_is_exact():
    rng = rng_stream(26, 0)
    g = rng.standard_normal(12)
    p = rank_r([g.reshape(4, 3)], 3)
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)


def test_rank_r_hand_svd_oracle():
    # block ((2,0),(0,1)): singular values 2 and 1, rank-1 keeps ((2,0),(0,0))
    g = vec(2, 0, 0, 1)
    p = rank_r([g.reshape(2, 2)], 1)
    np.testing.assert_allclose(p.densify(), vec(2, 0, 0, 0), atol=1e-12)
    assert p.cost_floats == 4  # 1 * (2 + 2)


def test_rank_r_clamps_and_passes_vectors_dense():
    rng = rng_stream(27, 0)
    g = rng.standard_normal(2 * 3 + 1 * 3)
    # a (2, 3) weight and a (1, 3) bias; r clamped to 2 for the matrix block
    p = rank_r(unpack(build_model("softmax_classifier", 2, 3), g), 5)
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)
    assert p.cost_floats == 2 * (2 + 3) + 3


def test_rank_r_error_non_increasing_in_r():
    rng = rng_stream(28, 0)
    block = rng.standard_normal((8, 6))
    g = block.ravel()
    errors = []
    for r in range(1, 7):
        p = rank_r([block], r)
        errors.append(float(np.linalg.norm(p.densify() - g)))
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


def test_rank_r_deterministic_sign_convention():
    rng = rng_stream(29, 0)
    g = rng.standard_normal(30)
    a = rank_r([g.reshape(5, 6)], 2)
    b = rank_r([g.copy().reshape(5, 6)], 2)
    for (ua, va), (ub, vb) in zip(a.blocks, b.blocks):
        assert np.array_equal(ua, ub) and np.array_equal(va, vb)
        for col in range(ua.shape[1]):
            nz = np.flatnonzero(np.abs(ua[:, col]) > 1e-12)
            if len(nz):
                assert ua[nz[0], col] > 0


def test_stack_lbgm_gate_and_costs():
    g = vec(1.0, 2.0, 0.0, 0.0)
    p = topk(g, 2)
    worker = SimpleNamespace(lbg=None)
    first, sin2 = stack_lbgm(worker, p, 0.2)
    assert first.tag == TAG_PAYLOAD and first.payload is p and sin2 == 0.0
    assert first.cost_floats == 4
    assert np.array_equal(worker.lbg, p.densify())  # a send becomes the LBG

    worker = SimpleNamespace(lbg=topk(2.0 * g, 2).densify())
    aligned, sin2 = stack_lbgm(worker, p, 0.2)
    assert aligned.tag == TAG_SCALAR and aligned.rho == pytest.approx(0.5)
    assert sin2 == pytest.approx(0.0, abs=1e-15)

    worker = SimpleNamespace(lbg=topk(vec(0.0, 0.0, 3.0, 1.0), 2).densify())
    rotated, sin2 = stack_lbgm(worker, p, 0.2)
    assert rotated.tag == TAG_PAYLOAD and sin2 == 1.0


def test_identity_compressor_reduces_to_plain_lbgm():
    setup = build_experiment(federated_config("topk"))
    stacked = run_with_policy(setup, CompressedPolicy(DensePayload, delta=0.2))
    plain = simulate(federated_config("lbgm", delta=0.2))
    assert stacked.metrics.to_csv() == plain.metrics.to_csv()
    assert stacked.ledger.to_csv() == plain.ledger.to_csv()


def test_delta_zero_stacking_matches_baseline_ledger():
    baseline = simulate(federated_config("topk"))
    gated = simulate(federated_config("topk_lbgm", delta=0.0))
    assert gated.ledger.to_csv() == baseline.ledger.to_csv()


def test_sign_lbgm_bit_ledger_monotone_vs_sign():
    cfg = dict(model_kind="softmax_classifier", batch_size=0, rounds=15,
               partition_mode="iid", eta=0.01, delta=0.7)
    baseline = simulate(federated_config("sign", **cfg))
    stacked = simulate(federated_config("sign_lbgm", **cfg))
    for rb, rs in zip(baseline.metrics.rows, stacked.metrics.rows):
        assert rs.cum_bits <= rb.cum_bits


def test_sign_majority_vote_flag_changes_aggregation():
    plain = simulate(federated_config("sign", partition_mode="iid", eta=0.01))
    majority = simulate(
        federated_config("sign", partition_mode="iid", eta=0.01, sign_majority=True)
    )
    assert plain.metrics.to_csv() != majority.metrics.to_csv()
    assert plain.ledger.to_csv() == majority.ledger.to_csv()  # same wire traffic


def test_error_feedback_only_for_topk():
    model = build_experiment(federated_config("topk")).model

    def ef(algorithm, **kw):
        return policy_for(federated_config(algorithm, **kw), model).error_feedback

    assert ef("topk")
    assert not ef("topk", error_feedback=False)
    assert not ef("sign")
    assert not ef("rank_r")


# on M = 133, 0.3 * M = 39.9 keeps 40: k is rounded, not truncated; and
# 0.5 * M = 66.5 keeps 66: a half is rounded to even, not up
@pytest.mark.parametrize("k_frac,kept", [(1e-12, lambda m: 1), (1.0, lambda m: m),
                                         (0.3, lambda m: 40), (0.5, lambda m: 66)],
                         ids=["smallest", "whole", "rounded", "half_even"])
def test_policy_for_keeps_topk_k_within_the_vector(k_frac, kept):
    # the config's k_frac range, rounded by policy_for, is topk's only source of k
    model = build_experiment(federated_config("topk")).model
    m = model.param_dim
    g = rng_stream(22, 0).standard_normal(m)
    payload = policy_for(federated_config("topk", k_frac=k_frac, error_feedback=False),
                         model).compress(g)
    assert len(payload.indices) == kept(m)
    assert np.array_equal(payload.indices, np.sort(np.argsort(-np.abs(g))[:kept(m)]))


def test_majority_sign_sends_an_exact_zero_sum_to_plus_one():
    # a tied vote steps like a zero coordinate in sign_compress, whichever
    # zero the weighted sum rounds to
    votes = majority_sign(vec(0.0, -0.0, 5e-324, -5e-324, -2.0))
    assert votes.tolist() == [1.0, 1.0, 1.0, -1.0, -1.0]
