from types import SimpleNamespace

import numpy as np
import pytest

from fedlbg.compressors import (
    CompressedPolicy,
    LowRankPayload,
    SignPayload,
    SparsePayload,
    ef_wrap,
    rank_r,
    sign_compress,
    stack_lbgm,
    topk,
)
from fedlbg.fl_core import build_experiment, run_with_policy
from fedlbg.harness import ExperimentConfig, policy_for, simulate
from fedlbg.lbgm import FLOAT_BITS, TAG_PAYLOAD, TAG_SCALAR, DensePayload
from fedlbg.numerics import RngStream


def vec(*v):
    return np.asarray(v, dtype=np.float64)


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
    rng = RngStream(20, 0).generator()
    for _ in range(50):
        g = np.round(rng.standard_normal(30), 1)  # rounding forces ties
        k = int(rng.integers(1, 31))
        p = topk(g, k)
        keep, vals = brute_force_topk(list(g), k)
        assert np.array_equal(p.indices, keep)
        assert np.array_equal(p.values, vals)


def test_topk_range_errors():
    with pytest.raises(ValueError, match="out of range"):
        topk(vec(1, 2), 0)
    with pytest.raises(ValueError, match="out of range"):
        topk(vec(1, 2), 3)


def test_topk_idempotent():
    rng = RngStream(21, 0).generator()
    g = rng.standard_normal(40)
    p = topk(g, 7)
    again = topk(p.densify(), 7)
    assert np.array_equal(p.indices, again.indices)
    assert np.array_equal(p.values, again.values)


def test_ef_conservation_exact():
    rng = RngStream(22, 0).generator()
    m = 200
    for k in (2, 20, 200):
        residual = np.zeros(m)
        g_prev_sum = np.zeros(m)
        for _ in range(20):
            g = rng.standard_normal(m)
            payload, new_residual = ef_wrap(residual, g, lambda v: topk(v, k))
            assert np.array_equal(payload.densify() + new_residual, g + residual)
            residual = new_residual
            g_prev_sum += g


def test_ef_lossless_compressor_keeps_residual_zero():
    rng = RngStream(23, 0).generator()
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
    rng = RngStream(24, 0).generator()
    g = rng.standard_normal(100)
    assert np.array_equal(sign_compress(g).densify(), sign_compress(4.0 * g).densify())


def test_sign_odd_length_roundtrip():
    g = vec(1, -1, 1, -1, -1, 1, 1, -1, -1, 1, -1)  # 11 coords, not byte aligned
    assert np.array_equal(sign_compress(g).densify(), g)


def layer_shapes_for(blocks):
    return tuple(blocks)


def test_rank_r_exact_on_rank_one_block():
    rng = RngStream(25, 0).generator()
    u = rng.standard_normal(6)
    v = rng.standard_normal(4)
    g = np.outer(u, v).ravel()
    p = rank_r(g, [(6, 4)], 1)
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)


def test_rank_r_full_rank_is_exact():
    rng = RngStream(26, 0).generator()
    g = rng.standard_normal(12)
    p = rank_r(g, [(4, 3)], 3)
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)


def test_rank_r_hand_svd_oracle():
    # block ((2,0),(0,1)): singular values 2 and 1, rank-1 keeps ((2,0),(0,0))
    g = vec(2, 0, 0, 1)
    p = rank_r(g, [(2, 2)], 1)
    np.testing.assert_allclose(p.densify(), vec(2, 0, 0, 0), atol=1e-12)
    assert p.cost_floats == 4  # 1 * (2 + 2)


def test_rank_r_clamps_and_passes_vectors_dense():
    rng = RngStream(27, 0).generator()
    g = rng.standard_normal(2 * 3 + 1 * 3)
    p = rank_r(g, [(2, 3), (1, 3)], 5)  # r clamped to 2 for the matrix block
    np.testing.assert_allclose(p.densify(), g, rtol=1e-9, atol=1e-12)
    assert p.cost_floats == 2 * (2 + 3) + 3


def test_rank_r_error_non_increasing_in_r():
    rng = RngStream(28, 0).generator()
    block = rng.standard_normal((8, 6))
    g = block.ravel()
    errors = []
    for r in range(1, 7):
        p = rank_r(g, [(8, 6)], r)
        errors.append(float(np.linalg.norm(p.densify() - g)))
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


def test_rank_r_deterministic_sign_convention():
    rng = RngStream(29, 0).generator()
    g = rng.standard_normal(30)
    a = rank_r(g, [(5, 6)], 2)
    b = rank_r(g.copy(), [(5, 6)], 2)
    for (ka, ua, va), (kb, ub, vb) in zip(a.blocks, b.blocks):
        assert np.array_equal(ua, ub) and np.array_equal(va, vb)
        for col in range(ua.shape[1]):
            nz = np.flatnonzero(np.abs(ua[:, col]) > 1e-12)
            if len(nz):
                assert ua[nz[0], col] > 0


def test_rank_r_rejects_bad_rank():
    with pytest.raises(ValueError, match="rank"):
        rank_r(vec(1, 2, 3, 4), [(2, 2)], 0)


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


def base_config(**kw):
    cfg = dict(
        algorithm="topk", seed=7, n=400, test_n=100, dim=10, classes=5,
        separation=6.0, workers=4, rounds=10, batch_size=20, eta=0.05,
        hidden=8, partition_mode="label_shard(2)", model_kind="mlp1h", delta=0.5,
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def test_identity_compressor_reduces_to_plain_lbgm():
    setup = build_experiment(base_config(delta=0.2))
    stacked = run_with_policy(setup, CompressedPolicy(DensePayload, delta=0.2))
    plain = simulate(base_config(algorithm="lbgm", delta=0.2))
    assert stacked.metrics.to_csv() == plain.metrics.to_csv()
    assert stacked.ledger.to_csv() == plain.ledger.to_csv()


def test_delta_zero_stacking_matches_baseline_ledger():
    baseline = simulate(base_config(algorithm="topk"))
    gated = simulate(base_config(algorithm="topk_lbgm", delta=0.0))
    assert gated.ledger.to_csv() == baseline.ledger.to_csv()


def test_stacked_topk_saves_floats_at_matched_rounds():
    cfg = dict(model_kind="softmax_classifier", batch_size=0, rounds=20)
    baseline = simulate(base_config(algorithm="topk", **cfg))
    stacked = simulate(base_config(algorithm="topk_lbgm", **cfg))
    assert stacked.metrics.final().cum_floats < baseline.metrics.final().cum_floats


def test_sign_lbgm_bit_ledger_monotone_vs_sign():
    cfg = dict(model_kind="softmax_classifier", batch_size=0, rounds=15,
               partition_mode="iid", eta=0.01, delta=0.7)
    baseline = simulate(base_config(algorithm="sign", **cfg))
    stacked = simulate(base_config(algorithm="sign_lbgm", **cfg))
    for rb, rs in zip(baseline.metrics.rows, stacked.metrics.rows):
        assert rs.cum_bits <= rb.cum_bits


def test_sign_majority_vote_flag_changes_aggregation():
    plain = simulate(base_config(algorithm="sign", partition_mode="iid", eta=0.01))
    majority = simulate(
        base_config(algorithm="sign", partition_mode="iid", eta=0.01, sign_majority=True)
    )
    assert plain.metrics.to_csv() != majority.metrics.to_csv()
    assert plain.ledger.to_csv() == majority.ledger.to_csv()  # same wire traffic


def test_error_feedback_only_for_topk():
    model = build_experiment(base_config()).model

    def ef(**kw):
        return policy_for(base_config(**kw), model).error_feedback

    assert ef(algorithm="topk")
    assert not ef(algorithm="topk", error_feedback=False)
    assert not ef(algorithm="sign")
    assert not ef(algorithm="rank_r")
