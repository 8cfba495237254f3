from types import SimpleNamespace

import numpy as np
import pytest

from fedlbg.compressors import CompressedPolicy, topk
from fedlbg.fl_core import (
    ServerState,
    aggregate,
    build_experiment,
    local_round,
    run_with_policy,
)
from fedlbg.harness import simulate
from fedlbg.lbgm import (
    DensePayload,
    LbgmPolicy,
    TAG_PAYLOAD,
    TAG_SCALAR,
    UplinkMessage,
    lbc,
    lbp_error,
    look_back,
    reconstruct,
)
from fedlbg.numerics import rng_stream
from support import federated_config, vec


def look_back_message(g, lbg, delta):
    """The message of one look-back step on a full gradient."""
    return look_back(SimpleNamespace(lbg=lbg), DensePayload(g), g, delta)[0]


def test_lbp_error_collinear_is_zero():
    assert lbp_error(vec(3, 6), vec(1, 2)) == 0.0  # g = 3 * lbg


def test_lbp_error_orthogonal_is_one():
    assert lbp_error(vec(0, 2), vec(5, 0)) == 1.0


def test_lbp_error_hand_value():
    assert lbp_error(vec(1, 2), vec(1, 0)) == pytest.approx(0.8, abs=1e-12)


def test_lbp_error_zero_cases():
    assert lbp_error(vec(0, 0), vec(1, 2)) == 0.0
    assert lbp_error(vec(1, 2), vec(0, 0)) == 1.0


def test_lbp_error_of_a_gradient_whose_squared_norm_underflows():
    g = vec(2.0**-600, 0)  # nonzero, but norm_sq(g) == 0.0; exact once rescaled
    assert lbp_error(g, vec(1, 1)) == lbp_error(vec(1, 0), vec(1, 1))
    assert lbp_error(vec(1e-163, 0), vec(1, 1)) == pytest.approx(0.5, rel=1e-15)
    assert lbp_error(g, vec(0, 1)) == 1.0
    assert lbp_error(g, vec(0, 0)) == 1.0
    assert lbp_error(vec(1, 2), g) == 1.0  # such an LBG gives no coefficient


def test_lbp_error_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lbp_error(vec(1, 2), vec(1, 2, 3))


def test_lbc_examples():
    g = vec(1.5, -2.0, 0.25)
    assert lbc(g, g) == 1.0
    assert lbc(2.0 * g, g) == 2.0
    assert lbc(vec(1, 2), vec(1, 0)) == 1.0


def test_gate_scale_invariance():
    rng = rng_stream(11, 0)
    for _ in range(100):
        g = rng.standard_normal(12)
        lbg = rng.standard_normal(12)
        for c in (2.0, -3.0, 1e-6):
            assert lbp_error(c * g, lbg) == pytest.approx(lbp_error(g, lbg), abs=1e-12)
            assert lbc(c * g, lbg) == pytest.approx(c * lbc(g, lbg), rel=1e-12)


def test_look_back_first_round_sends_full():
    g = vec(1, 2, 3)
    msg = look_back_message(g, None, 0.2)
    assert msg.tag == TAG_PAYLOAD
    assert msg.cost_floats == 3
    assert np.array_equal(msg.payload.densify(), g)


def test_look_back_delta_one_always_scalar():
    g = vec(1, 2)
    lbg = vec(-5, 4)  # nearly opposite direction, still gated through
    msg = look_back_message(g, lbg, 1.0)
    assert msg.tag == TAG_SCALAR
    assert msg.cost_floats == 1


def test_look_back_delta_zero_sends_full_unless_collinear():
    assert look_back_message(vec(1, 2), vec(1, 0), 0.0).tag == TAG_PAYLOAD
    assert look_back_message(vec(2, 4), vec(1, 2), 0.0).tag == TAG_SCALAR  # exact collinear
    # ||g||^2 * ||lbg||^2 under- or overflows; the angle is still 45 degrees
    for scale in (1e-100, 1e80):
        g, lbg = scale * vec(1, 0), scale * vec(1, 1)
        assert lbp_error(g, lbg) == pytest.approx(0.5, rel=1e-15)
        assert look_back_message(g, lbg, 0.0).tag == TAG_PAYLOAD


def test_look_back_zero_gradient_sends_zero_scalar():
    msg = look_back_message(vec(0, 0), vec(1, 2), 0.0)
    assert msg.tag == TAG_SCALAR and msg.rho == 0.0


def test_look_back_gates_a_gradient_whose_squared_norm_underflows():
    lbg = vec(1, 1e-3)
    g = vec(2.0**-600, 0)
    msg, sin2 = look_back(SimpleNamespace(lbg=lbg), DensePayload(g), g, 0.2)
    assert sin2 == lbp_error(vec(1, 0), lbg) > 0.0
    assert msg.tag == TAG_SCALAR and msg.rho == lbc(g, lbg) > 0.0
    worker = SimpleNamespace(lbg=lbg)
    msg, sin2 = look_back(worker, DensePayload(g), g, 0.0)
    assert msg.tag == TAG_PAYLOAD and worker.lbg is g


def test_look_back_zero_lbg_forces_full():
    msg = look_back_message(vec(1, 2), vec(0, 0), 1.0)
    assert msg.tag == TAG_PAYLOAD


def test_reconstruct_scalar_and_full():
    server = ServerState(np.zeros(2))
    g = vec(3, -1)
    out = reconstruct(server, 0, look_back_message(g, None, 0.2))
    assert np.array_equal(out, g)
    assert np.array_equal(server.lbg_copies[0], g)

    out = reconstruct(server, 0, UplinkMessage(rho=0.0))
    assert np.array_equal(out, np.zeros(2))
    assert np.array_equal(server.lbg_copies[0], g)  # untouched by scalars

    server.lbg_copies[1] = vec(2, 4)
    out = reconstruct(server, 1, UplinkMessage(rho=0.5))
    assert np.array_equal(out, vec(1, 2))


def test_reconstruct_scalar_without_lbg_is_protocol_violation():
    server = ServerState(np.zeros(2))
    with pytest.raises(ValueError, match="no server-side LBG"):
        reconstruct(server, 7, UplinkMessage(rho=1.0))


def test_constant_gradient_stream_sends_exactly_one_full():
    # protocol-level fixture: with an unchanging accumulated gradient the
    # worker transmits the vector once and scalars ever after
    class Holder:
        lbg = None

    policy = LbgmPolicy(0.2)
    worker = Holder()
    g = vec(0.5, -1.5, 2.0)
    tags = []
    recon = []
    server = ServerState(np.zeros(3))
    for _ in range(10):
        msg, _ = policy.process(worker, g.copy())
        tags.append(msg.tag)
        recon.append(reconstruct(server, 0, msg))
    assert tags.count(TAG_PAYLOAD) == 1 and tags[0] == TAG_PAYLOAD
    for r in recon:
        assert np.array_equal(r, g)  # rho = 1 replays exactly


def test_full_send_stores_one_read_only_vector():
    # payload, worker LBG and server LBG may share one buffer, so none of
    # them can be written through
    worker = SimpleNamespace(lbg=None)
    server = ServerState(np.zeros(3))
    g = vec(0.5, -1.5, 2.0)
    msg, _ = LbgmPolicy(0.2).process(worker, g)
    reconstruct(server, 0, msg)
    for stored in (worker.lbg, server.lbg_copies[0], msg.payload.values):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0
    assert np.array_equal(worker.lbg, vec(0.5, -1.5, 2.0))

    policy = CompressedPolicy(lambda v: topk(v, 2), 0.2)
    worker = SimpleNamespace(lbg=None, ef_residual=None)
    msg, _ = policy.process(worker, g)
    reconstruct(server, 1, msg)
    for stored in (worker.lbg, server.lbg_copies[1]):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


def test_delta_zero_matches_vanilla_bit_for_bit():
    res_v = simulate(federated_config("vanilla"))
    res_l = simulate(federated_config("lbgm", delta=0.0))
    assert res_l.metrics.to_csv() == res_v.metrics.to_csv()
    assert res_l.ledger.to_csv() == res_v.ledger.to_csv()


def test_ledger_monotone_vs_vanilla():
    res_v = simulate(federated_config("vanilla", rounds=15))
    res_l = simulate(federated_config("lbgm", delta=0.2, rounds=15))
    for rv, rl in zip(res_v.metrics.rows, res_l.metrics.rows):
        assert rl.cum_floats <= rv.cum_floats
    # round 1 initializes every LBG (equal cost); recycling bites from round 2
    for rv, rl in zip(res_v.metrics.rows[2:], res_l.metrics.rows[2:]):
        assert rl.cum_floats < rv.cum_floats


def test_server_and_worker_lbg_copies_stay_bit_identical():
    cfg = federated_config("lbgm", delta=0.2, rounds=8)
    setup = build_experiment(cfg)
    policy = LbgmPolicy(cfg.delta)
    for t in range(8):
        g_tilde = {}
        for k, worker in enumerate(setup.workers):
            g, _ = local_round(worker, setup.server.theta_global, setup.round_config,
                               setup.model, setup.train_ds)
            msg, _ = policy.process(worker, g)
            g_tilde[k] = reconstruct(setup.server, k, msg)
        aggregate(setup.server, g_tilde, setup.weights, setup.round_config.eta)
        for k, worker in enumerate(setup.workers):
            assert np.array_equal(setup.server.lbg_copies[k], worker.lbg)


def test_scalar_rounds_reduce_cost_and_log_fraction():
    res = simulate(federated_config("lbgm", delta=0.2, rounds=12))
    fractions = [r.scalar_fraction for r in res.metrics.rows[1:]]
    assert fractions[0] == 0.0  # first round must initialize LBGs
    assert max(fractions) > 0.0
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_delta_sq_proxy_logged_and_finite():
    res = simulate(federated_config("lbgm", delta=0.2, rounds=6))
    proxies = [r.delta_sq_proxy for r in res.metrics.rows]
    assert proxies[0] == 0.0
    assert all(np.isfinite(p) and p >= 0.0 for p in proxies)


def test_run_with_policy_validates_sample_fraction():
    setup = build_experiment(federated_config("lbgm"))
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="not in"):
            run_with_policy(setup, LbgmPolicy(0.2), sample_fraction=fraction)
