import math
from types import SimpleNamespace

import numpy as np
import pytest

from fedlbg.compressors import CompressedPolicy, sign_compress, topk
from fedlbg.fl_core import (
    ServerState,
    aggregate,
    build_experiment,
    local_round,
    run_with_policy,
)
from fedlbg.harness import ExperimentConfig, simulate
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
from fedlbg.numerics import RngStream, dot, norm_sq


def vec(*v):
    return np.asarray(v, dtype=np.float64)


def decide(g, lbg, delta):
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


def test_lbp_error_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lbp_error(vec(1, 2), vec(1, 2, 3))


def test_lbc_examples():
    g = vec(1.5, -2.0, 0.25)
    assert lbc(g, g) == 1.0
    assert lbc(2.0 * g, g) == 2.0
    assert lbc(vec(1, 2), vec(1, 0)) == 1.0


def test_lbc_zero_lbg_is_hard_error():
    with pytest.raises(ValueError, match="zero LBG"):
        lbc(vec(1, 2), vec(0, 0))


def test_gate_scale_invariance():
    rng = RngStream(11, 0).generator()
    for _ in range(100):
        g = rng.standard_normal(12)
        lbg = rng.standard_normal(12)
        for c in (2.0, -3.0, 1e-6):
            assert lbp_error(c * g, lbg) == pytest.approx(lbp_error(g, lbg), abs=1e-12)
            assert lbc(c * g, lbg) == pytest.approx(c * lbc(g, lbg), rel=1e-12)


def test_projection_identities():
    # residual after removing the projection is orthogonal to the LBG and
    # carries exactly the squared-sine share of the gradient energy
    rng = RngStream(12, 0).generator()
    for dim in (2, 10, 100):
        for _ in range(300):
            g = rng.standard_normal(dim)
            lbg = rng.standard_normal(dim)
            rho = lbc(g, lbg)
            resid = g - rho * lbg
            rhs = norm_sq(g) * lbp_error(g, lbg)
            assert norm_sq(resid) == pytest.approx(rhs, rel=1e-8, abs=1e-12)
            assert dot(resid, lbg) == pytest.approx(
                0.0, abs=1e-9 * math.sqrt(norm_sq(g) * norm_sq(lbg))
            )


def test_decide_message_first_round_sends_full():
    g = vec(1, 2, 3)
    msg = decide(g, None, 0.2)
    assert msg.tag == TAG_PAYLOAD
    assert msg.cost_floats == 3
    assert np.array_equal(msg.payload.densify(), g)


def test_decide_message_delta_one_always_scalar():
    g = vec(1, 2)
    lbg = vec(-5, 4)  # nearly opposite direction, still gated through
    msg = decide(g, lbg, 1.0)
    assert msg.tag == TAG_SCALAR
    assert msg.cost_floats == 1


def test_decide_message_delta_zero_sends_full_unless_collinear():
    assert decide(vec(1, 2), vec(1, 0), 0.0).tag == TAG_PAYLOAD
    assert decide(vec(2, 4), vec(1, 2), 0.0).tag == TAG_SCALAR  # exact collinear
    # ||g||^2 * ||lbg||^2 under- or overflows; the angle is still 45 degrees
    for scale in (1e-100, 1e80):
        g, lbg = scale * vec(1, 0), scale * vec(1, 1)
        assert lbp_error(g, lbg) == pytest.approx(0.5, rel=1e-15)
        assert decide(g, lbg, 0.0).tag == TAG_PAYLOAD


def test_decide_message_zero_gradient_sends_zero_scalar():
    msg = decide(vec(0, 0), vec(1, 2), 0.0)
    assert msg.tag == TAG_SCALAR and msg.rho == 0.0


def test_decide_message_zero_lbg_forces_full():
    msg = decide(vec(1, 2), vec(0, 0), 1.0)
    assert msg.tag == TAG_PAYLOAD


def test_reconstruct_scalar_and_full():
    server = ServerState(np.zeros(2))
    g = vec(3, -1)
    out = reconstruct(server, 0, decide(g, None, 0.2))
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


def base_config(**kw):
    cfg = dict(
        algorithm="lbgm", seed=7, n=400, test_n=100, dim=10, classes=5,
        separation=6.0, workers=4, rounds=10, batch_size=20, eta=0.05,
        hidden=8, partition_mode="label_shard(2)", model_kind="mlp1h", delta=0.2,
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def test_delta_zero_matches_vanilla_bit_for_bit():
    res_v = simulate(base_config(algorithm="vanilla"))
    res_l = simulate(base_config(delta=0.0))
    assert res_l.metrics.to_csv() == res_v.metrics.to_csv()
    assert res_l.ledger.to_csv() == res_v.ledger.to_csv()


def test_ledger_monotone_vs_vanilla():
    res_v = simulate(base_config(algorithm="vanilla", rounds=15))
    res_l = simulate(base_config(rounds=15))
    for rv, rl in zip(res_v.metrics.rows, res_l.metrics.rows):
        assert rl.cum_floats <= rv.cum_floats
    # round 1 initializes every LBG (equal cost); recycling bites from round 2
    for rv, rl in zip(res_v.metrics.rows[2:], res_l.metrics.rows[2:]):
        assert rl.cum_floats < rv.cum_floats


def test_server_and_worker_lbg_copies_stay_bit_identical():
    cfg = base_config(rounds=8)
    setup = build_experiment(cfg)
    policy = LbgmPolicy(cfg.delta)
    for t in range(8):
        g_tilde = {}
        for k, worker in enumerate(setup.workers):
            g = local_round(worker, setup.server.theta_global, setup.round_config,
                            setup.model, setup.train_ds)
            msg, _ = policy.process(worker, g)
            g_tilde[k] = reconstruct(setup.server, k, msg)
        aggregate(setup.server, g_tilde, setup.weights, setup.round_config.eta)
        for k, worker in enumerate(setup.workers):
            assert np.array_equal(setup.server.lbg_copies[k], worker.lbg)


def test_scalar_rounds_reduce_cost_and_log_fraction():
    res = simulate(base_config(rounds=12))
    fractions = [r.scalar_fraction for r in res.metrics.rows[1:]]
    assert fractions[0] == 0.0  # first round must initialize LBGs
    assert max(fractions) > 0.0
    assert all(0.0 <= f <= 1.0 for f in fractions)


def test_delta_sq_proxy_logged_and_finite():
    res = simulate(base_config(rounds=6))
    proxies = [r.delta_sq_proxy for r in res.metrics.rows]
    assert proxies[0] == 0.0
    assert all(np.isfinite(p) and p >= 0.0 for p in proxies)
    off = simulate(base_config(rounds=6, monitor_delta_sq=False))
    assert all(math.isnan(r.delta_sq_proxy) for r in off.metrics.rows)


def test_sampled_fraction_one_rescales_step_by_worker_count():
    # Algorithm-3 scaling: with every worker sampled, the update is the
    # full-participation update divided by K
    cfg = base_config(rounds=1)
    full = simulate(cfg)
    sampled = simulate(base_config(algorithm="lbgm_sampled", sample_fraction=1.0, rounds=1))
    setup = build_experiment(cfg)
    theta0 = setup.server.theta_global

    # reconstruct final thetas from scratch for comparison
    def final_theta(sample_fraction):
        s = build_experiment(cfg)
        policy = LbgmPolicy(cfg.delta)
        participants = list(range(4))
        eta = s.round_config.eta / (4 if sample_fraction else 1)
        g_tilde = {}
        for k in participants:
            g = local_round(s.workers[k], s.server.theta_global, s.round_config,
                            s.model, s.train_ds)
            msg, _ = policy.process(s.workers[k], g)
            g_tilde[k] = reconstruct(s.server, k, msg)
        aggregate(s.server, g_tilde, s.weights, eta)
        return s.server.theta_global

    delta_full = final_theta(False) - theta0
    delta_sampled = final_theta(True) - theta0
    np.testing.assert_allclose(delta_sampled, delta_full / 4.0, rtol=1e-12, atol=1e-15)
    assert len(sampled.metrics.rows) == len(full.metrics.rows)


def test_sampled_participant_counts_and_first_message():
    cfg = base_config(algorithm="lbgm_sampled", workers=10, n=600, rounds=12,
                      sample_fraction=0.5)
    res = simulate(cfg)
    setup = build_experiment(cfg)
    m = setup.model.param_dim
    by_round = {}
    first_seen = {}
    for rnd, worker, floats in res.ledger.rows:
        by_round.setdefault(rnd, []).append(worker)
        if worker not in first_seen:
            first_seen[worker] = floats
    for rnd, workers in by_round.items():
        assert len(workers) == 5, f"round {rnd} had {len(workers)} participants"
        assert len(set(workers)) == 5
    for worker, floats in first_seen.items():
        assert floats == m, f"worker {worker} first message was not a full gradient"


def test_policies_validate_delta_and_sample_fraction():
    with pytest.raises(ValueError, match="not in"):
        LbgmPolicy(1.5)
    with pytest.raises(ValueError, match="not in"):
        CompressedPolicy(sign_compress, delta=-0.1)
    setup = build_experiment(base_config())
    for fraction in (0.0, 1.5):
        with pytest.raises(ValueError, match="not in"):
            run_with_policy(setup, LbgmPolicy(0.2), sample_fraction=fraction)
