import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedlbg import models
from fedlbg.data import Dataset, synth_classification
from fedlbg.fl_core import (
    CommLedger,
    RoundConfig,
    ServerState,
    WorkerState,
    aggregate,
    build_experiment,
    evaluate,
    local_round,
)
from fedlbg.harness import ExperimentConfig, parse_config, simulate
from fedlbg.models import build_model, gradient
from fedlbg.numerics import rng_stream
import reference_sim
from support import CONFIGS


def quadratic_fixture():
    """Paired +-x samples with zero targets: loss = (w^2 + b^2) / 2.

    With theta0 = (1, 0) the bias never moves, so the w-coordinate follows
    the scalar quadratic f(w) = w^2 / 2 exactly.
    """
    model = build_model("linear_regression", 1, 1)
    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([[0.0], [0.0]]), 0)
    return model, ds


def make_worker(n, seed=0):
    return WorkerState(np.arange(n), rng_stream(seed, 0))


def test_local_round_tau_one_full_batch_is_single_gradient():
    model, ds = quadratic_fixture()
    worker = make_worker(2)
    theta0 = np.array([1.0, 0.0])
    g, theta = local_round(worker, theta0, RoundConfig(0.1, 1, 0), model, ds)
    expected = gradient(model, theta0, ds)
    assert np.array_equal(g, expected)
    assert np.array_equal(theta, theta0 - 0.1 * expected)


def test_local_round_stationary_point():
    model, ds = quadratic_fixture()
    worker = make_worker(2)
    theta0 = np.zeros(2)
    g, theta = local_round(worker, theta0, RoundConfig(0.1, 3, 0), model, ds)
    assert np.array_equal(g, np.zeros(2))
    assert np.array_equal(theta, theta0)


def test_local_round_two_step_quadratic_oracle():
    # hand-rolled: w0 = 1, g1 = 1, w1 = 0.9, g2 = 0.9, accumulated 1.9
    model, ds = quadratic_fixture()
    worker = make_worker(2)
    g, theta = local_round(worker, np.array([1.0, 0.0]), RoundConfig(0.1, 2, 0), model, ds)
    assert np.array_equal(g, np.array([1.9, 0.0]))
    assert np.array_equal(theta, np.array([1.0 - 0.1 - 0.09, 0.0]))


def test_local_round_rejects_overflowing_step():
    # the gradient (1e300) is finite; the step 1e300 * 1e300 is not
    model, ds = quadratic_fixture()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="local model"):
        local_round(make_worker(2), np.array([1e300, 0.0]), RoundConfig(1e300, 1, 0), model, ds)


def test_local_round_minibatches_cover_epoch_without_replacement():
    ds = synth_classification(10, 2, 2, 1.0, rng_stream(1, 9))
    worker = make_worker(10, seed=2)
    seen = []
    for _ in range(5):  # batch_size 4 over 10 samples: pass boundary at step 3
        batch = worker.next_batch(ds, 4)
        seen.append(batch.inputs.copy())
    first_pass = np.concatenate(seen[:3])
    assert first_pass.shape[0] == 10
    # every sample appears exactly once per pass
    assert np.unique(first_pass, axis=0).shape[0] == 10


def test_aggregate_identical_gradients():
    server = ServerState(np.array([1.0, 1.0]))
    g = np.array([2.0, -4.0])
    theta = aggregate(server, {0: g, 1: g}, {0: 0.5, 1: 0.5}, 0.1)
    assert np.array_equal(theta, np.array([1.0, 1.0]) - 0.1 * g)


def test_aggregate_zero_gradients_fixed_point():
    server = ServerState(np.array([3.0, -1.0]))
    theta = aggregate(server, {0: np.zeros(2)}, {0: 1.0}, 0.5)
    assert np.array_equal(theta, np.array([3.0, -1.0]))


def test_aggregate_hand_example():
    server = ServerState(np.zeros(2))
    grads = {0: np.array([4.0, 0.0]), 1: np.array([0.0, 4.0])}
    theta = aggregate(server, grads, {0: 0.25, 1: 0.75}, 1.0)
    assert np.array_equal(theta, np.array([-1.0, -3.0]))


def test_aggregate_dimension_mismatch():
    server = ServerState(np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        aggregate(server, {0: np.zeros(3)}, {0: 1.0}, 0.1)


def test_aggregate_rejects_overflowing_step():
    server = ServerState(np.array([-1e308, 0.0]))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="server model"):
        aggregate(server, {0: np.array([1e308, 0.0])}, {0: 1.0}, 1.0)


def base_config(**kw):
    cfg = dict(
        algorithm="vanilla", seed=5, n=200, test_n=80, dim=6, classes=4,
        separation=6.0, workers=4, rounds=5, batch_size=10, eta=0.05,
        hidden=8, partition_mode="iid",
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def test_run_vanilla_zero_rounds_has_only_initial_row():
    res = simulate(base_config(rounds=0))
    assert len(res.metrics.rows) == 1
    assert res.metrics.rows[0].round == 0
    assert res.metrics.rows[0].cum_floats == 0.0


def test_identical_shards_equal_weights_match_single_worker():
    # all workers hold the same full-batch shard: the aggregated step equals
    # the single-worker step exactly
    model, ds = quadratic_fixture()
    theta0 = np.array([1.0, 0.0])

    workers = [WorkerState(np.arange(2), rng_stream(9, k)) for k in range(3)]
    server = ServerState(theta0.copy())
    cfg = RoundConfig(0.1, 2, 0)
    grads = {k: local_round(w, theta0, cfg, model, ds)[0] for k, w in enumerate(workers)}
    aggregate(server, grads, {k: 1.0 / 3.0 for k in range(3)}, 0.1)

    solo_worker = WorkerState(np.arange(2), rng_stream(10, 0))
    solo_server = ServerState(theta0.copy())
    g, _ = local_round(solo_worker, theta0, cfg, model, ds)
    aggregate(solo_server, {0: g}, {0: 1.0}, 0.1)
    assert np.array_equal(server.theta_global, solo_server.theta_global)


def test_vanilla_convergence_on_separable_data():
    cfg = base_config(
        workers=10, n=1000, test_n=200, classes=10, dim=10, separation=10.0,
        rounds=100, batch_size=25, model_kind="mlp1h", hidden=16,
    )
    res = simulate(cfg)
    final = res.metrics.final()
    assert final.test_metric >= 0.95
    # train loss is reported alongside and should have dropped
    assert final.train_loss < res.metrics.rows[0].train_loss


def test_default_tau_is_one_shard_pass():
    cfg = base_config(tau=0, batch_size=10)  # 200 samples / 4 workers = 50 each
    setup = build_experiment(cfg)
    assert setup.round_config.tau == 5


def test_content_order_waits_for_the_first_batch():
    # sorting the training set is left to the run: building stays cheap
    setup = build_experiment(base_config())
    assert setup.train_ds._slots is None
    assert setup.train_ds.inputs.flags.writeable
    setup.workers[0].next_batch(setup.train_ds, 10)
    assert not setup.train_ds.inputs.flags.writeable


def test_evaluation_sorts_the_training_set_once(monkeypatch):
    # the sorted rows are left to the run and then kept
    setup = build_experiment(base_config())
    assert setup.train_ds._canonical is None
    seen = []
    order = models._canonical_order

    def spy(ds):
        seen.append(order(ds))
        return seen[-1]

    monkeypatch.setattr(models, "_canonical_order", spy)
    for _ in range(2):
        evaluate(setup.model, setup.server.theta_global, setup.train_ds, setup.test_ds)
    (x1, y1), (x2, y2) = seen
    assert x1 is x2 and y1 is y2
    for a in (x1, y1):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_eta_rule_inv_sqrt_tau_t():
    cfg = base_config(tau=4, rounds=25, eta_rule="inv_sqrt_tau_t")
    setup = build_experiment(cfg)
    assert setup.round_config.eta == pytest.approx(0.1, rel=1e-12)  # 1/sqrt(100)


def test_regression_on_label_shards_partitions_by_class():
    cfg = base_config(model_kind="linear_regression", partition_mode="label_shard(3)",
                      classes=4, rounds=3)
    setup = build_experiment(cfg)
    for worker in setup.workers:
        labels = np.unique(setup.train_ds.labels[worker.shard].argmax(axis=1))
        assert len(labels) == 3
    res = simulate(cfg)
    assert len(res.metrics.rows) == 4
    assert all(np.isfinite(r.test_metric) for r in res.metrics.rows)


def test_ledger_rejects_a_negative_float_count():
    ledger = CommLedger()
    ledger.append(1, 0, -0.0)  # a zero of either sign costs nothing
    for floats in (-1.0, -5e-324):
        with pytest.raises(ValueError, match="must be non-negative"):
            ledger.append(1, 1, floats)
    assert ledger.rows == [(1, 0, -0.0)] and ledger.cum_floats == 0.0


# the reference reduces samples in batch order, the simulator in canonical
# order: losses agree to rounding, and a tag may differ only on a look-back
# error within GATE_MARGIN of delta
LOSS_RTOL = 1e-12
GATE_MARGIN = 1e-9


# besides the shipped config: full-shard batches, one step a round; a tau
# of 4 against a 7-batch shard pass, so a pass runs on into the next round;
# the step size 1 / sqrt(tau * T); majority-vote sign aggregation; and the
# two affine kinds, a regression fitting one-hot targets on full shards
ENGINE_CASES = {
    "shipped": {},
    "full_shard": {"batch_size": 0},
    "tau4": {"tau": 4},
    "inv_sqrt_tau_t": {"eta_rule": "inv_sqrt_tau_t"},
    "majority": {"sign_majority": True},
    "softmax": {"model_kind": "softmax_classifier"},
    "regression": {"model_kind": "linear_regression", "batch_size": 0},
}

# per algorithm, the floats of one payload on the shipped mlp1h (20 -> 32
# -> 10) and on the affine kinds (20 -> 10), and the cases it runs: M =
# 1002 and 210 raw; 2 * (20 + 32) + 32 + 2 * (32 + 10) + 10 and
# 2 * (20 + 10) + 10 at rank 2; a value and an index for each of the top
# 10%, 100 and 21 coordinates; M / 32 for one sign bit each. lbgm_sampled
# runs at the shipped sample fraction, 0.5
AFFINE = ("softmax", "regression")
RAW_CASES = ("shipped", "full_shard", "tau4", "inv_sqrt_tau_t") + AFFINE
ALGORITHMS = {
    "vanilla": ((1002.0, 210.0), RAW_CASES),
    "lbgm": ((1002.0, 210.0), RAW_CASES),
    "rank_r": ((230.0, 70.0), ("shipped", "full_shard") + AFFINE),
    "rank_r_lbgm": ((230.0, 70.0), ("shipped", "full_shard") + AFFINE),
    "topk": ((200.0, 42.0), ("shipped",) + AFFINE),
    "topk_lbgm": ((200.0, 42.0), ("shipped",) + AFFINE),
    "sign": ((31.3125, 6.5625), ("shipped", "majority") + AFFINE),
    "sign_lbgm": ((31.3125, 6.5625), ("shipped",) + AFFINE),
    "lbgm_sampled": ((1002.0, 210.0), ("shipped",)),
}
# the gated top-k and sign stacks run at the delta configs/topk_stack.cfg
# ships: at the shipped 0.2, no compressed payload passes the gate in 20 rounds
STACK_DELTA = parse_config((CONFIGS / "topk_stack.cfg").read_text()).delta


@pytest.mark.parametrize("algorithm, seed, case", [
    pytest.param(algorithm, seed, case,
                 id="-".join([algorithm, str(seed)] + ([case] if ENGINE_CASES[case] else [])))
    for case in ENGINE_CASES for algorithm in ALGORITHMS for seed in (3, 1000)
    if case in ALGORITHMS[algorithm][1]
])
def test_round_engine_matches_the_independent_reference(algorithm, seed, case):
    text = (CONFIGS / "lbgm_noniid.cfg").read_text()
    base = algorithm.removesuffix("_lbgm")
    cfg = replace(parse_config(text), algorithm=algorithm, seed=seed, rounds=20,
                  **ENGINE_CASES[case])
    if base in ("topk", "sign"):
        cfg = replace(cfg, delta=STACK_DELTA)
    result = simulate(cfg)
    setup = build_experiment(cfg)  # the shared inputs, with fresh worker streams
    shards = [w.shard for w in setup.workers]
    tau = cfg.tau or reference_sim.one_pass(shards, cfg.batch_size)
    eta = cfg.eta if cfg.eta_rule == "constant" else 1.0 / math.sqrt(tau * cfg.rounds)
    k = max(1, round(cfg.k_frac * setup.model.param_dim))
    compress = {
        "rank_r": lambda g: reference_sim.rank_r(g, setup.model, cfg.rank),
        "topk": lambda g: reference_sim.topk(g, k),
        "sign": reference_sim.sign,
    }.get(base)
    gated = "lbgm" in algorithm
    ref = reference_sim.simulate(
        (setup.train_ds.inputs, setup.train_ds.labels),
        (setup.test_ds.inputs, setup.test_ds.labels),
        shards, [w.rng for w in setup.workers], setup.server_rng,
        cfg.sample_fraction if algorithm == "lbgm_sampled" else 1.0,
        setup.server.theta_global, setup.model, eta, cfg.batch_size, tau,
        cfg.rounds, cfg.delta if gated else None, compress,
        error_feedback=base == "topk" and cfg.error_feedback, majority=cfg.sign_majority)

    # compare up to the first round whose tags differ: from there on the
    # look-back gradients, and so the trajectories, part
    rounds = cfg.rounds
    for t in range(1, cfg.rounds + 1):
        sent = [row for row in result.ledger.rows if row[0] == t]
        ref_sent = [row for row in ref.ledger if row[0] == t]
        differ = [k for (_, k, f), (_, _, r) in zip(sent, ref_sent) if f != r]
        if differ:
            errors = {k: ref.gates[t, k] for k in differ}
            assert all(abs(e - cfg.delta) < GATE_MARGIN for e in errors.values()), errors
            warnings.warn(f"round {t}: tags differ on a look-back error within "
                          f"{GATE_MARGIN} of delta: {errors}")
            rounds = t - 1
            break
        assert sent == ref_sent
    assert len(ref.ledger) == len(result.ledger.rows)
    rows = result.metrics.rows[: rounds + 1]
    test_metrics = [r.test_metric for r in rows]
    if cfg.model_kind == "linear_regression":  # the test loss
        assert np.allclose(test_metrics, ref.test_metric[: rounds + 1], rtol=LOSS_RTOL, atol=0)
    else:
        assert test_metrics == ref.test_metric[: rounds + 1]
    losses = np.array([r.train_loss for r in rows])
    assert np.allclose(losses, ref.train_loss[: rounds + 1], rtol=LOSS_RTOL, atol=0)
    payload = ALGORITHMS[algorithm][0][cfg.model_kind != "mlp1h"]
    # every payload costs what it should, and a gated run exercises the
    # gate on both sides of delta
    assert ({f for t, _, f in ref.ledger if t <= rounds}
            == ({1.0, payload} if gated else {payload}))
