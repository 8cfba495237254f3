import numpy as np
import pytest

from fedlbg import models
from fedlbg.data import Dataset, synth_classification
from fedlbg.fl_core import (
    RoundConfig,
    ServerState,
    WorkerState,
    aggregate,
    build_experiment,
    evaluate,
    local_round,
)
from fedlbg.harness import ExperimentConfig, simulate
from fedlbg.lbgm import LbgmPolicy, reconstruct
from fedlbg.models import build_model, gradient
from fedlbg.numerics import RngStream


def quadratic_fixture():
    """Paired +-x samples with zero targets: loss = (w^2 + b^2) / 2.

    With theta0 = (1, 0) the bias never moves, so the w-coordinate follows
    the scalar quadratic f(w) = w^2 / 2 exactly.
    """
    model = build_model("linear_regression", 1, 1)
    ds = Dataset(np.array([[1.0], [-1.0]]), np.array([[0.0], [0.0]]), 0)
    return model, ds


def make_worker(n, seed=0):
    return WorkerState(0, np.arange(n), RngStream(seed, 0).generator())


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


def test_local_round_empty_shard_errors():
    model, ds = quadratic_fixture()
    worker = WorkerState(3, np.array([], dtype=np.int64), RngStream(0, 3).generator())
    with pytest.raises(ValueError, match="empty shard"):
        local_round(worker, np.zeros(2), RoundConfig(0.1, 1, 0), model, ds)


def test_local_round_rejects_overflowing_step():
    # the gradient (1e300) is finite; the step 1e300 * 1e300 is not
    model, ds = quadratic_fixture()
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="local model"):
        local_round(make_worker(2), np.array([1e300, 0.0]), RoundConfig(1e300, 1, 0), model, ds)


def test_local_round_minibatches_cover_epoch_without_replacement():
    ds = synth_classification(10, 2, 2, 1.0, RngStream(1, 9).generator())
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


def test_run_vanilla_ledger_is_k_m_t():
    cfg = base_config(rounds=7)
    res = simulate(cfg)
    setup = build_experiment(cfg)
    m = setup.model.param_dim
    assert res.ledger.cum_floats == 4 * m * 7
    assert res.ledger.cum_bits == 32 * 4 * m * 7
    assert res.metrics.final().cum_floats == 4 * m * 7


def test_run_vanilla_deterministic_replay():
    a = simulate(base_config())
    b = simulate(base_config())
    assert a.metrics.to_csv() == b.metrics.to_csv()
    assert a.ledger.to_csv() == b.ledger.to_csv()


def test_identical_shards_equal_weights_match_single_worker():
    # all workers hold the same full-batch shard: the aggregated step equals
    # the single-worker step exactly
    model, ds = quadratic_fixture()
    theta0 = np.array([1.0, 0.0])

    workers = [WorkerState(k, np.arange(2), RngStream(9, k).generator()) for k in range(3)]
    server = ServerState(theta0.copy())
    cfg = RoundConfig(0.1, 2, 0)
    grads = {k: local_round(w, theta0, cfg, model, ds)[0] for k, w in enumerate(workers)}
    aggregate(server, grads, {k: 1.0 / 3.0 for k in range(3)}, 0.1)

    solo_worker = WorkerState(0, np.arange(2), RngStream(10, 0).generator())
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


def test_centralized_recovery_single_worker_full_batch():
    # K = 1, tau = 1, full batch: the trajectory IS centralized descent
    cfg = base_config(workers=1, rounds=20, tau=1, batch_size=0, model_kind="mlp1h")
    setup = build_experiment(cfg)
    theta = setup.server.theta_global.copy()
    for _ in range(20):
        theta = theta - setup.round_config.eta * gradient(setup.model, theta, setup.train_ds)

    replay = build_experiment(cfg)
    policy = LbgmPolicy(None)
    for _ in range(20):
        w = replay.workers[0]
        g, _ = local_round(w, replay.server.theta_global, replay.round_config, replay.model,
                           replay.train_ds)
        msg, _ = policy.process(w, g)
        g_tilde = reconstruct(replay.server, 0, msg)
        aggregate(replay.server, {0: g_tilde}, replay.weights, replay.round_config.eta)
    assert np.array_equal(replay.server.theta_global, theta)


def test_round_config_validation():
    with pytest.raises(ValueError, match="eta"):
        RoundConfig(0.0, 1, 4)
    with pytest.raises(ValueError, match="tau"):
        RoundConfig(0.1, 0, 4)


def test_default_tau_is_one_shard_pass():
    cfg = base_config(tau=0, batch_size=10)  # 200 samples / 4 workers = 50 each
    setup = build_experiment(cfg)
    assert setup.round_config.tau == 5


def test_content_ranks_wait_for_the_first_batch():
    # ranking the training set is left to the run: building stays cheap
    setup = build_experiment(base_config())
    assert setup.train_ds.inputs.flags.writeable
    setup.workers[0].next_batch(setup.train_ds, 10)
    assert not setup.train_ds.inputs.flags.writeable


def test_evaluation_sorts_the_training_set_once(monkeypatch):
    # like the ranks, the sorted rows are left to the run and then kept
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
