"""The federated loop: tau-step local SGD per worker, weighted server
aggregation, and the shared round engine every algorithm runs on.

Workers transmit accumulated gradients (the plain sum of their tau
minibatch gradients); the server applies
theta <- theta - eta * sum_k omega_k * g_k. Uplink policies decide what
each worker actually puts on the wire, which is the single point where
vanilla FL, look-back recycling, and the compressor stacks differ; the
server turns every message back into a gradient with lbgm.reconstruct.

`csv_text` formats the lines of every output CSV. The metrics table and the
ledger give theirs lazily (`csv_lines`), for the harness to write line by
line; `to_csv` joins the same lines into the file's text.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import lbgm
from .data import Dataset, partition, synth_classification, load_idx
from .models import Model, accuracy, build_model, forward_loss, gradient, init_params, one_hot
from .numerics import (
    STREAM_DATA,
    STREAM_PARTITION,
    STREAM_SERVER,
    ParamVector,
    check_finite,
    norm_sq,
    rng_stream,
)


@dataclass(frozen=True)
class RoundConfig:
    eta: float
    tau: int
    batch_size: int  # <= 0 means full shard

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")


class WorkerState:
    """Per-worker mutable state: shard, LBG, EF residual, RNG."""

    def __init__(self, worker_id: int, shard: np.ndarray, rng: np.random.Generator):
        self.worker_id = worker_id
        self.shard = np.asarray(shard, dtype=np.int64)
        self.lbg: Optional[ParamVector] = None
        self.ef_residual: Optional[ParamVector] = None
        self.rng = rng
        self._order: Optional[np.ndarray] = None  # current epoch-pass permutation
        self._cursor = 0

    def next_batch(self, dataset: Dataset, batch_size: int) -> Dataset:
        """Next minibatch: one shuffle per shard pass, consumed in slices."""
        n = len(self.shard)
        if self._order is None or self._cursor >= n:
            self._order = self.rng.permutation(n)
            self._cursor = 0
        size = n if batch_size <= 0 else batch_size
        end = min(self._cursor + size, n)
        idx = self.shard[self._order[self._cursor : end]]
        self._cursor = end
        return dataset.batch(idx)


class ServerState:
    def __init__(self, theta_global: ParamVector):
        self.theta_global = theta_global
        self.lbg_copies: dict = {}


def one_pass_steps(n: int, batch_size: int) -> int:
    """Minibatch steps in one pass over n samples, at least one; a
    batch_size <= 0 takes the whole shard in one step."""
    return max(1, math.ceil(n / batch_size)) if batch_size > 0 else 1


def local_round(
    worker: WorkerState,
    theta_global: ParamVector,
    cfg: RoundConfig,
    model: Model,
    dataset: Dataset,
) -> tuple:
    """Run tau local SGD steps from the broadcast model.

    Returns (g_sum, theta): the accumulated stochastic gradient (sum, not
    mean, of the tau minibatch gradients) and the stepped parameters. A
    non-finite value stays non-finite in both running sums, so they are
    checked once, after the last step.
    """
    if len(worker.shard) == 0:
        raise ValueError(f"worker {worker.worker_id} has an empty shard")
    theta = theta_global.copy()
    g_sum = np.zeros_like(theta_global)
    for _ in range(cfg.tau):
        # unnamed, the batch is freed with the gradient call
        g = gradient(model, theta, worker.next_batch(dataset, cfg.batch_size))
        g_sum += g
        g *= cfg.eta
        theta -= g
    return check_finite(g_sum, "accumulated gradient"), check_finite(theta, "local model")


def aggregate(server: ServerState, grads: dict, weights, eta: float, transform=None) -> ParamVector:
    """Apply theta <- theta - eta * sum_k omega_k g_k, ascending worker id.

    `transform`, when given, is applied to the weighted gradient sum before
    the step (used for majority-vote sign aggregation).
    """
    acc = np.zeros_like(server.theta_global)
    for k in sorted(grads):
        g = grads[k]
        if g.shape != server.theta_global.shape:
            raise ValueError(f"worker {k} gradient has shape {g.shape}")
        acc = acc + weights[k] * g
    if transform is not None:
        acc = transform(acc)
    server.theta_global = check_finite(server.theta_global - eta * acc, "server model")
    return server.theta_global


# ---------------------------------------------------------------------------
# Metrics and communication accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRow:
    round: int
    train_loss: float
    test_metric: float  # accuracy for classifiers, loss for regression
    cum_floats: float
    scalar_fraction: float
    delta_sq_proxy: float

    @property
    def cum_bits(self) -> float:
        return lbgm.FLOAT_BITS * self.cum_floats


METRICS_HEADER = "round,train_loss,test_metric,cum_floats,cum_bits,scalar_fraction,delta_sq_proxy"
LEDGER_HEADER = "round,worker,floats,bits"


def csv_text(rows, header=None, cell=repr):
    """The CSV lines of rows of Python ints and floats, each with its
    newline, after the optional header; lazily, so a writer holds one line
    at a time. Each cell is its repr: the shortest string that reads back to
    the same value, so every digit of a float is kept. `cell=str` takes rows
    whose cells are that text already."""
    if header is not None:
        yield header + "\n"
    for row in rows:
        yield ",".join(map(cell, row)) + "\n"


@dataclass
class MetricsTable:
    rows: list = field(default_factory=list)

    def csv_lines(self):
        return csv_text(((r.round, r.train_loss, r.test_metric, r.cum_floats, r.cum_bits,
                          r.scalar_fraction, r.delta_sq_proxy) for r in self.rows),
                        METRICS_HEADER)

    def to_csv(self) -> str:
        return "".join(self.csv_lines())

    def final(self) -> MetricsRow:
        return self.rows[-1]


class CommLedger:
    """Append-only per-round, per-worker record of the floats sent. Bits
    are FLOAT_BITS per float for every message; scaling by a power of two
    is exact, so the derived bit totals equal sums of per-message bits."""

    def __init__(self):
        self.rows = []  # (round, worker, floats)
        self._cum_floats = 0.0

    def append(self, round_idx: int, worker_id: int, floats: float):
        if floats < 0:
            raise ValueError("ledger entries must be non-negative")
        self.rows.append((round_idx, worker_id, float(floats)))
        self._cum_floats += floats

    @property
    def cum_floats(self) -> float:
        return self._cum_floats

    @property
    def cum_bits(self) -> float:
        return lbgm.FLOAT_BITS * self._cum_floats

    def csv_lines(self):
        return csv_text(((rnd, worker, floats, lbgm.FLOAT_BITS * floats)
                         for rnd, worker, floats in self.rows), LEDGER_HEADER)

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


@dataclass
class RunResult:
    metrics: MetricsTable
    ledger: CommLedger


class Diverged(FloatingPointError):
    """A non-finite value, or a decomposition that did not converge,
    stopped a run in `round`: inside `worker`'s local round or encode step,
    or on the server when `worker` is None. `partial` holds the metrics and
    ledger of the rounds completed before it."""

    def __init__(self, round_idx: int, worker_id: Optional[int], cause: Exception,
                 partial: RunResult):
        where = f"round {round_idx}" + ("" if worker_id is None else f" (worker {worker_id})")
        super().__init__(f"run diverged in {where}: {cause}")
        self.round = round_idx
        self.worker = worker_id
        self.partial = partial


# ---------------------------------------------------------------------------
# Experiment setup
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSetup:
    model: Model
    train_ds: Dataset
    test_ds: Dataset
    workers: list
    server: ServerState
    weights: dict
    round_config: RoundConfig
    rounds: int
    server_rng: np.random.Generator


def _slice(ds: Dataset, start: int, stop: int) -> Dataset:
    return Dataset(ds.inputs[start:stop], ds.labels[start:stop], ds.num_classes)


def build_datasets(exp):
    """Materialize (train, test) datasets from an experiment config."""
    if exp.data_kind == "synth":
        full = synth_classification(exp.n + exp.test_n, exp.dim, exp.classes,
                                    exp.separation, rng_stream(exp.seed, STREAM_DATA))
        return _slice(full, 0, exp.n), _slice(full, exp.n, exp.n + exp.test_n)
    train = load_idx(exp.images, exp.labels)
    test = load_idx(exp.test_images, exp.test_labels)
    if exp.subset > 0:
        train = _slice(train, 0, exp.subset)
    if exp.test_subset > 0:
        test = _slice(test, 0, exp.test_subset)
    unknown = test.labels[test.labels >= train.num_classes]
    if unknown.size:
        raise ValueError(f"{exp.test_labels}: label {unknown[0]} is not one of the "
                         f"{train.num_classes} training classes")
    return train, test


def fit_targets(exp, datasets):
    """Build the model a config trains and recast the datasets to the targets
    it fits: regression on labelled data fits one-hot vectors as wide as
    the first (training) set's class count, whatever labels the others hold.
    A classifier needs at least 2 training classes."""
    classes = datasets[0].num_classes
    if classes == 1 and exp.model_kind != "linear_regression":
        raise ValueError(f"{exp.labels}: every training label is 0; "
                         f"{exp.model_kind} needs at least 2 classes")
    out_dim = classes if classes > 0 else 1
    model = build_model(exp.model_kind, datasets[0].dim, out_dim, exp.hidden)
    if exp.model_kind == "linear_regression" and classes > 0:
        datasets = tuple(Dataset(ds.inputs, one_hot(ds.labels, classes), 0)
                         for ds in datasets)
    return model, datasets


def build_experiment(exp) -> ExperimentSetup:
    """Build model, datasets, partition, and per-worker state for a run.

    Stream layout: worker k draws from stream k (the initial model is drawn
    from worker 0's stream before any sampling), the dataset and partition
    use reserved role streams, and server-side device sampling has its own.
    """
    train_ds, test_ds = build_datasets(exp)
    part = partition(train_ds, exp.workers, exp.partition_mode,
                     rng_stream(exp.seed, STREAM_PARTITION))

    # after partitioning: label shards need the class labels
    model, (train_ds, test_ds) = fit_targets(exp, (train_ds, test_ds))

    worker_states = [
        WorkerState(k, part.shards[k], rng_stream(exp.seed, k))
        for k in range(exp.workers)
    ]
    server = ServerState(init_params(model, worker_states[0].rng))
    weights = {k: float(part.weights[k]) for k in range(exp.workers)}

    batch_size = exp.batch_size
    if exp.tau > 0:
        tau = exp.tau
    else:
        tau = one_pass_steps(max(len(sh) for sh in part.shards), batch_size)
    if exp.eta_rule == "inv_sqrt_tau_t":
        eta = 1.0 / math.sqrt(tau * max(exp.rounds, 1))
    else:
        eta = exp.eta

    return ExperimentSetup(
        model=model,
        train_ds=train_ds,
        test_ds=test_ds,
        workers=worker_states,
        server=server,
        weights=weights,
        round_config=RoundConfig(eta, tau, batch_size),
        rounds=exp.rounds,
        server_rng=rng_stream(exp.seed, STREAM_SERVER),
    )


def evaluate(model: Model, theta: ParamVector, train_ds: Dataset, test_ds: Dataset):
    train_loss = forward_loss(model, theta, train_ds)
    if test_ds.num_classes > 0:
        test_metric = accuracy(model, theta, test_ds)
    else:
        test_metric = forward_loss(model, theta, test_ds)
    return train_loss, test_metric


# ---------------------------------------------------------------------------
# Round engine
# ---------------------------------------------------------------------------

def run_with_policy(setup: ExperimentSetup, policy, sample_fraction=None) -> RunResult:
    """Run T federated rounds of a built experiment with an uplink policy.

    With a sample fraction in (0, 1], each round draws ceil(fraction * K)
    workers without replacement from the server stream and scales the
    update by 1/|sampled| while keeping the original data weights; the LBGs
    of unsampled workers stay stale on both sides. A non-finite value, or a
    LinAlgError from a compressor's decomposition, raises Diverged, carrying
    the rounds completed before it.
    """
    if sample_fraction is not None and not 0.0 < sample_fraction <= 1.0:
        raise ValueError(f"sample fraction {sample_fraction} not in (0, 1]")
    model, rc = setup.model, setup.round_config
    server = setup.server
    k_total = len(setup.workers)

    ledger = CommLedger()
    metrics = MetricsTable()
    t, k = 0, None  # where a non-finite value stops the run

    try:
        train_loss, test_metric = evaluate(model, server.theta_global, setup.train_ds, setup.test_ds)
        metrics.rows.append(MetricsRow(0, train_loss, test_metric, 0.0, 0.0, 0.0))

        for t in range(1, setup.rounds + 1):
            if sample_fraction is not None:
                m = math.ceil(sample_fraction * k_total)
                participants = sorted(
                    int(i) for i in setup.server_rng.choice(k_total, size=m, replace=False)
                )
                eta_round = rc.eta / m
            else:
                participants = list(range(k_total))
                eta_round = rc.eta

            g_tilde = {}
            sent = []  # floats per participant, ledgered once the round completes
            n_scalar = 0
            proxy = 0.0
            for k in participants:
                worker = setup.workers[k]
                g, _ = local_round(worker, server.theta_global, rc, model, setup.train_ds)
                msg, sin2 = policy.process(worker, g)
                sent.append(msg.cost_floats)
                if msg.tag == lbgm.TAG_SCALAR:
                    n_scalar += 1
                proxy = max(proxy, norm_sq(g) / (rc.tau * rc.tau) * sin2)
                g_tilde[k] = lbgm.reconstruct(server, k, msg)
            k = None

            aggregate(server, g_tilde, setup.weights, eta_round, transform=policy.server_transform)
            train_loss, test_metric = evaluate(model, server.theta_global, setup.train_ds, setup.test_ds)
            for worker_id, floats in zip(participants, sent):
                ledger.append(t, worker_id, floats)
            metrics.rows.append(
                MetricsRow(
                    t,
                    train_loss,
                    test_metric,
                    ledger.cum_floats,
                    n_scalar / len(participants),
                    proxy,
                )
            )
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise Diverged(t, k, exc, RunResult(metrics, ledger)) from exc
    return RunResult(metrics, ledger)
