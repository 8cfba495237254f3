"""An independent reference for the federated round engine, written from
the algorithm rather than from fedlbg's sources.

One round: every worker starts from the server model and takes tau plain
minibatch SGD steps on its mean loss, summing its tau gradients into g.
The model is any of the three kinds, whose loss, gradient and accuracy
tests/model_oracle.py writes from the formulas: an affine map under half
the squared error (linear_regression) or under softmax cross-entropy
(softmax_classifier), or a tanh hidden layer under the latter (mlp1h).
Vanilla FL sends g. LBGM sends only rho = <g, lbg> / ||lbg||^2 when the
look-back error 1 - cos^2(g, lbg) is at most delta, and otherwise sends g,
which then replaces the look-back gradient lbg on both sides. The server
replays rho * lbg for a scalar, sums the received gradients weighted by
each worker's share of the samples, in ascending worker id, and steps
theta <- theta - eta * sum. The ledger counts one float per scalar and M
per gradient. Each round is scored by the training loss and, on the test
set, by the accuracy of a classifier or the loss of a regression.

With device sampling at a fraction f, each round the server first draws
m = ceil(f * K) of the K workers from its own stream, as
sorted(Generator.choice(K, m, replace=False)); only they run their local
steps and send, and the server steps by eta * K / m on their weighted sum,
the weights still each worker's share of all the samples. A worker left
out draws no batch and keeps its look-back gradient on both sides. At
f = 1 every worker is drawn and the step is eta.

The compressed stacks compress g first, and the worker sends, and gates
on, that densified vector in place of g. Rank r: each weight matrix becomes
its best rank-r approximation, truncated from its SVD, and each block with
a dimension of 1 (a bias) stays dense; a payload costs r * (rows + cols)
floats per matrix plus the dense blocks. Top-k: the k largest magnitudes
are kept, ties going to the lower index, and the rest zeroed; a payload
costs 2k floats, a value and an index each. With error feedback the worker
compresses p = g + residual and carries p minus the compressed p as its
next residual, every round, whatever the gate then sends. Sign: each
coordinate becomes +1 or -1, with sign(0) = +1, at one bit each, M / 32
floats. With majority vote the server steps by the sign of the weighted
sum, sign(0) = +1 again, in place of the sum.

Samples are summed in the order the batch holds them, not in a canonical
order, so the trajectory agrees with fedlbg's to rounding only. The
reference shares only inputs with fedlbg: the model's kind and layer
shapes, the datasets, the partition, the initial model, each worker's
random stream, from which it draws the batch indices as documented (one
permutation of the shard per pass over it, consumed in batch-size slices,
the last one shorter), and the server's stream, from which it draws each
round's workers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

import model_oracle


@dataclass
class ReferenceRun:
    train_loss: list = field(default_factory=list)  # rounds 0..T
    test_metric: list = field(default_factory=list)  # rounds 0..T
    ledger: list = field(default_factory=list)  # (round, worker, floats)
    gates: dict = field(default_factory=dict)  # (round, worker) -> 1 - cos^2


def rank_r(g, model, r):
    """(dense, floats): g with each weight matrix replaced by its rank-r
    truncated SVD and each block with a dimension of 1 kept, and the floats
    its payload costs."""
    dense, floats = [], 0
    for block in model_oracle.blocks(model, g):
        if min(block.shape) > 1:
            u, s, vt = np.linalg.svd(block, full_matrices=False)
            floats += min(r, len(s)) * sum(block.shape)
            block = (u[:, :r] * s[:r]) @ vt[:r]
        else:
            floats += block.size
        dense.append(block.ravel())
    return np.concatenate(dense), float(floats)


def topk(g, k):
    """(dense, floats): g with all but its k largest magnitudes zeroed, ties
    going to the lower index, and the floats its payload costs."""
    keep = sorted(range(len(g)), key=lambda i: (-abs(g[i]), i))[:k]
    dense = np.zeros_like(g)
    dense[keep] = g[keep]
    return dense, 2.0 * k


def sign(g):
    """(dense, floats): the sign of each coordinate of g, sign(0) = +1, and
    the floats its one-bit-per-coordinate payload costs."""
    return np.where(g >= 0, 1.0, -1.0), len(g) / 32


def _batches(shard, rng, batch_size):
    """Index batches of a shard, forever: one permutation per pass."""
    n = len(shard)
    size = n if batch_size <= 0 else batch_size
    while True:
        perm = rng.permutation(n)
        for start in range(0, n, size):
            yield shard[perm[start : start + size]]


def one_pass(shards, batch_size) -> int:
    """The local steps of one pass over the longest shard: the default tau.
    A batch_size <= 0 takes a whole shard in one step."""
    longest = max(len(s) for s in shards)
    return 1 if batch_size <= 0 else max(1, math.ceil(longest / batch_size))


def simulate(train, test, shards, rngs, server_rng, fraction, theta0, model, eta,
             batch_size, tau, rounds, delta=None, compress=None, error_feedback=False,
             majority=False):
    """Run `rounds` rounds of vanilla FL (delta None) or LBGM (delta set),
    each worker drawn from server_rng at `fraction` taking `tau` local
    steps a round, on raw gradients (compress None) or on compress(g),
    which returns (dense, floats): the densified payload and its cost. With
    error feedback, compress sees g plus the worker's residual; with
    majority, the server steps by the sign of the weighted sum.

    train and test are (inputs, labels); shards[k] are worker k's sample
    indices and rngs[k] its stream; model gives the kind and layer shapes. A
    worker's pass over its shard runs on across rounds: a round that ends
    mid-pass leaves the rest of that permutation to the next.
    """
    (x, y), (x_test, y_test) = train, test
    total = sum(len(s) for s in shards)
    weights = [len(s) / total for s in shards]
    n_workers = len(shards)
    drawn = math.ceil(fraction * n_workers)
    batches = [_batches(s, r, batch_size) for s, r in zip(shards, rngs)]
    worker_lbg, server_lbg, residual = {}, {}, {}
    theta = theta0.copy()
    out = ReferenceRun()

    score = model_oracle.loss if model.kind == "linear_regression" else model_oracle.accuracy

    def record():
        out.train_loss.append(model_oracle.loss(model, theta, x, y))
        out.test_metric.append(score(model, theta, x_test, y_test))

    record()
    for t in range(1, rounds + 1):
        total_update = np.zeros_like(theta)
        for k in sorted(server_rng.choice(n_workers, drawn, replace=False).tolist()):
            local = theta.copy()
            g = np.zeros_like(theta)
            for _ in range(tau):
                idx = next(batches[k])
                step = model_oracle.loss_gradient(model, local, x[idx], y[idx])
                g += step
                local -= eta * step
            floats = float(len(g))
            if error_feedback:
                p = g + residual.get(k, 0.0)
                g, floats = compress(p)
                residual[k] = p - g
            elif compress is not None:
                g, floats = compress(g)
            lbg = worker_lbg.get(k)
            scalar = False
            if delta is not None and lbg is not None:
                cos = g @ lbg / (np.linalg.norm(g) * np.linalg.norm(lbg))
                out.gates[t, k] = 1.0 - cos * cos
                scalar = out.gates[t, k] <= delta
            if scalar:
                rho = g @ lbg / (lbg @ lbg)
                received = rho * server_lbg[k]
                out.ledger.append((t, k, 1.0))
            else:
                worker_lbg[k] = server_lbg[k] = received = g
                out.ledger.append((t, k, floats))
            total_update += weights[k] * received
        if majority:
            total_update = np.where(total_update >= 0, 1.0, -1.0)
        theta = theta - eta * (n_workers / drawn) * total_update
        record()
    return out
