"""An independent reference for the federated round engine, written from
the algorithm rather than from fedlbg's sources.

One round: every worker starts from the server model and takes tau plain
minibatch SGD steps on the mean softmax cross-entropy of a one-hidden-layer
tanh network, summing its tau gradients into g. Vanilla FL sends g. LBGM
sends only rho = <g, lbg> / ||lbg||^2 when the look-back error
1 - cos^2(g, lbg) is at most delta, and otherwise sends g, which then
replaces the look-back gradient lbg on both sides. The server replays
rho * lbg for a scalar, sums the received gradients weighted by each
worker's share of the samples, in ascending worker id, and steps
theta <- theta - eta * sum. The ledger counts one float per scalar and M
per gradient.

The compressed stacks compress g first, and the worker sends, and gates
on, that densified vector in place of g. Rank r: each weight matrix becomes
its best rank-r approximation, truncated from its SVD, and each bias stays
dense; a payload costs r * (rows + cols) floats per matrix plus the
biases. Top-k: the k largest magnitudes are kept, ties going to the lower
index, and the rest zeroed; a payload costs 2k floats, a value and an index
each. With error feedback the worker compresses p = g + residual and
carries p minus the compressed p as its next residual, every round,
whatever the gate then sends. Sign: each coordinate becomes +1 or -1, with
sign(0) = +1, at one bit each, M / 32 floats. With majority vote the
server steps by the sign of the weighted sum, sign(0) = +1 again, in place
of the sum.

Samples are summed in the order the batch holds them, not in a canonical
order, so the trajectory agrees with fedlbg's to rounding only. The
reference shares only inputs with fedlbg: the datasets, the partition, the
initial model, and each worker's random stream, from which it draws the
batch indices as documented (one permutation of the shard per pass over
it, consumed in batch-size slices, the last one shorter).
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReferenceRun:
    train_loss: list = field(default_factory=list)  # rounds 0..T
    test_accuracy: list = field(default_factory=list)  # rounds 0..T
    ledger: list = field(default_factory=list)  # (round, worker, floats)
    gates: dict = field(default_factory=dict)  # (round, worker) -> 1 - cos^2


def _params(theta, dim, hidden, classes):
    w1, b1, w2, b2 = np.split(theta, np.cumsum([dim * hidden, hidden, hidden * classes]))
    return w1.reshape(dim, hidden), b1, w2.reshape(hidden, classes), b2


def _forward(theta, x, shape):
    w1, b1, w2, b2 = _params(theta, *shape)
    h = np.tanh(x @ w1 + b1)
    return h, h @ w2 + b2


def mean_loss(theta, x, y, shape) -> float:
    _, z = _forward(theta, x, shape)
    z = z - z.max(axis=1, keepdims=True)
    return float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(len(y)), y]))


def accuracy(theta, x, y, shape) -> float:
    _, z = _forward(theta, x, shape)
    return float(np.mean(z.argmax(axis=1) == y))


def rank_r(g, shape, r):
    """(dense, floats): g with each weight matrix replaced by its rank-r
    truncated SVD and the biases kept, and the floats its payload costs."""
    dense, floats = [], 0
    for block in _params(g, *shape):
        if block.ndim == 2:
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


def loss_gradient(theta, x, y, shape):
    """d mean_loss / d theta, blocks in the order w1, b1, w2, b2."""
    _, _, w2, _ = _params(theta, *shape)
    h, z = _forward(theta, x, shape)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(len(y)), y] -= 1.0
    p /= len(y)
    dh = (p @ w2.T) * (1.0 - h * h)
    return np.concatenate([(x.T @ dh).ravel(), dh.sum(axis=0), (h.T @ p).ravel(), p.sum(axis=0)])


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


def simulate(train, test, shards, rngs, theta0, shape, eta, batch_size, tau, rounds,
             delta=None, compress=None, error_feedback=False, majority=False):
    """Run `rounds` rounds of vanilla FL (delta None) or LBGM (delta set),
    each worker taking `tau` local steps a round, on raw gradients
    (compress None) or on compress(g), which returns (dense, floats): the
    densified payload and its cost. With error feedback, compress sees g
    plus the worker's residual; with majority, the server steps by the
    sign of the weighted sum.

    train and test are (inputs, labels); shards[k] are worker k's sample
    indices and rngs[k] its stream; shape is (dim, hidden, classes). A
    worker's pass over its shard runs on across rounds: a round that ends
    mid-pass leaves the rest of that permutation to the next.
    """
    (x, y), (x_test, y_test) = train, test
    total = sum(len(s) for s in shards)
    weights = [len(s) / total for s in shards]
    batches = [_batches(s, r, batch_size) for s, r in zip(shards, rngs)]
    worker_lbg, server_lbg, residual = {}, {}, {}
    theta = theta0.copy()
    out = ReferenceRun()

    def record():
        out.train_loss.append(mean_loss(theta, x, y, shape))
        out.test_accuracy.append(accuracy(theta, x_test, y_test, shape))

    record()
    for t in range(1, rounds + 1):
        total_update = np.zeros_like(theta)
        for k in range(len(shards)):
            local = theta.copy()
            g = np.zeros_like(theta)
            for _ in range(tau):
                idx = next(batches[k])
                step = loss_gradient(local, x[idx], y[idx], shape)
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
        theta = theta - eta * total_update
        record()
    return out
