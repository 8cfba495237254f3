"""The models' loss and gradient as written before their softmax row max
was taken over a column-major copy and their one-hot subtracted as rows of
a cached identity: the bitwise oracle for those two rewrites."""

import numpy as np

from fedlbg.data import Dataset
from fedlbg.models import Model, _canonical_order, _forward, unpack
from fedlbg.numerics import ParamVector


def reference_forward_loss(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """forward_loss with the row-major `out.max(axis=1)`."""
    x, y = _canonical_order(batch)
    n = x.shape[0]
    _, out = _forward(model, unpack(model, theta), x)
    if model.kind == "linear_regression":
        out -= np.asarray(y, dtype=np.float64).reshape(n, -1)
        per_sample = 0.5 * np.sum(out**2, axis=1)
    else:
        out -= out.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(out).sum(axis=1))
        per_sample = -(out[np.arange(n), np.asarray(y, dtype=np.int64)] - log_norm)
    return float(np.sum(per_sample) / n)


def reference_gradient(model: Model, theta: ParamVector, batch: Dataset) -> ParamVector:
    """gradient with the row-major `delta.max(axis=1)` and the one-hot
    subtracted by fancy indexing."""
    x, y = _canonical_order(batch)
    n = x.shape[0]
    blocks = unpack(model, theta)
    hidden, delta = _forward(model, blocks, x)
    if model.kind == "linear_regression":
        delta -= np.asarray(y, dtype=np.float64).reshape(n, -1)
    else:
        delta -= delta.max(axis=1, keepdims=True)
        np.exp(delta, out=delta)
        delta /= delta.sum(axis=1, keepdims=True)
        delta[np.arange(n), np.asarray(y, dtype=np.int64)] -= 1.0
    delta /= n

    grad = np.empty(model.param_dim)
    grad_blocks = unpack(model, grad)
    if model.kind == "mlp1h":
        np.matmul(hidden.T, delta, out=grad_blocks[2])
        np.add.reduce(delta, axis=0, keepdims=True, out=grad_blocks[3])
        delta = delta @ blocks[2].T
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        delta *= hidden
    np.matmul(x.T, delta, out=grad_blocks[0])
    np.add.reduce(delta, axis=0, keepdims=True, out=grad_blocks[1])
    return grad
