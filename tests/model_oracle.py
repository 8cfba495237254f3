"""The models' loss, gradient and accuracy written from the formulas, sharing
no code with fedlbg.models: the parameter blocks are sliced here from the
layer shapes, the forward pass is computed here, the softmax row max is taken
row-major and the one-hot is subtracted by fancy indexing. `loss`,
`loss_gradient` and `accuracy` read the samples (x, y) in the order given;
the `reference_*` functions read a batch as the models do: loss and gradient
in the batch's canonical order, accuracy as stored. Each numpy operation is
the one the models apply to the same values, so the two must agree bit for
bit."""

import numpy as np

from fedlbg.data import Dataset
from fedlbg.models import Model
from fedlbg.numerics import ParamVector


def blocks(model: Model, theta: ParamVector) -> list:
    """The (rows, cols) blocks of theta, laid end to end in flatten order."""
    out, start = [], 0
    for rows, cols in model.layer_shapes:
        out.append(theta[start : start + rows * cols].reshape(rows, cols))
        start += rows * cols
    assert theta.shape == (start,)
    return out


def forward(model: Model, params: list, x: np.ndarray) -> tuple:
    """(hidden, logits) of the samples x; hidden is None for an affine model."""
    if model.kind == "mlp1h":
        w1, b1, w2, b2 = params
        hidden = np.tanh(x @ w1 + b1)
        return hidden, hidden @ w2 + b2
    w, b = params
    return None, x @ w + b


def loss(model: Model, theta: ParamVector, x: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error / 2, or mean softmax cross-entropy."""
    n = len(x)
    _, out = forward(model, blocks(model, theta), x)
    if model.kind == "linear_regression":
        per_sample = 0.5 * np.sum((out - y.reshape(n, -1)) ** 2, axis=1)
    else:
        shifted = out - out.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        per_sample = -(shifted[np.arange(n), y.astype(np.int64)] - log_norm)
    return float(np.sum(per_sample) / n)


def loss_gradient(model: Model, theta: ParamVector, x: np.ndarray,
                  y: np.ndarray) -> ParamVector:
    """d loss / d theta by backpropagation, in flatten order."""
    n = len(x)
    params = blocks(model, theta)
    hidden, out = forward(model, params, x)
    if model.kind == "linear_regression":
        delta = out - y.reshape(n, -1)
    else:
        exp = np.exp(out - out.max(axis=1, keepdims=True))
        delta = exp / exp.sum(axis=1, keepdims=True)
        delta[np.arange(n), y.astype(np.int64)] -= 1.0
    delta = delta / n

    grads = []
    if model.kind == "mlp1h":
        grads = [hidden.T @ delta, delta.sum(axis=0)]
        delta = (delta @ params[2].T) * (1.0 - hidden**2)
    grads = [x.T @ delta, delta.sum(axis=0)] + grads
    return np.concatenate([g.ravel() for g in grads])


def accuracy(model: Model, theta: ParamVector, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of the samples whose largest output is at their label."""
    _, out = forward(model, blocks(model, theta), x)
    return float(np.mean(out.argmax(axis=1) == y.astype(np.int64)))


def reference_forward_loss(model: Model, theta: ParamVector, batch: Dataset) -> float:
    return loss(model, theta, *batch.canonical)


def reference_gradient(model: Model, theta: ParamVector, batch: Dataset) -> ParamVector:
    return loss_gradient(model, theta, *batch.canonical)


def reference_accuracy(model: Model, theta: ParamVector, batch: Dataset) -> float:
    return accuracy(model, theta, batch.inputs, batch.labels)
