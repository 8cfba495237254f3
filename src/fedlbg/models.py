"""Small differentiable models with closed-form gradients.

Three kinds are supported:

* ``linear_regression`` — affine map with mean squared error
  (per-sample loss 0.5 * ||x W + b - y||^2),
* ``softmax_classifier`` — affine map with softmax cross-entropy,
* ``mlp1h`` — one tanh hidden layer followed by softmax cross-entropy.

Parameters live in a single flat float64 vector. The flatten order is
fixed: layer by layer, weight matrix (row-major) then bias. The
per-layer compressors rely on these stable index blocks.

Per-sample contributions are reduced in a canonical order derived from
the sample content (bytewise sort of label + input rows), so loss and
gradient are exactly invariant under batch permutation.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import ParamVector, check_finite

MODEL_KINDS = ("linear_regression", "softmax_classifier", "mlp1h")


@dataclass(frozen=True)
class Model:
    kind: str
    input_dim: int
    output_dim: int
    hidden_dim: int
    param_dim: int
    layer_shapes: tuple  # ((rows, cols), ...) in flatten order


def build_model(kind: str, input_dim: int, output_dim: int, hidden_dim: int = 64) -> Model:
    if kind == "linear_regression" or kind == "softmax_classifier":
        shapes = ((input_dim, output_dim), (1, output_dim))
    elif kind == "mlp1h":
        shapes = (
            (input_dim, hidden_dim),
            (1, hidden_dim),
            (hidden_dim, output_dim),
            (1, output_dim),
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    m = sum(r * c for r, c in shapes)
    return Model(kind, input_dim, output_dim, hidden_dim, m, shapes)


def unpack(model: Model, theta: ParamVector) -> list:
    """Split a flat parameter vector into per-layer blocks (views)."""
    if theta.shape != (model.param_dim,):
        raise ValueError(
            f"theta has dim {theta.shape}, model expects ({model.param_dim},)"
        )
    blocks = []
    off = 0
    for rows, cols in model.layer_shapes:
        size = rows * cols
        blocks.append(theta[off : off + size].reshape(rows, cols))
        off += size
    return blocks


def pack(blocks) -> ParamVector:
    return np.concatenate([np.asarray(b, dtype=np.float64).ravel() for b in blocks])


def init_params(model: Model, rng: np.random.Generator) -> ParamVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per block, in flatten order.

    Blocks come in (weight, bias) pairs; both use the layer's fan_in, i.e.
    the weight matrix's row count.
    """
    blocks = []
    for j, (rows, cols) in enumerate(model.layer_shapes):
        fan_in = model.layer_shapes[j - j % 2][0]
        bound = 1.0 / np.sqrt(fan_in)
        blocks.append(rng.uniform(-bound, bound, size=(rows, cols)))
    return pack(blocks)


def _canonical_order(batch: Dataset) -> np.ndarray:
    """Permutation putting samples into a content-derived canonical order.

    Sorting rows bytewise (labels first, then inputs) gives a total order
    that does not depend on how the batch was assembled, which is what
    makes the batch-permutation invariance of loss/gradient exact.
    """
    labels = np.asarray(batch.labels)
    if labels.ndim == 1:
        lab = labels.astype(np.float64).reshape(-1, 1)
    else:
        lab = labels.astype(np.float64)
    rows = np.ascontiguousarray(np.hstack([lab, batch.inputs]))
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.argsort(keys, kind="stable")


def _ordered(batch: Dataset):
    """(inputs, labels) of the batch, sorted into canonical order."""
    order = _canonical_order(batch)
    return batch.inputs[order], np.asarray(batch.labels)[order]


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """(n, classes) indicator rows of integer class labels."""
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _forward(model: Model, theta: ParamVector, inputs: np.ndarray):
    """Return per-layer activations needed by both loss and gradient."""
    blocks = unpack(model, theta)
    if model.kind == "mlp1h":
        w1, b1, w2, b2 = blocks
        hidden = np.tanh(inputs @ w1 + b1)
        return hidden, hidden @ w2 + b2
    w, b = blocks
    return None, inputs @ w + b


def forward_loss(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Mean loss over the batch (MSE or cross-entropy by model kind)."""
    x, y = _ordered(batch)
    n = x.shape[0]
    _, out = _forward(model, theta, x)
    if model.kind == "linear_regression":
        targets = np.asarray(y, dtype=np.float64).reshape(n, -1)
        per_sample = 0.5 * np.sum((out - targets) ** 2, axis=1)
    else:
        labels = np.asarray(y, dtype=np.int64)
        z = out - out.max(axis=1, keepdims=True)
        log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        per_sample = -log_probs[np.arange(n), labels]
    loss = float(np.sum(per_sample) / n)
    if not np.isfinite(loss):
        raise FloatingPointError("loss is not finite")
    return loss


def gradient(model: Model, theta: ParamVector, batch: Dataset) -> ParamVector:
    """Gradient of forward_loss w.r.t. the flat parameter vector."""
    x, y = _ordered(batch)
    n = x.shape[0]
    hidden, out = _forward(model, theta, x)

    if model.kind == "linear_regression":
        targets = np.asarray(y, dtype=np.float64).reshape(n, -1)
        delta = (out - targets) / n
    else:
        labels = np.asarray(y, dtype=np.int64)
        delta = (_softmax(out) - one_hot(labels, model.output_dim)) / n

    if model.kind == "mlp1h":
        _, _, w2, _ = unpack(model, theta)
        d_w2 = hidden.T @ delta
        d_b2 = delta.sum(axis=0, keepdims=True)
        d_hidden = (delta @ w2.T) * (1.0 - hidden**2)
        d_w1 = x.T @ d_hidden
        d_b1 = d_hidden.sum(axis=0, keepdims=True)
        g = pack([d_w1, d_b1, d_w2, d_b2])
    else:
        d_w = x.T @ delta
        d_b = delta.sum(axis=0, keepdims=True)
        g = pack([d_w, d_b])
    return check_finite(g, "gradient")


def fd_check(model: Model, theta: ParamVector, batch: Dataset, eps: float) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = gradient(model, theta, batch)
    fd = np.empty_like(g)
    for i in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[i] = eps
        fd[i] = (
            forward_loss(model, theta + step, batch)
            - forward_loss(model, theta - step, batch)
        ) / (2.0 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
    return float(np.max(np.abs(g - fd) / denom))


def accuracy(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Fraction of correctly classified samples (classifiers only)."""
    _, logits = _forward(model, theta, batch.inputs)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == np.asarray(batch.labels, dtype=np.int64)))
