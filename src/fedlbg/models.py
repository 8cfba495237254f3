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
gradient are exactly invariant under batch permutation. Each dataset
ranks its rows by content once (data.content_rank) and a minibatch
carries its rows' ranks, so ordering a batch is an integer argsort. A
dataset keeps its rows in that order once sorted (read-only), so the
per-round evaluation on the training set does not sort it again.
"""

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import ParamVector

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


def _canonical_order(batch: Dataset) -> tuple:
    """(inputs, labels) of the batch in a content-derived canonical order.

    Rows are sorted bytewise (labels first, then inputs) by a stable
    argsort of the content ranks: an order that does not depend on how the
    batch was assembled, which makes loss/gradient exactly
    permutation-invariant. The dataset keeps the sorted rows, read-only.
    """
    return batch.canonical


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """(n, classes) indicator rows of integer class labels."""
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _forward(model: Model, blocks: list, inputs: np.ndarray):
    """Return per-layer activations needed by both loss and gradient, as
    fresh arrays the caller may overwrite."""
    if model.kind == "mlp1h":
        w1, b1, w2, b2 = blocks
        hidden = inputs @ w1
        hidden += b1
        np.tanh(hidden, out=hidden)
        out = hidden @ w2
        out += b2
        return hidden, out
    w, b = blocks
    out = inputs @ w
    out += b
    return None, out


def forward_loss(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Mean loss over the batch (MSE or cross-entropy by model kind)."""
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
    loss = float(np.sum(per_sample) / n)
    if not np.isfinite(loss):
        raise FloatingPointError("loss is not finite")
    return loss


def gradient(model: Model, theta: ParamVector, batch: Dataset) -> ParamVector:
    """Gradient of forward_loss w.r.t. the flat parameter vector."""
    x, y = _canonical_order(batch)
    n = x.shape[0]
    blocks = unpack(model, theta)
    hidden, delta = _forward(model, blocks, x)

    if model.kind == "linear_regression":
        delta -= np.asarray(y, dtype=np.float64).reshape(n, -1)
    else:  # softmax minus one-hot
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
        delta = delta @ blocks[2].T  # back through tanh: * (1 - hidden**2)
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        delta *= hidden
    np.matmul(x.T, delta, out=grad_blocks[0])
    np.add.reduce(delta, axis=0, keepdims=True, out=grad_blocks[1])
    return grad


def accuracy(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Fraction of correctly classified samples (classifiers only)."""
    _, logits = _forward(model, unpack(model, theta), batch.inputs)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == np.asarray(batch.labels, dtype=np.int64)))
