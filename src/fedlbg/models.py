"""Small differentiable models with closed-form gradients.

Three kinds are supported:

* ``linear_regression`` — affine map with mean squared error
  (per-sample loss 0.5 * ||x W + b - y||^2),
* ``softmax_classifier`` — affine map with softmax cross-entropy,
* ``mlp1h`` — one tanh hidden layer followed by softmax cross-entropy.

Parameters live in a single flat float64 vector. The flatten order is
fixed: layer by layer, weight matrix (row-major) then bias. `unpack`
is the one split of it into blocks; the per-layer compressor takes them.

Per-sample contributions are reduced in a canonical order derived from
the sample content (bytewise sort of label + input rows), so loss and
gradient are exactly invariant under batch permutation. Each dataset
sorts its rows by content once (data.content_order) and keeps them in
that order, read-only, with each row's slot in it; a minibatch is
gathered once from those rows at its sorted slots, so neither a gradient
nor the per-round evaluation on the training set sorts or copies rows
again.

All three kinds share one forward pass and one gradient. `_forward`
slices each block from the flat vector as it uses it; mlp1h puts its tanh
layer in front of the same affine output map the linear kinds use.
`gradient`, called once per minibatch step, applies the loss head, writes
the output layer's blocks into slices of one fresh vector and, only when
there is a hidden layer, back-propagates through tanh into the first two.

A reduction whose result does not depend on the order of its operands
(max) may be re-laid for speed: the softmax row max is taken over a
column-major copy. A sum keeps numpy's order and layout, since numpy
adds a contiguous axis in pairs and a re-laid sum rounds differently.
"""

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate

import numpy as np

from .data import Dataset
from .numerics import ParamVector

MODEL_KINDS = ("linear_regression", "softmax_classifier", "mlp1h")


@dataclass(frozen=True)
class Model:
    kind: str
    layer_shapes: tuple  # ((rows, cols), ...) in flatten order
    param_dim: int = field(init=False)
    _blocks: tuple = field(init=False, repr=False, compare=False)  # ((slice, shape), ...)

    def __post_init__(self):
        ends = list(accumulate(r * c for r, c in self.layer_shapes))
        slices = map(slice, [0] + ends, ends)
        object.__setattr__(self, "param_dim", ends[-1])
        object.__setattr__(self, "_blocks", tuple(zip(slices, self.layer_shapes)))


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
    return Model(kind, shapes)


def _check_dim(model: Model, theta: ParamVector):
    if theta.shape != (model.param_dim,):
        raise ValueError(
            f"theta has dim {theta.shape}, model expects ({model.param_dim},)"
        )


def unpack(model: Model, theta: ParamVector) -> list:
    """Split a flat parameter vector into per-layer blocks (views)."""
    _check_dim(model, theta)
    return [theta[s].reshape(shape) for s, shape in model._blocks]


def init_params(model: Model, rng: np.random.Generator) -> ParamVector:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) per block, in flatten order.

    Blocks come in (weight, bias) pairs; both use the layer's fan_in, i.e.
    the weight matrix's row count.
    """
    theta = np.empty(model.param_dim)
    for j, block in enumerate(unpack(model, theta)):
        fan_in = model.layer_shapes[j - j % 2][0]
        bound = 1.0 / np.sqrt(fan_in)
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    return theta


def _canonical_order(batch: Dataset) -> tuple:
    """(inputs, labels) of the batch in a content-derived canonical order.

    Rows are sorted bytewise (labels first, then inputs), stably: an order
    that does not depend on how the batch was assembled, which makes
    loss/gradient exactly permutation-invariant. The dataset keeps the
    sorted rows, read-only.
    """
    return batch.canonical


@cache
def _identity(width: int) -> np.ndarray:
    """Read-only (width, width) identity, one per output width."""
    eye = np.eye(width)
    eye.flags.writeable = False
    return eye


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """(n, classes) indicator rows of integer class labels, as a fresh array."""
    return _identity(classes).take(labels, axis=0)


def _row_max(a: np.ndarray) -> np.ndarray:
    """(n, 1) row maxima of a (n, k) array, reduced over a column-major
    copy: at k = 10 and n >= 512 about 4x faster than `a.max(axis=1)`.
    Max is order-free, so only the sign of a zero maximum can differ; the
    softmax that follows does not see it (see forward_loss)."""
    return np.maximum.reduce(a.T.copy(), axis=0)[:, None]


def _forward(model: Model, theta: ParamVector, inputs: np.ndarray):
    """(hidden, out): the tanh layer's activations (None without one) and the
    outputs, as fresh arrays the caller may overwrite. Each block is sliced
    from theta; biases stay 1-D, which broadcasts the same."""
    _check_dim(model, theta)
    blocks, hidden = model._blocks, None
    if model.kind == "mlp1h":
        (s1, shape1), (s2, _) = blocks[0], blocks[1]
        hidden = inputs @ theta[s1].reshape(shape1)
        hidden += theta[s2]
        np.tanh(hidden, out=hidden)
        inputs = hidden
    (sw, shape), (sb, _) = blocks[-2], blocks[-1]
    out = inputs @ theta[sw].reshape(shape)
    out += theta[sb]
    return hidden, out


def forward_loss(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Mean loss over the batch (MSE or cross-entropy by model kind)."""
    x, y = _canonical_order(batch)
    n = x.shape[0]
    _, out = _forward(model, theta, x)
    if model.kind == "linear_regression":
        out -= np.asarray(y, dtype=np.float64).reshape(n, -1)
        per_sample = 0.5 * np.sum(out**2, axis=1)
    else:
        # the two row-max forms differ only on a row whose maximum, zero, is
        # held by a +0 and a -0 entry; its exps then sum to at least 2, so
        # out[y] - log_norm is the same either way
        out -= _row_max(out)
        log_norm = np.log(np.exp(out).sum(axis=1))
        per_sample = -(out[np.arange(n), np.asarray(y, dtype=np.int64)] - log_norm)
    loss = float(np.sum(per_sample) / n)
    if not math.isfinite(loss):
        raise FloatingPointError("loss is not finite")
    return loss


def gradient(model: Model, theta: ParamVector, batch: Dataset) -> ParamVector:
    """Gradient of forward_loss w.r.t. the flat parameter vector."""
    x, y = _canonical_order(batch)
    n = x.shape[0]
    hidden, delta = _forward(model, theta, x)
    if model.kind == "linear_regression":
        delta -= np.asarray(y, dtype=np.float64).reshape(n, -1)
    else:  # softmax minus one-hot
        delta -= _row_max(delta)
        np.exp(delta, out=delta)
        delta /= delta.sum(axis=1, keepdims=True)
        delta -= one_hot(np.asarray(y, dtype=np.int64), delta.shape[1])  # x - 0.0 == x
    delta /= n
    grad = np.empty(model.param_dim)
    blocks = model._blocks
    (sw, shape), (sb, _) = blocks[-2], blocks[-1]
    np.matmul((x if hidden is None else hidden).T, delta, out=grad[sw].reshape(shape))
    np.add.reduce(delta, axis=0, out=grad[sb])
    if hidden is not None:  # back through tanh: * (1 - hidden**2)
        (s1, shape1), (s2, _) = blocks[0], blocks[1]
        delta = delta @ theta[sw].reshape(shape).T
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        delta *= hidden
        np.matmul(x.T, delta, out=grad[s1].reshape(shape1))
        np.add.reduce(delta, axis=0, out=grad[s2])
    return grad


def accuracy(model: Model, theta: ParamVector, batch: Dataset) -> float:
    """Fraction of correctly classified samples (classifiers only)."""
    _, logits = _forward(model, theta, batch.inputs)
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == np.asarray(batch.labels, dtype=np.int64)))
