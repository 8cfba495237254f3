"""Gradient-space PCA over centralized training runs.

Records one accumulated gradient per epoch, then asks how many principal
directions carry a target fraction of the stacked gradients' singular-value
mass (95% / 99%), recovers those principal gradient directions, and builds
the overlap and pairwise-similarity heatmap matrices.

The mass fraction is counted on raw singular values by default; the
classical squared (explained-variance) convention is available via the
``squared`` flag and generally reports fewer components.
"""

import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data import Dataset
from .fl_core import RoundConfig, WorkerState, local_round
from .models import Model, init_params
from .numerics import check_finite, cosine_sim, leads_negative, norm_sq

log = logging.getLogger(__name__)


@dataclass
class GradientLog:
    grads: list  # one accumulated gradient per epoch, in epoch order
    layer_shapes: Optional[tuple] = None

    def stack(self) -> np.ndarray:
        if not self.grads:
            raise ValueError("gradient log is empty")
        return np.stack(self.grads)

    def layer_view(self, layer_index: int) -> "GradientLog":
        """Log restricted to one (rows, cols) block of the flat vector."""
        if self.layer_shapes is None:
            raise ValueError("no layer shapes attached to this log")
        off = 0
        for i, (rows, cols) in enumerate(self.layer_shapes):
            size = rows * cols
            if i == layer_index:
                return GradientLog([g[off : off + size] for g in self.grads])
            off += size
        raise IndexError(f"layer index {layer_index} out of range")


def _zero_below(s: np.ndarray, tol: float) -> np.ndarray:
    if s.size and s[0] > 0:
        s[s < tol * s[0]] = 0.0
    return s


def _gram_singular_values(gram: np.ndarray, m: int) -> np.ndarray:
    """Descending singular values of a T x M stack from its T x T Gram
    matrix. Gram eigenvalues carry machine noise on the squared scale, so
    the rank cutoff is sqrt(eps)-relative rather than eps-relative."""
    t = gram.shape[0]
    w = np.linalg.eigvalsh(gram)
    s = np.sqrt(np.clip(w[::-1], 0.0, None))
    return _zero_below(s, math.sqrt(max(t, m) * np.finfo(np.float64).eps))


def _singular_values(stack: np.ndarray) -> np.ndarray:
    """Descending singular values, sub-noise trailing values zeroed.

    For wide stacks (M >> T) the Gram matrix route is much cheaper than a
    direct SVD and yields the same spectrum.
    """
    t, m = stack.shape
    if m > t:
        return _gram_singular_values(stack @ stack.T, m)
    s = np.linalg.svd(stack, compute_uv=False)
    return _zero_below(s, max(t, m) * np.finfo(np.float64).eps)


def _count_for_mass(s: np.ndarray, variance: float, squared: bool) -> int:
    vals = s**2 if squared else s
    total = vals.sum()
    if total == 0.0:
        return 0
    cum = np.cumsum(vals)
    # tiny relative slack so exact-tie fixtures are not lost to rounding
    threshold = variance * total - 1e-12 * total
    return int(np.searchsorted(cum, threshold, side="left")) + 1


def n_pca(log_: GradientLog, variance: float, squared: bool = False) -> int:
    """Smallest component count reaching the target singular-value mass."""
    if not 0.0 < variance <= 1.0:
        raise ValueError(f"variance {variance} not in (0, 1]")
    return _count_for_mass(_singular_values(log_.stack()), variance, squared)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return -v if leads_negative(v) else v


def pgd(log_: GradientLog, variance: float, squared: bool = False) -> list:
    """Principal gradient directions: leading unit right-singular vectors.

    Sign convention: the first nonzero coordinate of each direction is
    positive, so repeated analyses agree bit for bit.
    """
    stack = log_.stack()
    t, m = stack.shape
    count = n_pca(log_, variance, squared)
    if m > t:
        gram = stack @ stack.T
        w, u = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        u = u[:, order]
        dirs = []
        for i in range(count):
            sigma = math.sqrt(w[i])
            dirs.append(_fix_sign(stack.T @ u[:, i] / sigma))
        return dirs
    _, _, vt = np.linalg.svd(stack, full_matrices=False)
    return [_fix_sign(vt[i].copy()) for i in range(count)]


def overlap_matrix(log_: GradientLog, pgds) -> np.ndarray:
    """Cosine similarity of every epoch gradient with every principal
    direction; zero-norm gradients give a zero row."""
    grads = log_.grads
    if not grads or not len(pgds):
        raise ValueError("need at least one gradient and one direction")
    out = np.zeros((len(grads), len(pgds)))
    for i, g in enumerate(grads):
        if norm_sq(g) == 0.0:
            log.warning("epoch %d gradient has zero norm; overlap row zeroed", i)
            continue
        for j, p in enumerate(pgds):
            out[i, j] = cosine_sim(g, p)
    return out


def similarity_matrix(log_: GradientLog) -> np.ndarray:
    """Symmetric pairwise cosine similarity of the epoch gradients."""
    grads = log_.grads
    if not grads:
        raise ValueError("gradient log is empty")
    t = len(grads)
    out = np.zeros((t, t))
    nonzero = [norm_sq(g) > 0.0 for g in grads]
    for i in range(t):
        if not nonzero[i]:
            log.warning("epoch %d gradient has zero norm; similarity row zeroed", i)
            continue
        for j in range(i, t):
            if nonzero[j]:
                out[i, j] = out[j, i] = cosine_sim(grads[i], grads[j])
    return out


def record_centralized(
    model: Model,
    dataset: Dataset,
    epochs: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
):
    """Centralized minibatch SGD, logging one accumulated gradient per epoch.

    Returns (gradient log, progression) where progression rows are
    (epoch, n95, n99) computed on the gradients recorded so far. The Gram
    matrix of the growing stack is maintained incrementally so the per-epoch
    PCA costs stay linear in M.
    """
    n = dataset.n
    worker = WorkerState(0, np.arange(n), model.param_dim, rng)
    theta = init_params(model, rng)
    size = n if batch_size <= 0 else batch_size
    cfg = RoundConfig(eta, max(1, math.ceil(n / size)), batch_size)

    grads = []
    gram = np.zeros((0, 0))
    progression = []
    for epoch in range(epochs):
        g = local_round(worker, theta, cfg, model, dataset)
        theta = worker.theta_local
        cross = np.array([float(np.dot(prev, g)) for prev in grads])
        new_gram = np.zeros((len(grads) + 1, len(grads) + 1))
        new_gram[: len(grads), : len(grads)] = gram
        new_gram[-1, : len(grads)] = cross
        new_gram[: len(grads), -1] = cross
        new_gram[-1, -1] = float(np.dot(g, g))
        check_finite(new_gram[-1], f"Gram row of epoch {epoch}")
        gram = new_gram
        grads.append(g)

        if model.param_dim > len(grads):
            s = _gram_singular_values(gram, model.param_dim)
        else:
            # route must match n_pca so per-prefix recomputation agrees
            s = _singular_values(np.stack(grads))
        progression.append(
            (epoch, _count_for_mass(s, 0.95, False), _count_for_mass(s, 0.99, False))
        )
    return GradientLog(grads, model.layer_shapes), progression
