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

import numpy as np

from .data import Dataset
from .fl_core import RoundConfig, WorkerState, local_round, one_pass_steps
from .models import Model, init_params
from .numerics import check_finite, cosine_sim, is_zero, leads_negative

log = logging.getLogger(__name__)


def _zero_below(s: np.ndarray, tol: float) -> np.ndarray:
    if s.size and s[0] > 0:
        s[s < tol * s[0]] = 0.0
    return s


def _singular_values(stack: np.ndarray, gram=None) -> np.ndarray:
    """Descending singular values, sub-noise trailing values zeroed.

    For wide stacks (M > T) the spectrum comes from the T x T Gram matrix,
    which callers that maintain it pass in; this is much cheaper than a
    direct SVD and yields the same spectrum. Gram eigenvalues carry machine
    noise on the squared scale, so that route's rank cutoff is
    sqrt(eps)-relative rather than eps-relative.
    """
    t, m = stack.shape
    if t == 0:
        raise ValueError("gradient stack is empty")
    eps = max(t, m) * np.finfo(np.float64).eps
    if m > t:
        w = np.linalg.eigvalsh(stack @ stack.T if gram is None else gram)
        return _zero_below(np.sqrt(np.clip(w[::-1], 0.0, None)), math.sqrt(eps))
    return _zero_below(np.linalg.svd(stack, compute_uv=False), eps)


def _count_for_mass(s: np.ndarray, variance: float, squared: bool) -> int:
    if not 0.0 < variance <= 1.0:
        raise ValueError(f"variance {variance} not in (0, 1]")
    vals = s**2 if squared else s
    total = vals.sum()
    if total == 0.0:
        return 0
    cum = np.cumsum(vals)
    # tiny relative slack so exact-tie fixtures are not lost to rounding
    threshold = variance * total - 1e-12 * total
    return int(np.searchsorted(cum, threshold, side="left")) + 1


def n_pca(grads: np.ndarray, variance: float, squared: bool = False) -> int:
    """Smallest component count reaching the target singular-value mass of
    a (T, M) gradient stack."""
    return _count_for_mass(_singular_values(grads), variance, squared)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    return -v if leads_negative(v) else v


def pgd(grads: np.ndarray, variance: float, squared: bool = False) -> list:
    """Principal gradient directions of a (T, M) gradient stack: leading
    unit right-singular vectors.

    Sign convention: the first nonzero coordinate of each direction is
    positive, so repeated analyses agree bit for bit. A wide stack's Gram
    matrix is formed once, for both the count and the directions.
    """
    t, m = grads.shape
    if m > t:
        gram = grads @ grads.T
        count = _count_for_mass(_singular_values(grads, gram), variance, squared)
        w, u = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        u = u[:, order]
        dirs = []
        for i in range(count):
            sigma = math.sqrt(w[i])
            dirs.append(_fix_sign(grads.T @ u[:, i] / sigma))
        return dirs
    count = n_pca(grads, variance, squared)
    _, _, vt = np.linalg.svd(grads, full_matrices=False)
    return [_fix_sign(vt[i].copy()) for i in range(count)]


def overlap_matrix(grads: np.ndarray, pgds) -> np.ndarray:
    """Cosine similarity of every epoch gradient (row of the (T, M) stack)
    with every principal direction; zero-norm gradients give a zero row."""
    if not len(grads) or not len(pgds):
        raise ValueError("need at least one gradient and one direction")
    out = np.zeros((len(grads), len(pgds)))
    for i, g in enumerate(grads):
        if is_zero(g):
            log.warning("epoch %d gradient has zero norm; overlap row zeroed", i)
            continue
        out[i] = [cosine_sim(g, p) for p in pgds]
    return out


def similarity_matrix(grads: np.ndarray) -> np.ndarray:
    """Symmetric pairwise cosine similarity of the rows of a (T, M)
    gradient stack."""
    if not len(grads):
        raise ValueError("gradient stack is empty")
    t = len(grads)
    out = np.zeros((t, t))
    nonzero = [not is_zero(g) for g in grads]
    for i, g in enumerate(grads):
        if not nonzero[i]:
            log.warning("epoch %d gradient has zero norm; similarity row zeroed", i)
            continue
        row = [cosine_sim(g, h) if nz else 0.0 for h, nz in zip(grads[i:], nonzero[i:])]
        out[i, i:] = out[i:, i] = row
    return out


def record_centralized(
    model: Model,
    dataset: Dataset,
    epochs: int,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
):
    """Centralized minibatch SGD, recording one accumulated gradient per epoch.

    Returns (grads, progression): grads is the (epochs, M) stack of epoch
    gradients and progression rows are (epoch, n95, n99) computed on the
    gradients recorded so far. The Gram matrix of the stack is filled one
    row per epoch so the per-epoch PCA costs stay linear in M; `np.vecdot`
    forms a row's products, diagonal included, with the same bits as one
    `np.dot` per pair.
    """
    n = dataset.n
    worker = WorkerState(0, np.arange(n), rng)
    theta = init_params(model, rng)
    cfg = RoundConfig(eta, one_pass_steps(n, batch_size), batch_size)

    grads = np.empty((epochs, model.param_dim))
    gram = np.zeros((epochs, epochs))
    progression = []
    for epoch in range(epochs):
        grads[epoch], theta = local_round(worker, theta, cfg, model, dataset)
        row = np.vecdot(grads[: epoch + 1], grads[epoch])
        gram[epoch, : epoch + 1] = gram[: epoch + 1, epoch] = row
        check_finite(row, f"Gram row of epoch {epoch}")
        s = _singular_values(grads[: epoch + 1], gram[: epoch + 1, : epoch + 1])
        progression.append(
            (epoch, _count_for_mass(s, 0.95, False), _count_for_mass(s, 0.99, False))
        )
    return grads, progression
