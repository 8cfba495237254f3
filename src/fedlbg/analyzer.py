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
import os
import signal
import struct

import numpy as np

from .data import Dataset
from .fl_core import RoundConfig, WorkerState, local_round, one_pass_steps
from .models import Model, init_params
from .numerics import check_finite, cosine_sim, fix_sign, is_zero

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
    eps = max(t, m) * np.finfo(np.float64).eps
    if m > t:
        w = np.linalg.eigvalsh(stack @ stack.T if gram is None else gram)
        return _zero_below(np.sqrt(np.clip(w[::-1], 0.0, None)), math.sqrt(eps))
    return _zero_below(np.linalg.svd(stack, compute_uv=False), eps)


def _count_for_mass(s: np.ndarray, variance: float, squared: bool) -> int:
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
        dirs = [grads.T @ u[:, i] / math.sqrt(w[i]) for i in range(count)]
    else:
        count = n_pca(grads, variance, squared)
        _, _, vt = np.linalg.svd(grads, full_matrices=False)
        dirs = [vt[i].copy() for i in range(count)]
    for d in dirs:
        fix_sign(d)
    return dirs


def overlap_matrix(grads: np.ndarray, pgds) -> np.ndarray:
    """Cosine similarity of every epoch gradient (row of the (T, M) stack)
    with every principal direction; zero-norm gradients give a zero row."""
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
    rows = list(grads)  # one view per row, not one per pair
    out = np.zeros((len(rows), len(rows)))
    nonzero = [not is_zero(g) for g in rows]
    for i, g in enumerate(rows):
        if not nonzero[i]:
            log.warning("epoch %d gradient has zero norm; similarity row zeroed", i)
            continue
        row = [cosine_sim(g, h) if nz else 0.0 for h, nz in zip(rows[i:], nonzero[i:])]
        out[i, i:] = out[i:, i] = row
    return out


def _progression_row(grads: np.ndarray, gram: np.ndarray, epoch: int) -> tuple:
    """(epoch, n95, n99) of the gradients of epochs 0..epoch: a wide prefix
    is counted on its Gram matrix, the leading block of `gram`, a tall one
    on its singular values."""
    t = epoch + 1
    s = _singular_values(grads[:t], gram[:t, :t])
    return epoch, _count_for_mass(s, 0.95, False), _count_for_mass(s, 0.99, False)


def _helper_can_run() -> bool:
    """Whether the platform can fork the spectrum helper and this process
    may use two CPUs or more: on one, the helper would share it, and the
    run is slower."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return hasattr(os, "fork") and cpus >= 2


# one row (epoch, n95, n99) on the helper's pipe: 24 bytes, at most PIPE_BUF,
# so each os.write of one is atomic
_RECORD = struct.Struct("=3q")


def _serve(fd: int, parent: int, grads: np.ndarray, gram: np.ndarray):
    """The helper: count the row of every epoch from the last one down,
    writing each to `fd` as one record as soon as it is counted. A row that
    raises ends it. Once `parent` is no longer its parent, checked before
    each row, returns."""
    for epoch in reversed(range(len(gram))):
        if os.getppid() != parent:
            return
        os.write(fd, _RECORD.pack(*_progression_row(grads, gram, epoch)))


class SpectrumProgression:
    """The (epochs, M) gradient stack `grads` of a run, its Gram matrix
    `gram` and their per-epoch rows (epoch, n95, n99), the stack and Gram
    matrix filled one epoch at a time: `add(epoch)` once that epoch's
    gradient is stored in `grads`, `start()` and `rows()` once all are.

    Where the platform can fork and the process may use two CPUs or more,
    `start()` forks one helper, pid `_child`, to count the rows on its
    complete fork-time copy of the stack and Gram matrix while the caller
    goes on. It counts from the last epoch down and writes each row to a
    pipe as it goes, and leaves by os._exit, so none of the caller's code
    or atexit handlers runs in it: 0 once it has counted every row or found
    its parent gone, else 1. `rows()` counts from epoch 0 up, in process,
    until it reaches the first epoch whose row the helper has written,
    taking what the pipe holds without waiting; so it never waits for the
    helper, and a helper that dies or stops costs only speed. Without a
    helper (one CPU, a failed fork, or no `start()`) it counts every row.
    Use it as a context manager, which stops and reaps the helper.
    """

    def __init__(self, epochs: int, m: int):
        self._child = self._pipe = None
        self._pending = bytearray()  # the helper's bytes past its last whole record
        self._received = []  # the helper's rows, last epoch first
        try:
            self.grads = np.empty((epochs, m))
            self.gram = np.zeros((epochs, epochs))
        except ValueError as exc:  # numpy rejects a shape past its size limit before allocating
            raise MemoryError(str(exc)) from None

    def add(self, epoch: int):
        # diagonal included, one np.vecdot gives the bits of one np.dot per pair
        row = np.vecdot(self.grads[: epoch + 1], self.grads[epoch])
        self.gram[epoch, : epoch + 1] = self.gram[: epoch + 1, epoch] = row
        check_finite(row, f"Gram row of epoch {epoch}")

    def start(self):
        """Fork the helper, where one can run, to count every epoch's row."""
        if not (len(self.gram) and _helper_can_run()):
            return
        read_end, write_end = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:  # no fork (EAGAIN, ENOMEM); the helper is only a speed-up
            os.close(read_end)
            os.close(write_end)
            return
        if pid == 0:  # the helper
            try:
                os.close(read_end)
                _serve(write_end, parent, self.grads, self.gram)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(write_end)
        os.set_blocking(read_end, False)
        self._child, self._pipe = pid, open(read_end, "rb", buffering=0)

    def _receive(self) -> list:
        """The helper's rows so far, last epoch first: takes every whole
        record its pipe holds, without waiting, and closes the pipe at end
        of file, which comes once the helper has finished, died or failed."""
        while self._pipe is not None and (data := self._pipe.read(1 << 16)) is not None:
            if not data:
                self._pipe.close()
                self._pipe = None
                break
            self._pending += data
        whole = len(self._pending) - len(self._pending) % _RECORD.size
        self._received += _RECORD.iter_unpack(self._pending[:whole])
        del self._pending[:whole]
        return self._received

    def rows(self) -> list:
        """The rows of every added epoch, in order; raises what counting the
        first failing one raised. Counts up from epoch 0 until the helper's
        rows, which come down from the last epoch, begin."""
        epochs, counted = len(self.gram), []
        while len(counted) + len(self._receive()) < epochs:
            counted.append(_progression_row(self.grads, self.gram, len(counted)))
        return counted + self._received[: epochs - len(counted)][::-1]

    def close(self):
        if self._child is None:
            return
        pid, self._child = self._child, None
        if self._pipe is not None:
            self._pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def record_centralized(
    model: Model,
    dataset: Dataset,
    progression: SpectrumProgression,
    eta: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Centralized minibatch SGD for one epoch per row of `progression.grads`,
    storing each epoch's accumulated gradient there and adding it to the
    progression. Returns the filled stack."""
    n = dataset.n
    worker = WorkerState(np.arange(n), rng)
    theta = init_params(model, rng)
    cfg = RoundConfig(eta, one_pass_steps(n, batch_size), batch_size)
    grads = progression.grads
    for epoch in range(len(grads)):
        grads[epoch], theta = local_round(worker, theta, cfg, model, dataset)
        progression.add(epoch)
    return grads


def analyze(model: Model, dataset: Dataset, epochs: int, eta: float, batch_size: int,
            rng: np.random.Generator):
    """Record the gradients of a centralized run and analyze them: returns
    (progression rows, overlap matrix, similarity matrix), the matrices 0 x 0
    when no epoch ran. The spectrum helper starts once training has ended
    and counts the rows from the last epoch down while the matrices are
    built; this process counts the rest from epoch 0 up once they are, and
    the helper stops before this returns."""
    with SpectrumProgression(epochs, model.param_dim) as progression:
        grads = record_centralized(model, dataset, progression, eta, batch_size, rng)
        progression.start()
        overlap = overlap_matrix(grads, pgd(grads, 0.99))
        similarity = similarity_matrix(grads)
        return progression.rows(), overlap, similarity
