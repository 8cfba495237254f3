"""Gradient-space PCA over centralized training runs.

Records one accumulated gradient per epoch, then asks how many principal
directions carry a target fraction of the stacked gradients' singular-value
mass (95% / 99%), for every prefix of the stack, recovers those principal
gradient directions, and builds the overlap and pairwise-similarity heatmap
matrices.

The mass fraction is counted on raw singular values. The classical squared
(explained-variance) convention generally reports fewer components; the
tests count it with an independent SVD oracle, not with this module.
"""

import math
import mmap
import os
import signal
import struct
import sys

import numpy as np

from .data import Dataset
from .fl_core import RoundConfig, WorkerState, local_round, one_pass_steps
from .models import Model, init_params
from .numerics import check_finite, cosine_sim, fix_sign, is_zero


def _zero_below(s: np.ndarray, tol: float) -> np.ndarray:
    if s.size and s[0] > 0:
        s[s < tol * s[0]] = 0.0
    return s


def _singular_values(stack: np.ndarray, gram) -> np.ndarray:
    """Descending singular values, sub-noise trailing values zeroed.

    A wide stack (M > T) takes its spectrum from `gram`, its T x T Gram
    matrix, which callers form anyway; this is much cheaper than a direct
    SVD and yields the same spectrum. Gram eigenvalues carry machine noise
    on the squared scale, so that route's rank cutoff is sqrt(eps)-relative
    rather than eps-relative. A tall stack takes a direct SVD, and `gram`
    is not read.
    """
    t, m = stack.shape
    eps = max(t, m) * np.finfo(np.float64).eps
    if m > t:
        w = np.linalg.eigvalsh(gram)
        return _zero_below(np.sqrt(np.clip(w[::-1], 0.0, None)), math.sqrt(eps))
    return _zero_below(np.linalg.svd(stack, compute_uv=False), eps)


def _count_for_mass(s: np.ndarray, variance: float) -> int:
    total = s.sum()
    if total == 0.0:
        return 0
    cum = np.cumsum(s)
    # tiny relative slack so exact-tie fixtures are not lost to rounding
    threshold = variance * total - 1e-12 * total
    return int(np.searchsorted(cum, threshold, side="left")) + 1


def pgd(grads: np.ndarray, variance: float) -> list:
    """Principal gradient directions of a (T, M) gradient stack: as many
    leading unit right-singular vectors as carry the fraction `variance` of
    its singular-value mass.

    Sign convention: the first nonzero coordinate of each direction is
    positive, so repeated analyses agree bit for bit. A wide stack's Gram
    matrix is formed once, for both the count and the directions.
    """
    t, m = grads.shape
    gram = grads @ grads.T if m > t else None
    count = _count_for_mass(_singular_values(grads, gram), variance)
    if m > t:
        w, u = np.linalg.eigh(gram)
        order = np.argsort(w)[::-1]
        w = np.clip(w[order], 0.0, None)
        u = u[:, order]
        dirs = [grads.T @ u[:, i] / math.sqrt(w[i]) for i in range(count)]
    else:
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
            print(f"warning: epoch {i} gradient has zero norm; overlap row zeroed",
                  file=sys.stderr)
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
            print(f"warning: epoch {i} gradient has zero norm; similarity row zeroed",
                  file=sys.stderr)
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
    return epoch, _count_for_mass(s, 0.95), _count_for_mass(s, 0.99)


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
# the count of epochs stored, on the pipe that feeds the helper: each write
# is one atomic 8-byte count, so every read of a multiple of 8 bytes gives
# whole counts
_COUNT = struct.Struct("=q")


def _serve(feed: int, fd: int, parent: int, grads: np.ndarray, gram: np.ndarray):
    """The helper: count the row of every epoch from epoch 0 up, once `feed`
    has announced it stored (the latest count read, or every epoch at end
    of file), writing each to `fd` as one record as soon as it is counted.
    A row that raises ends it. Once `parent` is no longer its parent,
    checked before each row, returns."""
    epochs, ready = len(gram), 0
    for epoch in range(epochs):
        while ready <= epoch:
            counts = os.read(feed, 1 << 12)
            ready = _COUNT.unpack_from(counts, len(counts) - _COUNT.size)[0] if counts else epochs
        if os.getppid() != parent:
            return
        os.write(fd, _RECORD.pack(*_progression_row(grads, gram, epoch)))


class SpectrumProgression:
    """The (epochs, M) gradient stack `grads` of a run, its Gram matrix
    `gram` and their per-epoch rows (epoch, n95, n99), the stack and Gram
    matrix filled one epoch at a time: `add(epoch)` once that epoch's
    gradient is stored in `grads`, `rows()` once all are.

    Use it as a context manager, entered before the first `add`. The stack
    and Gram matrix share one anonymous shared mapping. Where it can be
    made, the platform can fork and the process may use two CPUs or more,
    entering forks one helper, pid `_child`, that sees each epoch as it is
    stored. `add` announces each epoch on a feed pipe, without waiting: a
    count the full pipe cannot take is dropped, and a later one replaces
    it; after the last epoch the feed is closed, and its end of file tells
    the helper every epoch is ready. The helper counts each announced row
    from epoch 0 up, writes each to a second pipe as it goes, and leaves by
    os._exit, so none of the caller's code or atexit handlers runs in it: 0
    once it has counted every row or found its parent gone, else 1. `rows()` counts from the
    last epoch down, in process, until it reaches the rows the helper has
    written, taking what the pipe holds without waiting; so it never waits
    for the helper, and a helper that dies or stops costs only speed.
    Without a helper (one CPU, no mapping, a failed fork, or never entered)
    it counts every row. Leaving the context stops and reaps the helper.
    """

    def __init__(self, epochs: int, m: int):
        self._child = self._feed = self._pipe = None
        self._pending = bytearray()  # the helper's bytes past its last whole record
        self._received = []  # the helper's rows, from epoch 0 up
        try:
            shared = mmap.mmap(-1, 8 * epochs * (m + epochs))
        except (OSError, OverflowError):  # 0 bytes, or more than can be mapped
            shared = None
        self._shared = shared is not None
        try:
            if shared is None:  # numpy allocates, or raises why it cannot
                self.grads = np.empty((epochs, m))
                self.gram = np.zeros((epochs, epochs))
            else:
                self.grads = np.ndarray((epochs, m), buffer=shared)
                self.gram = np.ndarray((epochs, epochs), buffer=shared, offset=self.grads.nbytes)
        except ValueError as exc:  # numpy rejects a shape past its size limit before allocating
            raise MemoryError(str(exc)) from None

    def add(self, epoch: int):
        # diagonal included, one np.vecdot gives the bits of one np.dot per pair
        row = np.vecdot(self.grads[: epoch + 1], self.grads[epoch])
        self.gram[epoch, : epoch + 1] = self.gram[: epoch + 1, epoch] = row
        check_finite(row, f"Gram row of epoch {epoch}")
        if self._feed is None:
            return
        if epoch + 1 == len(self.gram):
            os.close(self._feed)
            self._feed = None
            return
        try:
            os.write(self._feed, _COUNT.pack(epoch + 1))
        except (BlockingIOError, BrokenPipeError):  # a full pipe, or the helper gone
            pass

    def __enter__(self):
        """Fork the helper, where one can run, to count each epoch's row once
        `add` has announced it."""
        if not (self._shared and _helper_can_run()):
            return self
        feed_read, feed_write = os.pipe()
        read_end, write_end = os.pipe()
        parent = os.getpid()
        try:
            pid = os.fork()
        except OSError:  # no fork (EAGAIN, ENOMEM); the helper is only a speed-up
            for fd in (feed_read, feed_write, read_end, write_end):
                os.close(fd)
            return self
        if pid == 0:  # the helper
            try:
                os.close(feed_write)
                os.close(read_end)
                _serve(feed_read, write_end, parent, self.grads, self.gram)
            except BaseException:
                os._exit(1)
            os._exit(0)
        os.close(feed_read)
        os.close(write_end)
        os.set_blocking(feed_write, False)
        os.set_blocking(read_end, False)
        self._child, self._feed = pid, feed_write
        self._pipe = open(read_end, "rb", buffering=0)
        return self

    def _receive(self) -> list:
        """The helper's rows so far, from epoch 0 up: takes every whole
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
        first failing one raised. Counts down from the last epoch until the
        helper's rows, which come up from epoch 0, end."""
        epochs, counted = len(self.gram), []
        try:
            while len(self._receive()) + len(counted) < epochs:
                counted.append(_progression_row(self.grads, self.gram, epochs - 1 - len(counted)))
        except Exception:
            # the row below this one that fails first, if any, is the error
            # an ascending count would raise
            for epoch in range(len(self._received), epochs - 1 - len(counted)):
                _progression_row(self.grads, self.gram, epoch)
            raise
        return self._received[: epochs - len(counted)] + counted[::-1]

    def close(self):
        if self._child is None:
            return
        pid, self._child = self._child, None
        if self._feed is not None:
            os.close(self._feed)
            self._feed = None
        if self._pipe is not None:
            self._pipe.close()
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)

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
    when no epoch ran. The spectrum helper starts before the first epoch and
    counts the rows from epoch 0 up as training stores them, while the
    model trains and the matrices are built; this process counts the rest
    from the last epoch down once they are, and the helper stops before
    this returns."""
    with SpectrumProgression(epochs, model.param_dim) as progression:
        grads = record_centralized(model, dataset, progression, eta, batch_size, rng)
        overlap = overlap_matrix(grads, pgd(grads, 0.99))
        similarity = similarity_matrix(grads)
        return progression.rows(), overlap, similarity
