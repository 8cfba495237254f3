import logging
import os
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer
from fedlbg.analyzer import (
    SpectrumProgression,
    n_pca,
    overlap_matrix,
    pgd,
    record_centralized,
    similarity_matrix,
)
from fedlbg.data import synth_classification
from fedlbg.models import build_model
from fedlbg.numerics import rng_stream
from support import helper_acting_at, needs_helper, package_env, process_state


def test_n_pca_identical_gradients_is_one():
    g = np.array([1.0, -2.0, 0.5])
    grads = np.stack([g.copy() for _ in range(15)])
    for variance in (0.5, 0.95, 0.99, 1.0):
        assert n_pca(grads, variance) == 1


def test_n_pca_orthogonal_equal_norm_oracle():
    # 20 orthonormal gradients: equal singular values, brute-force cumulative
    # count gives ceil(0.95 * 20) = 19
    grads = np.stack([np.eye(20)[i] * 3.0 for i in range(20)])
    s = np.full(20, 1.0)
    cum = np.cumsum(s) / s.sum()
    brute = int(np.argmax(cum >= 0.95)) + 1
    assert brute == 19
    assert n_pca(grads, 0.95) == 19
    assert n_pca(grads, 1.0) == 20


def test_n_pca_variance_one_is_numerical_rank():
    rng = rng_stream(30, 0)
    basis = rng.standard_normal((3, 50))
    coeffs = rng.standard_normal((8, 3))
    grads = coeffs @ basis
    assert n_pca(grads, 1.0) == 3


def test_n_pca_all_zero_log():
    grads = np.stack([np.zeros(5), np.zeros(5)])
    assert n_pca(grads, 0.99) == 0


@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])  # wide (Gram) and tall (SVD) routes
def test_pgd_keeps_n_pca_directions(shape):
    grads = rng_stream(32, 0).standard_normal(shape)
    for variance in (0.5, 0.95, 1.0):
        assert len(pgd(grads, variance)) == n_pca(grads, variance)
        assert len(pgd(grads, variance, squared=True)) == n_pca(grads, variance, squared=True)


def test_n_pca_ordering_invariant():
    rng = rng_stream(31, 0)
    grads = rng.standard_normal((12, 40))
    assert n_pca(grads, 0.95) <= n_pca(grads, 0.99) <= min(12, 40)


def test_n_pca_squared_counts_fewer():
    rng = rng_stream(32, 0)
    grads = rng.standard_normal((15, 60))
    assert n_pca(grads, 0.95, squared=True) <= n_pca(grads, 0.95)


def test_pgd_single_gradient():
    g = np.array([0.0, -3.0, 4.0])
    dirs = pgd(np.stack([g]), 0.99)
    assert len(dirs) == 1
    # unit norm, sign fixed so the first nonzero coordinate is positive
    expected = np.array([0.0, 3.0 / 5.0, -4.0 / 5.0])
    np.testing.assert_allclose(dirs[0], expected, atol=1e-12)


def test_pgd_orthogonal_inputs_recovered():
    a = np.array([2.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 5.0, 0.0])
    dirs = pgd(np.stack([a, b]), 1.0)
    assert len(dirs) == 2
    recovered = np.abs(np.stack(dirs))
    assert recovered[0][2] == pytest.approx(1.0, abs=1e-12)  # larger sigma first
    assert recovered[1][0] == pytest.approx(1.0, abs=1e-12)


def test_pgd_orthonormal_to_1e9():
    rng = rng_stream(33, 0)
    grads = rng.standard_normal((10, 300))
    dirs = pgd(grads, 0.99)
    v = np.stack(dirs)
    gram = v @ v.T
    np.testing.assert_allclose(gram, np.eye(len(dirs)), atol=1e-9)


def test_overlap_matrix_single():
    g = np.array([1.0, 2.0, 2.0])
    grads = np.stack([g])
    mat = overlap_matrix(grads, pgd(grads, 0.99))
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_overlap_matrix_bounded_and_zero_rows():
    rng = rng_stream(34, 0)
    grads = rng.standard_normal((6, 20))
    grads[3] = 0.0
    dirs = pgd(grads[grads.any(axis=1)], 0.95)
    mat = overlap_matrix(grads, dirs)
    assert np.all(np.abs(mat) <= 1.0)
    assert np.array_equal(mat[3], np.zeros(len(dirs)))


def test_overlap_matrix_gradient_orthogonal_to_all_pgds():
    # direction dropped below the variance target: its row collapses to zero
    a = np.array([10.0, 0.0, 0.0])
    b = np.array([0.0, 1e-9, 0.0])
    grads = np.stack([a, b])
    dirs = pgd(grads, 0.5)  # keeps only the dominant direction
    assert len(dirs) == 1
    mat = overlap_matrix(grads, dirs)
    np.testing.assert_allclose(mat[1], np.zeros(1), atol=1e-9)


def test_similarity_matrix_identical_and_orthogonal():
    g = np.array([1.0, 1.0])
    ones = similarity_matrix(np.stack([g, 2.0 * g, 3.0 * g]))
    assert np.array_equal(ones, np.ones((3, 3)))

    ortho = similarity_matrix(np.stack([np.array([1.0, 0.0]), np.array([0.0, 2.0])]))
    assert np.array_equal(ortho, np.eye(2))


def test_similarity_matrix_symmetric_diagonal_one():
    rng = rng_stream(35, 0)
    grads = rng.standard_normal((7, 25))
    mat = similarity_matrix(grads)
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.ones(7))


def test_a_row_whose_squared_norm_underflows_keeps_its_angle(caplog):
    # norm_sq of the second row underflows to 0, but the row is not zero
    grads = np.array([[1.0, 1.0], [2.0**-600, 0.0]])
    with caplog.at_level(logging.WARNING, logger="fedlbg.analyzer"):
        sim = similarity_matrix(grads)
        overlap = overlap_matrix(grads[1:], [grads[0]])
    assert sim.tolist() == [[1.0, 0.7071067811865475], [0.7071067811865475, 1.0]]
    assert overlap.tolist() == [[0.7071067811865475]]
    assert "zero norm" not in caplog.text


@contextmanager
def record_fixture(epochs):
    """The SpectrumProgression that record_centralized fills on a small
    mlp1h problem, its helper started, and stopped on exit."""
    ds = synth_classification(120, 6, 4, 5.0, rng_stream(36, 1))
    model = build_model("mlp1h", 6, 4, 8)
    with SpectrumProgression(epochs, model.param_dim) as progression:
        record_centralized(model, ds, progression, 0.1, 16, rng_stream(36, 0))
        progression.start()
        yield progression


def test_record_centralized_gram_equals_one_dot_per_pair():
    # the Gram matrix the spectrum rows are counted on, against np.dot per pair
    with record_fixture(40) as progression:
        grads = progression.grads
    oracle = np.array([[float(np.dot(a, b)) for b in grads] for a in grads])
    assert progression.gram.tobytes() == oracle.tobytes()


def wait_for(pid, events):
    """Wait, at most 30 s, until the child `pid` reports one of the waitid
    `events`, and leave it to be reaped."""
    deadline = time.monotonic() + 30
    while os.waitid(os.P_PID, pid, events | os.WNOWAIT | os.WNOHANG) is None:
        assert time.monotonic() < deadline, f"process {pid} neither stopped nor exited"
        time.sleep(0.001)


@pytest.mark.parametrize("written", ["all", "none", "some", "both"])
@pytest.mark.parametrize("epochs", [1, 40, 95])
def test_forked_and_in_process_drivers_agree(monkeypatch, epochs, written):
    # at 95 epochs of a 92-parameter model the last prefixes are tall: they
    # take the SVD route, which reads the gradients themselves. The helper
    # stops itself once it has written all, none or half of the rows, and
    # rows() starts once it has: it counts the rest in process. In "both",
    # the helper is resumed while rows() counts its last row, and writes
    # that row and every row below it too. Where no helper can run, both
    # runs count in process, and are still compared
    record = {"all": epochs, "none": 0}.get(written, epochs // 2)
    helper_acting_at(monkeypatch, record, "stop")
    with record_fixture(epochs) as forked:
        helper = forked._child
        assert (helper is not None) == analyzer._helper_can_run()
        if helper is not None:
            wait_for(helper, os.WEXITED | os.WSTOPPED)
        row, counted = analyzer._progression_row, []

        def count(grads, gram, epoch):
            counted.append(epoch)
            if helper is not None and written == "both" and epoch == epochs - record - 1:
                os.kill(helper, signal.SIGCONT)
                wait_for(helper, os.WEXITED)
            return row(grads, gram, epoch)
        grads = forked.grads
        assert grads.shape == (epochs, 92)
        with monkeypatch.context() as patch:
            patch.setattr(analyzer, "_progression_row", count)
            rows = forked.rows()
    assert counted == list(range(epochs if helper is None else epochs - record))
    monkeypatch.setattr(analyzer, "_helper_can_run", lambda: False)
    with record_fixture(epochs) as in_process:
        assert in_process._child is None
        assert in_process.grads.tobytes() == grads.tobytes()
        assert in_process.rows() == rows
    assert rows == [(t, n_pca(grads[: t + 1], 0.95), n_pca(grads[: t + 1], 0.99))
                    for t in range(epochs)]


HELPER_PARENT = """
import time
import numpy as np
from fedlbg.analyzer import SpectrumProgression

progression = SpectrumProgression(600, 1000)
progression.grads[:] = np.random.default_rng(0).standard_normal((600, 1000))
for epoch in range(600):
    progression.add(epoch)
progression.start()
print(progression._child, flush=True)
time.sleep(60)
"""


@needs_helper
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to watch the helper in")
def test_helper_stops_within_a_second_of_its_parents_death():
    # 600 rows are left to count when the parent is killed, seconds of
    # counting: the helper must stop at its parent's death, not after the
    # last row
    parent = subprocess.Popen([sys.executable, "-c", HELPER_PARENT], stdout=subprocess.PIPE,
                              env=package_env(), text=True)
    helper = None
    try:
        helper = int(parent.stdout.readline())
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 1
        while process_state(helper) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.005)
        assert process_state(helper) in (None, "Z")
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        if helper is not None and process_state(helper) not in (None, "Z"):
            os.kill(helper, signal.SIGKILL)


def test_one_usable_cpu_starts_no_helper(monkeypatch):
    # the helper would only share the CPU, which measured slower
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    with record_fixture(3) as progression:
        assert progression._child is None
        assert len(progression.rows()) == 3


def test_zero_epochs_start_no_helper():
    with record_fixture(0) as progression:
        assert progression._child is None
        assert progression.rows() == []
    assert progression.grads.shape == (0, 92) and progression.gram.shape == (0, 0)


def test_n_pca_of_each_prefix_of_collinear_gradients_is_one():
    # scaled copies of a single direction: every prefix, any variance
    v = np.array([0.6, -0.8, 0.0])
    grads = np.stack([c * v for c in (1.0, 0.5, 0.25, 0.125)])
    for t in range(1, 5):
        assert n_pca(grads[:t], 0.99) == 1


def test_an_empty_stack_has_no_directions_and_empty_matrices():
    # the stack of a zero-epoch run
    empty = np.zeros((0, 4))
    assert n_pca(empty, 0.99) == 0
    assert pgd(empty, 0.99) == []
    assert overlap_matrix(empty, []).shape == (0, 0)
    assert similarity_matrix(empty).shape == (0, 0)
