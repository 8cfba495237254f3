import errno
import os
import select
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
    overlap_matrix,
    pgd,
    record_centralized,
    similarity_matrix,
)
from fedlbg.data import synth_classification
from fedlbg.models import build_model
from fedlbg.numerics import rng_stream
from spectrum_oracle import counts, prefix_rows
from support import alarm, helper_acting_at, needs_helper, package_env, process_state


def assert_oracle_rows(rows, grads):
    """`rows` are the oracle's (epoch, n95, n99) of every prefix of `grads`;
    a failure states the smallest margin, so that a near-tie reads as one."""
    expected, margin = prefix_rows(grads)
    assert rows == expected, f"smallest margin {margin:.2e} of a cumulative mass from a target"


def test_pgd_of_identical_gradients_keeps_one():
    g = np.array([1.0, -2.0, 0.5])
    grads = np.stack([g.copy() for _ in range(15)])
    for variance in (0.5, 0.95, 0.99, 1.0):
        assert len(pgd(grads, variance)) == 1


def test_pgd_orthogonal_equal_norm_oracle():
    # 20 orthonormal gradients: equal singular values, brute-force cumulative
    # count gives ceil(0.95 * 20) = 19
    grads = np.stack([np.eye(20)[i] * 3.0 for i in range(20)])
    s = np.full(20, 1.0)
    cum = np.cumsum(s) / s.sum()
    brute = int(np.argmax(cum >= 0.95)) + 1
    assert brute == 19
    assert len(pgd(grads, 0.95)) == 19
    assert len(pgd(grads, 1.0)) == 20


def test_pgd_variance_one_is_numerical_rank():
    rng = rng_stream(30, 0)
    basis = rng.standard_normal((3, 50))
    coeffs = rng.standard_normal((8, 3))
    grads = coeffs @ basis
    assert len(pgd(grads, 1.0)) == 3


def test_pgd_of_all_zero_gradients_is_empty():
    grads = np.stack([np.zeros(5), np.zeros(5)])
    assert pgd(grads, 0.99) == []


@pytest.mark.parametrize("shape", [(6, 40), (40, 6)])  # wide (Gram) and tall (SVD) routes
def test_pgd_keeps_the_oracles_count_of_directions(shape):
    # columns scaled by powers of 1/2: a decaying spectrum, so each count
    # depends on the order and the scale of the singular values
    grads = rng_stream(32, 0).standard_normal(shape) * 0.5 ** np.arange(shape[1])
    (n95, n99), margin = counts(grads)
    assert (len(pgd(grads, 0.95)), len(pgd(grads, 0.99))) == (n95, n99), (
        f"smallest margin {margin:.2e} of a cumulative mass from a target")


def test_pgd_ordering_invariant():
    rng = rng_stream(31, 0)
    grads = rng.standard_normal((12, 40))
    assert len(pgd(grads, 0.95)) <= len(pgd(grads, 0.99)) <= min(12, 40)


def test_a_mass_that_meets_its_target_exactly_stops_the_count():
    # 0.95 of the total is exactly the first value, to the last bit: the
    # count stops there, rather than taking the next value too
    s = np.array([1.0, 0.052631578948476476])
    assert 0.95 * s.sum() - 1e-12 * s.sum() == s[0]
    assert analyzer._count_for_mass(s, 0.95) == 1


def test_a_singular_value_exactly_at_the_cutoff_is_kept():
    # only a value strictly below the cutoff is noise
    assert analyzer._zero_below(np.array([1.0, 1e-8]), 1e-8).tolist() == [1.0, 1e-8]


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


def test_a_row_whose_squared_norm_underflows_keeps_its_angle(capsys):
    # norm_sq of the second row underflows to 0, but the row is not zero
    grads = np.array([[1.0, 1.0], [2.0**-600, 0.0]])
    sim = similarity_matrix(grads)
    overlap = overlap_matrix(grads[1:], [grads[0]])
    assert sim.tolist() == [[1.0, 0.7071067811865475], [0.7071067811865475, 1.0]]
    assert overlap.tolist() == [[0.7071067811865475]]
    assert capsys.readouterr().err == ""


@contextmanager
def record_fixture(epochs):
    """The SpectrumProgression that record_centralized fills on a small
    mlp1h problem, its helper started before the first epoch, and stopped
    on exit."""
    ds = synth_classification(120, 6, 4, 5.0, rng_stream(36, 1))
    model = build_model("mlp1h", 6, 4, 8)
    with SpectrumProgression(epochs, model.param_dim) as progression:
        record_centralized(model, ds, progression, 0.1, 16, rng_stream(36, 0))
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


def in_process_rows(monkeypatch, epochs):
    """The rows of record_fixture(epochs), counted without a helper, and
    its gradient stack."""
    with monkeypatch.context() as patch:
        patch.setattr(analyzer, "_helper_can_run", lambda: False)
        with record_fixture(epochs) as in_process:
            assert in_process._child is None
            return in_process.rows(), in_process.grads


@pytest.mark.parametrize("written", ["all", "none", "some", "both"])
@pytest.mark.parametrize("epochs", [1, 40, 95])
def test_forked_and_in_process_drivers_agree(monkeypatch, epochs, written):
    # at 95 epochs of a 92-parameter model the last prefixes are tall: they
    # take the SVD route, which reads the gradients themselves, from the
    # stack shared with the helper. The helper stops itself once it has
    # written all, none or half of the rows, and rows() starts once it has:
    # it counts the rest in process, from the last epoch down. In "both",
    # the helper is resumed while rows() counts its last row, and writes
    # that row and every row above it too. Where no helper can run, both
    # runs count in process, and are still compared
    record = {"all": epochs, "none": 0}.get(written, epochs // 2)
    expected, stack = in_process_rows(monkeypatch, epochs)
    helper_acting_at(monkeypatch, record, "stop")
    with record_fixture(epochs) as forked:
        helper = forked._child
        assert (helper is not None) == analyzer._helper_can_run()
        if helper is not None:
            wait_for(helper, os.WEXITED | os.WSTOPPED)
        else:
            record = 0
        row, counted = analyzer._progression_row, []

        def count(grads, gram, epoch):
            counted.append(epoch)
            if helper is not None and written == "both" and epoch == record:
                os.kill(helper, signal.SIGCONT)
                wait_for(helper, os.WEXITED)
            return row(grads, gram, epoch)
        grads = forked.grads
        assert grads.shape == (epochs, 92)
        assert grads.tobytes() == stack.tobytes()
        with monkeypatch.context() as patch:
            patch.setattr(analyzer, "_progression_row", count)
            rows = forked.rows()
    assert counted == list(reversed(range(record, epochs)))
    assert rows == expected
    assert_oracle_rows(rows, grads)


def dropping_counts(monkeypatch, dropped):
    """Patch os.write so that this process's count of each epoch in
    `dropped` meets a full feed pipe."""
    test_pid, write = os.getpid(), os.write

    def write_or_drop(fd, data):
        on_feed = os.getpid() == test_pid and len(data) == 8
        if on_feed and int.from_bytes(data, sys.byteorder) - 1 in dropped:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return write(fd, data)
    monkeypatch.setattr(os, "write", write_or_drop)


@needs_helper
@pytest.mark.parametrize("dropped", [{0, 1, 7, 20, 38}, set(range(40))],
                         ids=["some_counts", "every_count"])
def test_a_dropped_count_only_delays_the_helper(monkeypatch, dropped):
    # epoch 38's is the last count before the feed closes at epoch 39; with
    # every count dropped, only the feed's end of file tells the helper the
    # epochs are ready. It still counts every row: once it has exited,
    # rows() counts none itself, and never waits
    expected, _ = in_process_rows(monkeypatch, 40)
    dropping_counts(monkeypatch, dropped)
    with alarm(5, "the parent blocked on the feed"), record_fixture(40) as forked:
        wait_for(forked._child, os.WEXITED)
        with monkeypatch.context() as patch:
            patch.setattr(analyzer, "_progression_row", lambda *_: pytest.fail("counted a row"))
            rows = forked.rows()
        grads = forked.grads
    assert rows == expected
    assert_oracle_rows(rows, grads)


@needs_helper
def test_the_helper_counts_only_the_epochs_announced(monkeypatch):
    # training waits after each epoch until the helper has written its row,
    # so a helper that counted a row before its epoch was stored would read
    # an unfilled row of the stack and write a wrong count
    expected, _ = in_process_rows(monkeypatch, 40)
    add = SpectrumProgression.add

    def add_and_wait(self, epoch):
        add(self, epoch)
        deadline = time.monotonic() + 30
        while len(self._receive()) <= epoch:
            assert time.monotonic() < deadline, f"the helper never wrote the row of epoch {epoch}"
            select.select([self._pipe], [], [], 1)
    monkeypatch.setattr(SpectrumProgression, "add", add_and_wait)
    with record_fixture(40) as forked:
        assert forked._received == expected
        assert forked.rows() == expected


def failing_rows(monkeypatch, failing):
    """Patch the row count to raise, naming its epoch, at each epoch in
    `failing`: in a helper forked after this too."""
    row = analyzer._progression_row

    def row_or_fail(grads, gram, epoch):
        if epoch in failing:
            raise np.linalg.LinAlgError(f"row {epoch} failed")
        return row(grads, gram, epoch)
    monkeypatch.setattr(analyzer, "_progression_row", row_or_fail)


@pytest.mark.parametrize("failing", [{30}, {10, 30}, {0, 39}])
@pytest.mark.parametrize("first", ["helper", "parent", "no_helper"])
def test_a_failing_row_raises_what_an_ascending_count_raises_first(monkeypatch, failing, first):
    # the helper counts up to its first failing row and exits 1, and rows()
    # starts once it has; or it stops before its first row, and the parent,
    # counting down, meets the highest failing row first. Either way the
    # lowest failing row's error is raised
    failing_rows(monkeypatch, failing)
    if first == "no_helper":
        monkeypatch.setattr(analyzer, "_helper_can_run", lambda: False)
    if first == "parent":
        helper_acting_at(monkeypatch, 0, "stop")
    with record_fixture(40) as progression:
        if progression._child is not None:
            wait_for(progression._child, os.WEXITED | os.WSTOPPED)
        with pytest.raises(np.linalg.LinAlgError, match=rf"^row {min(failing)} failed$"):
            progression.rows()


def open_descriptors():
    return set(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not Path("/proc/self/fd").exists(), reason="no /proc to list descriptors in")
@pytest.mark.parametrize("epochs_added", [40, 20, 0])
def test_a_progression_closes_every_descriptor_it_opens(epochs_added):
    # every epoch added closes the feed itself; fewer (a run that diverged)
    # leave it to close()
    before = open_descriptors()
    with SpectrumProgression(40, 10) as progression:
        progression.grads[:] = rng_stream(37, 0).standard_normal((40, 10))
        for epoch in range(epochs_added):
            progression.add(epoch)
        if epochs_added == 40:
            assert len(progression.rows()) == 40
    assert open_descriptors() == before


HELPER_PARENT = """
import time
import numpy as np
from fedlbg.analyzer import SpectrumProgression

with SpectrumProgression(600, 1000) as progression:
    progression.grads[:] = np.random.default_rng(0).standard_normal((600, 1000))
    for epoch in range(600):
        progression.add(epoch)
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


def test_pgd_of_each_prefix_of_collinear_gradients_keeps_one():
    # scaled copies of a single direction: every prefix, wide and tall
    v = np.array([0.6, -0.8, 0.0])
    grads = np.stack([c * v for c in (1.0, 0.5, 0.25, 0.125)])
    for t in range(1, 5):
        assert len(pgd(grads[:t], 0.99)) == 1


def test_an_empty_stack_has_no_directions_and_empty_matrices():
    # the stack of a zero-epoch run
    empty = np.zeros((0, 4))
    assert pgd(empty, 0.99) == []
    assert overlap_matrix(empty, []).shape == (0, 0)
    assert similarity_matrix(empty).shape == (0, 0)
