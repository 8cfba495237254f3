"""Helpers the test modules share, one copy each. The file name does not
match test_*.py, so pytest collects nothing from it."""

import itertools
import os
import re
import signal
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer, harness
from fedlbg.harness import ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ANALYZER_OUTPUTS = ("npca.csv", "overlap.csv", "similarity.csv")

needs_helper = pytest.mark.skipif(not analyzer._helper_can_run(),
                                  reason="no os.fork, or one usable CPU")


def federated_config(algorithm, **kw):
    """A small federated run: 4 workers on label shards of 5-class blobs,
    an mlp1h, 10 rounds. Each gated test passes its delta."""
    cfg = dict(
        seed=7, n=400, test_n=100, dim=10, classes=5, separation=6.0, workers=4, rounds=10,
        batch_size=20, eta=0.05, hidden=8, partition_mode="label_shard(2)", model_kind="mlp1h",
    )
    cfg.update(kw)
    return ExperimentConfig(algorithm=algorithm, **cfg)


def vec(*values):
    return np.asarray(values, dtype=np.float64)


def write_idx_pair(tmp_path, pixels, labels, stem="a", shape=(2, 2)):
    """An IDX images file and labels file, built byte by byte: magic,
    big-endian sizes, payload. Returns their paths."""
    n = len(labels)
    images = tmp_path / f"{stem}-images.idx"
    labs = tmp_path / f"{stem}-labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, *shape) + bytes(pixels))
    labs.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return str(images), str(labs)


def package_env(threads=1):
    """This process's environment, with the tested fedlbg first on the path
    and BLAS on `threads` threads."""
    src = str(Path(analyzer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads))


def process_state(pid):
    """The state letter of a process (Z for a zombie), or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def assert_no_child():
    # any child of this process, running or not yet reaped, was left behind
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def helper_acting_at(monkeypatch, record, act):
    """Patch os.write so that a spectrum helper forked after this writes
    `record` whole rows, then acts: "kill" (SIGKILLs itself), "tear"
    (writes half of the next row, then SIGKILLs itself) or "stop" (SIGSTOPs
    itself). This process's own writes are untouched."""
    test_pid, write, written = os.getpid(), os.write, itertools.count()

    def write_or_act(fd, data):
        if os.getpid() != test_pid and next(written) == record:
            if act == "tear":
                write(fd, data[: len(data) // 2])
            os.kill(os.getpid(), signal.SIGSTOP if act == "stop" else signal.SIGKILL)
        return write(fd, data)
    monkeypatch.setattr(os, "write", write_or_act)


@contextmanager
def alarm(seconds, message):
    """Fail the test with `message` if the block runs longer than `seconds`."""
    handler = signal.signal(signal.SIGALRM, lambda *_: pytest.fail(message))
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def _state(path):
    """A file's bytes, else whether anything is there."""
    return path.read_bytes() if path.is_file() else path.exists()


def assert_exit(tmp_path, capsys, monkeypatch, build, patch, code, line):
    """Check the command line's exit contract on one failing run.

    `build(tmp_path)` gives the arguments after `run`, or a config for
    `harness.run`; `patch(monkeypatch)`, if given, is applied next. The run
    starts in `tmp_path`, so the default `out` is `tmp_path/out`. It must
    exit with `code` and print the one stderr line "error: " + `line`, where
    "{tmp}" stands for `tmp_path` and a final "..." for text that numpy or a
    codec writes. A federated run that diverges in round t (exit 3) keeps
    rounds 0 to t - 1 in metrics.csv and ledger.csv; every other run leaves
    `out` as it found it. No child process is left.
    """
    monkeypatch.chdir(tmp_path)
    made = build(tmp_path)
    if patch:
        patch(monkeypatch)
    out = tmp_path / "out"
    before = _state(out)
    if isinstance(made, harness.ExperimentConfig):
        got = harness.run(made)
    else:
        got = harness.main(["run", *map(str, made)])
    err = capsys.readouterr().err.splitlines()
    line = "error: " + line.replace("{tmp}", str(tmp_path))
    assert got == code, err
    if line.endswith("..."):
        assert len(err) == 1 and err[0].startswith(line[:-3]), err
    else:
        assert err == [line], err
    diverged = re.match(r"error: run diverged in round (\d+)", line)
    if diverged:
        t = int(diverged[1])
        metrics, ledger = ([row.split(",") for row in (out / name).read_text().splitlines()[1:]]
                           for name in ("metrics.csv", "ledger.csv"))
        assert [int(row[0]) for row in metrics] == list(range(t))
        assert {int(row[0]) for row in ledger} == set(range(1, t))
        assert sum(float(row[2]) for row in ledger) == float(metrics[-1][3])
    else:
        assert _state(out) == before
    assert_no_child()
