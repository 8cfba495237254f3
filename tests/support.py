"""Helpers the test modules share, one copy each. The file name does not
match test_*.py, so pytest collects nothing from it."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ANALYZER_OUTPUTS = ("npca.csv", "overlap.csv", "similarity.csv")

needs_helper = pytest.mark.skipif(not analyzer._helper_can_run(),
                                  reason="no os.fork, or one usable CPU")


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
