"""The determinism contract at any BLAS thread count.

A multithreaded BLAS splits a large product over its threads and so sums
it in another order. `harness.run` holds one BLAS thread, so the outputs
depend on the config and seed only. The digest test cannot fail on a
one-CPU machine, where OpenBLAS runs one thread anyway.
"""

import hashlib
import subprocess
import sys

import pytest

from fedlbg import fl_core, harness, numerics
from support import ANALYZER_OUTPUTS, CONFIGS, package_env


def tiny_config(out_dir):
    return harness.ExperimentConfig(algorithm="lbgm", n=60, test_n=10, dim=4, classes=3,
                                    workers=2, rounds=1, out=str(out_dir))


def analyze_digests(out_dir, threads):
    """Run configs/analyze.cfg in a fresh process on `threads` BLAS threads
    and return {file name: sha256} of its outputs."""
    subprocess.run([sys.executable, "-m", "fedlbg", "run", str(CONFIGS / "analyze.cfg"),
                    "--out", str(out_dir)], env=package_env(threads), check=True,
                   capture_output=True)
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest()
            for f in ANALYZER_OUTPUTS}


def test_analyzer_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 100 epochs, pgd's gemm is large enough for OpenBLAS to split it
    assert analyze_digests(tmp_path / "two", 2) == analyze_digests(tmp_path / "one", 1)


def test_run_holds_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    if numerics._blas_threads() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    get, set_ = numerics._blas_threads()
    seen = []
    run_with_policy = fl_core.run_with_policy

    def spy(*args):
        seen.append(get())
        return run_with_policy(*args)

    monkeypatch.setattr(fl_core, "run_with_policy", spy)
    original = get()
    set_(2)
    try:
        found = get()
        assert harness.run(tiny_config(tmp_path)) == 0
        assert seen == [1]
        assert get() == found
    finally:
        set_(original)


def test_run_under_another_blas_warns_once_and_goes_on(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(numerics, "_blas_threads", lambda: None)
    assert harness.run(tiny_config(tmp_path)) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: cannot pin BLAS to one thread; outputs may depend on the thread count"]
