import errno
import itertools
import math
import os
import signal
import struct
import subprocess
import sys
import time
import tracemalloc
from dataclasses import MISSING, FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer, fl_core, harness
from fedlbg.data import Dataset, load_idx
from fedlbg.fl_core import (
    LEDGER_HEADER,
    METRICS_HEADER,
    CommLedger,
    MetricsRow,
    MetricsTable,
    build_datasets,
)
from fedlbg.harness import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run,
    simulate,
    _matrix_csv,
    _write,
)
from fedlbg.models import build_model, gradient, init_params
from fedlbg.numerics import one_blas_thread, rng_stream
from support import (
    ANALYZER_OUTPUTS,
    CONFIGS,
    alarm,
    assert_exit,
    assert_no_child,
    helper_acting_at,
    needs_helper,
    package_env,
    process_state,
    write_idx_pair,
)

MINIMAL = """
algorithm = lbgm

[data]
n = 120
test_n = 40
dim = 4
classes = 3

[train]
workers = 3
rounds = 2
batch_size = 10
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.algorithm == "lbgm"
    assert cfg.delta == 0.2
    assert cfg.k_frac == 0.1
    assert cfg.rank == 2
    assert cfg.model_kind == "mlp1h" and cfg.hidden == 64
    assert cfg.eta == 0.05 and cfg.tau == 0


def test_parse_ignores_comments_and_blanks():
    cfg = parse_config("# header\nalgorithm = vanilla  # trailing\n\n[train]\n# note\neta = 0.1\n")
    assert cfg.algorithm == "vanilla"
    assert cfg.eta == 0.1


def test_parse_every_key_at_its_default():
    # each field's key, written at the field's default under its section,
    # lands in that field and passes that field's check
    sections = {}
    for f in fields(ExperimentConfig):
        value = "lbgm" if f.name == "algorithm" else f.default
        key = f.metadata["key"] or f.name
        sections.setdefault(f.metadata["section"], []).append(f"{key} = {value}\n")
    text = "".join((f"[{section}]\n" if section else "") + "".join(lines)
                   for section, lines in sections.items())
    assert parse_config(text) == ExperimentConfig(algorithm="lbgm")


def _default_text(default) -> str:
    """A field's default as README's key table writes it."""
    if default is MISSING:
        return "(required)"
    if isinstance(default, bool):
        return str(default).lower()
    return str(default) if default != "" else "(empty)"


def test_readmes_key_table_lists_every_field_with_its_section_key_and_default():
    lines = (CONFIGS.parent / "README.md").read_text().splitlines()
    start = lines.index("| section | key | default | allowed values | read by |") + 2
    rows = [tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
            for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:])]
    assert rows == [
        (f"[{f.metadata['section']}]" if f.metadata["section"] else "",
         f.metadata["key"] or f.name, _default_text(f.default))
        for f in fields(ExperimentConfig)
    ]


def overrides(*items):
    """The (item, where) pairs `main` passes for these --override flags."""
    return [(item, f"--override {item}") for item in items]


def test_overrides_replace_values():
    cfg = parse_config(MINIMAL)
    assert cfg.rounds == 2
    cfg2 = parse_config(MINIMAL, overrides("train.rounds=9", "seed=3", "lbgm.delta=0.5"))
    assert cfg2.rounds == 9 and cfg2.seed == 3 and cfg2.delta == 0.5


def test_hash_inside_a_value_is_not_a_comment():
    text = ("algorithm = lbgm\n# data paths\n[data]\nkind = idx  # comment\n"
            "images = run#1/img.idx\n\tlabels = lab.idx\t# tab before the comment\n"
            "test_images = t.idx\ntest_labels = tl.idx\n")
    cfg = parse_config(text)
    assert cfg.data_kind == "idx"
    assert cfg.labels == "lab.idx"
    # the file keeps the same value as the command line
    from_file = cfg.images
    overridden = parse_config(text.replace("run#1/img.idx", "other.idx"),
                              overrides("data.images=run#1/img.idx")).images
    assert from_file == overridden == "run#1/img.idx"


ONE_OF_ALGORITHMS = ("must be one of {vanilla, lbgm, lbgm_sampled, topk, topk_lbgm, rank_r, "
                     "rank_r_lbgm, sign, sign_lbgm, centralized_analyze}")


@pytest.mark.parametrize("kw, message", [
    (dict(algorithm="lbgm", delta=5.0), "delta: value 5.0 must be in [0, 1]"),
    (dict(algorithm="lbgm_sampled", sample_fraction=2.0),
     "sample_fraction: value 2.0 must be in (0, 1]"),
    (dict(algorithm="rank_r", rank=0), "rank: value 0 must be >= 1"),
    (dict(algorithm="bogus"), f"algorithm: value 'bogus' {ONE_OF_ALGORITHMS}"),
    (dict(algorithm="lbgm", hidden=0), "hidden: value 0 must be >= 1"),
    (dict(algorithm="topk", k_frac=0.0), "k_frac: value 0.0 must be in (0, 1]"),
    (dict(algorithm="lbgm", eta=math.nan), "eta: value nan must be > 0"),
    (dict(algorithm="lbgm", seed=-1), "seed: value -1 must be >= 0"),
    (dict(algorithm="lbgm", data_kind="idx"), "images: required when data kind = idx"),
    (dict(algorithm="lbgm", partition_mode="label_shard(x)"),
     "partition_mode: value 'label_shard(x)' must be iid or label_shard(s)"),
    (dict(algorithm="topk", error_feedback="false"),
     "error_feedback: value 'false' must be of type bool"),
    (dict(algorithm="lbgm", delta="0.5"), "delta: value '0.5' must be of type float"),
    (dict(algorithm="lbgm", workers=0), "workers: value 0 must be >= 1"),
    (dict(algorithm="lbgm", dim=0), "dim: value 0 must be >= 1"),
    (dict(algorithm="lbgm", eta=0.0), "eta: value 0.0 must be > 0"),
    (dict(algorithm="lbgm", n=1, test_n=1, classes=3),
     "n, test_n: n + test_n = 1 + 1 must be >= classes = 3 for synth data"),
    (dict(algorithm="lbgm", n=0), "n: value 0 must be >= 1"),
    (dict(algorithm="lbgm", test_n=0), "test_n: value 0 must be >= 1"),
    (dict(algorithm="lbgm", classes=1), "classes: value 1 must be >= 2"),
    (dict(algorithm="lbgm", separation=-0.5), "separation: value -0.5 must be >= 0"),
    (dict(algorithm="lbgm", subset=-1), "subset: value -1 must be >= 0"),
    (dict(algorithm="lbgm", test_subset=-1), "test_subset: value -1 must be >= 0"),
    (dict(algorithm="lbgm", rounds=-1), "rounds: value -1 must be >= 0"),
    (dict(algorithm="lbgm", tau=-1), "tau: value -1 must be >= 0 (0 = one shard pass)"),
    (dict(algorithm="lbgm", batch_size=-1), "batch_size: value -1 must be >= 0 (0 = full shard)"),
    (dict(algorithm="lbgm", model_kind="cnn"),
     "model_kind: value 'cnn' must be one of {linear_regression, softmax_classifier, mlp1h}"),
    (dict(algorithm="lbgm", data_kind="csv"), "data_kind: value 'csv' must be one of {synth, idx}"),
    (dict(algorithm="lbgm", eta_rule="linear"),
     "eta_rule: value 'linear' must be one of {constant, inv_sqrt_tau_t}"),
    (dict(algorithm="lbgm", data_kind="idx", images="i", labels="l", test_images="ti"),
     "test_labels: required when data kind = idx"),
], ids=["delta", "sample_fraction", "rank", "algorithm", "hidden", "k_frac", "eta", "seed",
        "idx_paths", "partition", "bool_type", "float_type", "workers", "dim", "eta_zero",
        "synth_count", "n", "test_n", "classes", "separation", "subset", "test_subset", "rounds",
        "tau", "batch_size", "model_kind", "data_kind", "eta_rule", "idx_test_labels"])
def test_a_config_made_in_python_is_checked_like_text(tmp_path, kw, message):
    # from the constructor, and again from replace() of a valid config
    with pytest.raises(ConfigError) as made:
        ExperimentConfig(**kw)
    with pytest.raises(ConfigError) as replaced:
        replace(small_run_config(tmp_path), **kw)
    assert str(made.value) == str(replaced.value) == message


@pytest.mark.parametrize("value, shown", [
    (10**400, repr(10**400)),
    (10**5000, "<int of 16610 bits>"),  # too long for repr
], ids=["1e400", "1e5000"])
@pytest.mark.parametrize("name", ["separation", "eta"])
def test_a_float_key_given_an_int_beyond_the_float_range_must_be_finite(tmp_path, name, value,
                                                                        shown):
    with pytest.raises(ConfigError) as made:
        ExperimentConfig(algorithm="lbgm", **{name: value})
    with pytest.raises(ConfigError) as replaced:
        replace(small_run_config(tmp_path), **{name: value})
    assert str(made.value) == str(replaced.value) == f"{name}: value {shown} must be finite"


def test_one_synth_sample_per_class_is_enough_and_idx_data_takes_its_classes_from_its_labels():
    assert ExperimentConfig(algorithm="lbgm", n=6, test_n=4).n == 6
    assert ExperimentConfig(algorithm="lbgm", data_kind="idx", n=1, test_n=1, images="i",
                            labels="l", test_images="ti", test_labels="tl").n == 1


def test_numpy_scalars_pass_and_a_bool_is_not_a_number():
    cfg = ExperimentConfig(algorithm="topk", workers=np.int64(3), k_frac=np.float32(0.5),
                           delta=np.float64(0.25), rank=np.uint8(1))
    assert (cfg.workers, cfg.k_frac, cfg.delta, cfg.rank) == (3, 0.5, 0.25, 1)
    with pytest.raises(ConfigError, match=r"^workers: value True must be of type int$"):
        ExperimentConfig(algorithm="lbgm", workers=True)
    with pytest.raises(ConfigError, match=r"^delta: value False must be of type float$"):
        ExperimentConfig(algorithm="lbgm", delta=False)
    with pytest.raises(ConfigError, match=r"^sign_majority: value 1 must be of type bool$"):
        ExperimentConfig(algorithm="sign", sign_majority=1)


def test_a_config_is_frozen(tmp_path):
    cfg = small_run_config(tmp_path)
    with pytest.raises(FrozenInstanceError):
        cfg.out = "elsewhere"
    assert replace(cfg, out="elsewhere").out == "elsewhere"


def small_run_config(tmp_path, algorithm="vanilla", **kw):
    cfg = dict(
        algorithm=algorithm, seed=3, out=str(tmp_path / "out"),
        n=120, test_n=40, dim=4, classes=3, separation=6.0,
        workers=3, rounds=3, batch_size=10, eta=0.05, hidden=8,
        partition_mode="iid",
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def test_run_writes_metrics_and_ledger(tmp_path, capsys):
    cfg = small_run_config(tmp_path)
    assert run(cfg) == 0
    out = tmp_path / "out"
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "round,train_loss,test_metric,cum_floats,cum_bits,scalar_fraction,delta_sq_proxy"
    assert [line.split(",")[0] for line in metrics[1:]] == ["0", "1", "2", "3"]
    ledger = (out / "ledger.csv").read_text().splitlines()
    assert ledger[0] == "round,worker,floats,bits"
    assert len(ledger) == 1 + 3 * 3
    assert "vanilla:" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm", ["lbgm", "topk_lbgm", "diverging"])
def test_each_federated_file_is_its_to_csv_byte_for_byte(tmp_path, algorithm):
    # the files are written line by line and to_csv joins the same lines; a
    # diverging run writes the rows of its completed rounds the same way.
    # simulate() runs as run() does: on one BLAS thread, with the finite
    # checks, not numpy's warnings, reporting a divergence
    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        if algorithm == "diverging":
            cfg = replace(parse_config(DIVERGING), out=str(tmp_path / "out"))
            with pytest.raises(fl_core.Diverged) as diverged:
                simulate(cfg)
            want, code = diverged.value.partial, 3
        else:
            cfg = small_run_config(tmp_path, algorithm=algorithm)
            want, code = simulate(cfg), 0
    assert run(cfg) == code
    out = tmp_path / "out"
    assert (out / "metrics.csv").read_bytes() == want.metrics.to_csv().encode()
    assert (out / "ledger.csv").read_bytes() == want.ledger.to_csv().encode()


def test_run_byte_identical_repeat(tmp_path):
    cfg_a = small_run_config(tmp_path / "a", algorithm="lbgm")
    cfg_b = small_run_config(tmp_path / "b", algorithm="lbgm")
    run(cfg_a)
    run(cfg_b)
    for name in ("metrics.csv", "ledger.csv"):
        assert (tmp_path / "a/out" / name).read_bytes() == (tmp_path / "b/out" / name).read_bytes()


def test_run_centralized_analyze_outputs(tmp_path, capsys):
    cfg = small_run_config(tmp_path, algorithm="centralized_analyze", rounds=5)
    assert run(cfg) == 0
    out = tmp_path / "out"
    npca = (out / "npca.csv").read_text().splitlines()
    assert npca[0] == "epoch,n95,n99"
    assert len(npca) == 6
    overlap = np.loadtxt(out / "overlap.csv", delimiter=",", ndmin=2)
    similarity = np.loadtxt(out / "similarity.csv", delimiter=",", ndmin=2)
    assert similarity.shape == (5, 5)
    assert overlap.shape[0] == 5
    assert "centralized_analyze" in capsys.readouterr().out
    assert_no_child()  # the spectrum helper, where one ran, is reaped


def test_matrix_csv_is_repr_of_each_float_byte_for_byte():
    mat = np.array([
        [-0.0, 5e-324, 1.7976931348623157e308],
        [0.1, 1 / 3, -2.5e-300],
        [0.0, 0.0, 0.0],
    ])
    # the writer before rows went through tolist()
    old = "\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n"
    assert "".join(_matrix_csv(mat)).encode() == old.encode()
    assert "".join(_matrix_csv(mat)).startswith("-0.0,5e-324,1.7976931348623157e+308\n")

    # metrics and ledger rows: a round or worker id as an int, every other
    # cell as repr(float(x)), as the writers wrote them before csv_text
    metrics = MetricsTable([
        MetricsRow(0, -0.0, 5e-324, 0.0, 0.0, 1.7976931348623157e308),
        MetricsRow(12, 0.1, 1 / 3, 1002.0, 0.5, -2.5e-300),
    ])
    old = "\n".join([METRICS_HEADER] + [
        f"{r.round}," + ",".join(repr(float(v)) for v in (
            r.train_loss, r.test_metric, r.cum_floats, r.cum_bits,
            r.scalar_fraction, r.delta_sq_proxy))
        for r in metrics.rows]) + "\n"
    assert metrics.to_csv().encode() == old.encode()
    assert metrics.to_csv().splitlines()[1] == "0,-0.0,5e-324,0.0,0.0,0.0,1.7976931348623157e+308"
    ledger = CommLedger()
    for rnd, worker, floats in ((1, 0, 1002), (1, 3, 5e-324), (2, 1, -0.0), (2, 2, 31.25)):
        ledger.append(rnd, worker, floats)
    old = "\n".join([LEDGER_HEADER] + [
        f"{rnd},{worker},{float(floats)!r},{float(32 * floats)!r}"
        for rnd, worker, floats in ledger.rows]) + "\n"
    assert ledger.to_csv().encode() == old.encode()
    assert ledger.to_csv().splitlines()[1:3] == ["1,0,1002.0,32064.0", "1,3,5e-324,1.6e-322"]


def written_peak(mat, path):
    """The traced peak of formatting `mat` and writing it to `path`."""
    tracemalloc.start()
    try:
        _write(path, _matrix_csv(mat))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_matrix_csv_is_written_holding_a_few_lines_at_most(tmp_path):
    # the lines are formatted as they are written: holding the whole text,
    # its lines or its encoded bytes would each take the file's size. The
    # shape of overlap.csv: a square matrix adds the symmetry test's T x T
    # bools
    mat = rng_stream(0, 0).standard_normal((300, 131))
    path = tmp_path / "overlap.csv"
    peak = written_peak(mat, path)
    assert peak <= 0.05 * path.stat().st_size


def test_symmetric_matrix_csv_is_repr_of_each_cell_and_written_holding_its_text_once_at_most(
        tmp_path):
    # each cell on or right of the diagonal is formatted once and its text
    # reused for the mirror; each text is dropped once the mirror used it,
    # so at most about one copy of the text is held, and no line list or join
    upper = np.triu(rng_stream(0, 0).standard_normal((300, 300)))
    mat = upper + np.triu(upper, 1).T
    path = tmp_path / "similarity.csv"
    peak = written_peak(mat, path)
    text = path.read_text()
    assert peak <= 1.25 * len(text)
    # compared line by line: a failing comparison of the whole text takes
    # pytest minutes to explain
    want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in mat)
    assert text.split("\n") == want.split("\n")
    assert "".join(_matrix_csv(np.zeros((0, 0)))) == ""
    assert "".join(_matrix_csv(np.array([[-0.0]]))) == "-0.0\n"
    _write(path, _matrix_csv(np.zeros((0, 0))))
    assert path.read_bytes() == b""


def test_matrix_csv_keeps_both_texts_of_a_signed_zero_mirror_pair():
    mat = np.array([[1.0, 0.0, 0.5], [-0.0, 1.0, 0.25], [0.5, 0.25, 1.0]])
    assert "".join(_matrix_csv(mat)) == "1.0,0.0,0.5\n-0.0,1.0,0.25\n0.5,0.25,1.0\n"
    assert "".join(_matrix_csv(mat.T)) == "1.0,-0.0,0.5\n0.0,1.0,0.25\n0.5,0.25,1.0\n"


@pytest.mark.parametrize("algorithm", ["vanilla", "lbgm_sampled", "topk_lbgm", "rank_r", "sign"])
def test_every_cell_of_a_runs_metrics_and_ledger_is_an_int_or_a_float(tmp_path, algorithm):
    # csv_text writes repr(cell): a numpy scalar would print as np.float64(...)
    result = simulate(small_run_config(tmp_path, algorithm=algorithm))
    cells = [v for r in result.metrics.rows for v in (*astuple(r), r.cum_bits)]
    cells += [v for row in result.ledger.rows for v in row]
    assert {type(v) for v in cells} == {int, float}
    assert all(type(row[0]) is int and type(row[1]) is int for row in result.ledger.rows)


def test_run_centralized_analyze_zero_epochs(tmp_path):
    cfg = small_run_config(tmp_path, algorithm="centralized_analyze", rounds=0)
    assert run(cfg) == 0
    assert (tmp_path / "out/npca.csv").read_text() == "epoch,n95,n99\n"
    assert (tmp_path / "out/overlap.csv").read_text() == ""
    assert (tmp_path / "out/similarity.csv").read_text() == ""


def test_run_reports_savings_vs_baseline(tmp_path, capsys):
    base = small_run_config(tmp_path / "base", algorithm="vanilla", rounds=4)
    run(base)
    capsys.readouterr()
    stacked = small_run_config(
        tmp_path / "lbgm", algorithm="lbgm", rounds=4,
        baseline_metrics=str(tmp_path / "base/out/metrics.csv"),
    )
    run(stacked)
    assert "savings_vs_baseline=" in capsys.readouterr().out


@pytest.mark.parametrize("baseline", [
    "missing.csv", "a_directory", "empty.csv", "no_cum_floats.csv", "not_utf8.csv",
])
def test_an_unreadable_baseline_warns_once_and_the_run_succeeds(tmp_path, capsys, baseline):
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "no_cum_floats.csv").write_text("round,train_loss\n1,0.5\n")
    (tmp_path / "not_utf8.csv").write_bytes(b"round,cum_floats\n1,\xff\xfe\n")
    cfg = small_run_config(tmp_path, algorithm="lbgm", rounds=2,
                           baseline_metrics=str(tmp_path / baseline))
    assert run(cfg) == 0
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    assert err.startswith("warning: cannot read baseline metrics: ")
    assert "savings_vs_baseline=" not in out
    assert (tmp_path / "out/metrics.csv").is_file()


def test_lbgm_sampled_at_full_fraction_is_lbgm(tmp_path):
    written = {}
    for algorithm in ("lbgm", "lbgm_sampled"):
        out = tmp_path / algorithm
        assert main(["run", str(CONFIGS / "lbgm_noniid.cfg"), "--out", str(out),
                     "--override", f"algorithm={algorithm}", "--override", "train.rounds=20",
                     "--override", "lbgm.sample_fraction=1.0"]) == 0
        written[algorithm] = [(out / name).read_text() for name in ("metrics.csv", "ledger.csv")]
    assert written["lbgm_sampled"] == written["lbgm"]


def test_cli_round_trip(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(MINIMAL)
    code = main(["run", str(config_path), "--seed", "5",
                 "--out", str(tmp_path / "cli_out"), "--override", "train.rounds=1"])
    assert code == 0
    assert (tmp_path / "cli_out" / "metrics.csv").exists()
    assert "lbgm:" in capsys.readouterr().out


DIVERGING = """\
algorithm = lbgm
seed = 3
[model]
kind = linear_regression
[data]
n = 120
test_n = 40
dim = 4
classes = 3
[train]
workers = 3
rounds = 60
batch_size = 10
eta = 5
"""

ANALYZE = MINIMAL.replace("lbgm", "centralized_analyze").replace("rounds = 2", "rounds = 5")
DIVERGING_ANALYZER = DIVERGING.replace("lbgm", "centralized_analyze").replace("eta = 5", "eta = 50")
NO_PIXELS = "pixels, expected at least one image of at least one pixel"


def config(text, *overrides, flags=(), edit=None, encoding="utf-8"):
    """A row's arguments: `text` as the config file, an --override flag for
    each item, then `flags`; `edit(tmp)` runs first."""
    def build(tmp):
        if edit:
            edit(tmp)
        (tmp / "exp.cfg").write_text(text, encoding)
        return [tmp / "exp.cfg", *(f for item in overrides for f in ("--override", item)), *flags]
    return build


def shipped(name, *overrides):
    """A row's arguments: a shipped config writing to `out`, with overrides."""
    return config((CONFIGS / name).read_text(), *overrides, flags=["--out", "out"])


def idx(train_labels, test_labels, *overrides, shape=(2, 2), edit=None):
    """A row's arguments: a vanilla config on an IDX train pair and test pair
    (train-images.idx, train-labels.idx, ...) of images of `shape` pixels;
    `edit(tmp)` runs once they are written."""
    def build(tmp):
        rng = np.random.default_rng(0)
        for stem, labels in (("train", train_labels), ("test", test_labels)):
            pixels = rng.integers(0, 256, size=math.prod(shape) * len(labels), dtype=np.uint8)
            write_idx_pair(tmp, list(pixels), labels, stem, shape)
        return config(f"algorithm = vanilla\nout = {tmp / 'out'}\n[data]\nkind = idx\n"
                      f"images = {tmp}/train-images.idx\nlabels = {tmp}/train-labels.idx\n"
                      f"test_images = {tmp}/test-images.idx\ntest_labels = {tmp}/test-labels.idx\n"
                      "[train]\nworkers = 2\nrounds = 1\nbatch_size = 5\n",
                      *overrides, edit=edit)(tmp)
    return build


def resize(name, by):
    """An edit: the file `name` cut short by -`by` bytes, or given `by` more."""
    def edit(tmp):
        data = (tmp / name).read_bytes()
        (tmp / name).write_bytes(data[:len(data) + by] + bytes(max(by, 0)))
    return edit


def svd_failing_at_call_15(monkeypatch):
    # two weight blocks per worker and round: call 15 is round 3, worker 1
    svd, calls = np.linalg.svd, itertools.count(1)

    def svd_or_fail(*args, **kwargs):
        if next(calls) == 15:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", svd_or_fail)


def eigvalsh_failing_at_two(monkeypatch):
    # epoch 1's 2 x 2 Gram, in whichever process counts it first: the
    # error comes from the spectrum, not from pgd's 5 x 5 Gram
    eigvalsh = np.linalg.eigvalsh

    def eigvalsh_or_fail(a, *args, **kwargs):
        if len(a) == 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_or_fail)


def eigh_failing(monkeypatch):  # in pgd
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigh", fail)


@pytest.mark.parametrize("build, patch, code, line", [
    # a config error, in the file or in a flag, which the line names
    pytest.param(config(MINIMAL, "train.eta=-1"), None, 2,
                 "eta: value '-1' must be > 0 (--override train.eta=-1)", id="flag_eta"),
    pytest.param(config(MINIMAL, flags=["--seed", "-1"]), None, 2,
                 "seed: value '-1' must be >= 0 (--seed -1)", id="flag_seed"),
    pytest.param(config(MINIMAL, flags=["--out", ""]), None, 2,
                 "out: value '' must be non-empty (--out )", id="flag_out"),
    pytest.param(config(MINIMAL, "compress.sign_majority=maybe"), None, 2, "sign_majority: "
                 "cannot parse 'maybe' as bool (--override compress.sign_majority=maybe)",
                 id="flag_bool"),
    pytest.param(config(MINIMAL, "train.eta=inf"), None, 2,
                 "eta: value 'inf' must be finite (--override train.eta=inf)", id="flag_eta_inf"),
    pytest.param(config(MINIMAL, "data.separation=inf"), None, 2,
                 "separation: value 'inf' must be finite (--override data.separation=inf)",
                 id="flag_separation_inf"),
    pytest.param(config(MINIMAL, "train.momentum=0.9"), None, 2,
                 "override names unknown key 'train.momentum'", id="flag_unknown_key"),
    pytest.param(config(MINIMAL, "trainrounds9"), None, 2,
                 "override 'trainrounds9' is not key=value", id="flag_not_key_value"),
    pytest.param(config(MINIMAL, "train.workers=ten"), None, 2,
                 "workers: cannot parse 'ten' as int (--override train.workers=ten)",
                 id="flag_bad_int"),
    *(pytest.param(config("algorithm = lbgm\n" + text), None, 2, line, id=f"file_{name}")
      for name, text, line in [
          ("delta", "[lbgm]\ndelta = 2.0\n", "delta: value '2.0' must be in [0, 1] (line 3)"),
          ("duplicate_key", "seed = 1\nseed = 2\n", "duplicate key seed (line 3)"),
          ("unknown_key", "momentum = 0.9\n", "unknown key momentum (line 2)"),
          ("unknown_train_key", "[train]\nmomentum = 0.9\n",
           "unknown key [train] momentum (line 3)"),
          ("deleted_key", "[lbgm]\nmonitor_delta_sq = false\n",
           "unknown key [lbgm] monitor_delta_sq (line 3)"),
          ("unknown_section", "[optimizer]\n", "unknown section [optimizer] (line 2)"),
          ("bad_int", "[train]\nworkers = ten\n", "workers: cannot parse 'ten' as int (line 3)"),
          ("no_equals", "just some words\n", "expected key = value (line 2)"),
          ("idx_without_paths", "[data]\nkind = idx\n", "images: required when data kind = idx"),
      ]),
    pytest.param(config("algorithm = fedavg\n"), None, 2,
                 f"algorithm: value 'fedavg' {ONE_OF_ALGORITHMS} (line 1)", id="file_algorithm"),
    pytest.param(config("seed = 4\n"), None, 2, "missing required key: algorithm",
                 id="file_no_algorithm"),
    pytest.param(lambda tmp: [tmp / "nope.cfg"], None, 2,
                 "[Errno 2] No such file or directory: '{tmp}/nope.cfg'", id="no_file"),
    pytest.param(lambda tmp: [tmp], None, 2, "[Errno 21] Is a directory: '{tmp}'",
                 id="file_is_a_directory"),
    pytest.param(config(MINIMAL + "# caf\xe9\n", encoding="latin-1"), None, 2,
                 "{tmp}/exp.cfg: not UTF-8 text...", id="file_not_utf8"),
    pytest.param(shipped("lbgm_noniid.cfg", "data.n=1", "data.test_n=1"), None, 2,
                 "n, test_n: n + test_n = 1 + 1 must be >= classes = 10 for synth data",
                 id="synth_count"),
    pytest.param(config(MINIMAL, "algorithm=centralized_analyze", "data.n=1", "data.test_n=1"),
                 None, 2, "n, test_n: n + test_n = 1 + 1 must be >= classes = 3 for synth data",
                 id="synth_count_analyzer"),
    pytest.param(shipped("lbgm_noniid.cfg", f"train.rounds={10**400}",
                         "train.eta_rule=inv_sqrt_tau_t"), None, 2,
                 "rounds, tau: eta_rule = inv_sqrt_tau_t needs tau * rounds within the float "
                 "range", id="eta_rule_range"),
    # bad data or settings found while the experiment is built
    pytest.param(shipped("vanilla_noniid.cfg", "data.n=5"), None, 2,
                 "cannot split 5 samples across 10 workers", id="n_below_workers"),
    pytest.param(shipped("vanilla_noniid.cfg", "data.n=10"), None, 2,
                 "label_shard(3) leaves worker 4 without samples", id="empty_shard"),
    pytest.param(config(MINIMAL, "train.partition=label_shard(5)"), None, 2,
                 "label_shard(5) exceeds the 3 available labels", id="wide_shard"),
    pytest.param(config(MINIMAL, "train.workers=50", "data.n=20"), None, 2,
                 "cannot split 20 samples across 50 workers", id="workers_above_n"),
    # every size exceeds a 47-bit address space: the allocation fails at once
    # and touches no memory, even where the kernel overcommits
    pytest.param(shipped("lbgm_noniid.cfg", "model.hidden=10000000000000"), None, 2,  # 2.2 PiB
                 "cannot allocate memory: Unable to allocate ...", id="alloc_model"),
    pytest.param(shipped("analyze.cfg", "train.rounds=100000000000"), None, 2,  # 729 TiB
                 "cannot allocate memory: Unable to allocate ...", id="alloc_stack"),
    # stacks numpy rejects by their shape alone
    pytest.param(shipped("analyze.cfg", f"train.rounds={2**62}"), None, 2,
                 "cannot allocate memory: array is too big...", id="alloc_2e62"),
    pytest.param(shipped("analyze.cfg", f"train.rounds={2**63}"), None, 2,
                 "cannot allocate memory: Maximum allowed dimension exceeded...", id="alloc_2e63"),
    pytest.param(idx([0, 1] * 5, [0, 1], edit=lambda tmp: (tmp / "train-images.idx").write_bytes(
                     b"\x00\x00\x08\x01" + bytes(12))), None, 2,
                 "{tmp}/train-images.idx: bad magic 0x00000801 at byte 0, expected 0x00000803",
                 id="idx_bad_magic"),
    pytest.param(idx([0, 1] * 5, [0, 1], edit=resize("test-labels.idx", 3)), None, 2,
                 "{tmp}/test-labels.idx: 3 trailing bytes at byte 10", id="idx_trailing_bytes"),
    pytest.param(idx([0, 1] * 5, [0, 1], edit=resize("train-images.idx", -3)), None, 2,
                 "{tmp}/train-images.idx: truncated at byte 53, expected 56 bytes",
                 id="idx_truncated"),
    pytest.param(idx([0, 1] * 5, [0, 1], edit=lambda tmp: (tmp / "train-labels.idx").write_bytes(
                     struct.pack(">II", 0x00000801, 9) + bytes(9))), None, 2,
                 "count mismatch at byte 4: {tmp}/train-images.idx has 10 images, "
                 "{tmp}/train-labels.idx has 9 labels", id="idx_count_mismatch"),
    # an empty training set reaches the analyzer's per-worker shard check
    pytest.param(idx([], [], "algorithm=centralized_analyze"), None, 2,
                 "{tmp}/train-images.idx: 0 images of 2x2 " + NO_PIXELS,
                 id="idx_empty_train_analyzer"),
    # an empty test set gives a NaN test loss, read as divergence
    pytest.param(idx([0, 1] * 5, []), None, 2,
                 "{tmp}/test-images.idx: 0 images of 2x2 " + NO_PIXELS, id="idx_empty_test_mlp1h"),
    pytest.param(idx([0, 1] * 5, [], "model.kind=linear_regression"), None, 2,
                 "{tmp}/test-images.idx: 0 images of 2x2 " + NO_PIXELS,
                 id="idx_empty_test_regression"),
    # 0-pixel inputs give init_params a zero fan-in
    pytest.param(idx([0, 1] * 5, [0, 1], shape=(0, 0)), None, 2,
                 "{tmp}/train-images.idx: 10 images of 0x0 " + NO_PIXELS, id="idx_zero_pixels"),
    # all-zero training labels give a one-class softmax: nothing to learn
    pytest.param(idx([0] * 10, [0, 0], "model.kind=mlp1h"), None, 2,
                 "{tmp}/train-labels.idx: every training label is 0; mlp1h needs at least 2 "
                 "classes", id="idx_one_class"),
    pytest.param(idx([0] * 10, [0, 0], "algorithm=centralized_analyze",
                     "model.kind=softmax_classifier"), None, 2,
                 "{tmp}/train-labels.idx: every training label is 0; softmax_classifier needs at "
                 "least 2 classes", id="idx_one_class_analyzer"),
    pytest.param(idx([0, 1, 2] * 4, [0, 1, 2, 5, 4]), None, 2,
                 "{tmp}/test-labels.idx: label 5 is not one of the 3 training classes",
                 id="idx_test_label_outside"),
    # where each run diverges pins which finite check fires first: a worker's
    # look-back dot product, or the loss that evaluate computes on the server model
    pytest.param(config(DIVERGING), None, 3,
                 "run diverged in round 25 (worker 0): dot product is not finite",
                 id="diverged_lbgm"),
    pytest.param(config(DIVERGING, "algorithm=vanilla", "train.eta=50"), None, 3,
                 "run diverged in round 15 (worker 2): dot product is not finite",
                 id="diverged_vanilla_eta50"),
    pytest.param(config(DIVERGING, "train.eta=50"), None, 3,
                 "run diverged in round 15: loss is not finite", id="diverged_lbgm_eta50"),
    pytest.param(config(MINIMAL, "algorithm=rank_r_lbgm", "train.rounds=5"),
                 svd_failing_at_call_15, 3,
                 "run diverged in round 3 (worker 1): SVD did not converge", id="svd_failure"),
    # training stops at epoch 5's non-finite Gram row, which is never
    # announced to the helper running alongside: it is stopped and reaped
    pytest.param(config(DIVERGING_ANALYZER), None, 3,
                 "run diverged: Gram row of epoch 5 contains non-finite entries",
                 id="diverged_analyzer"),
    pytest.param(config(DIVERGING_ANALYZER, "train.rounds=10"), None, 3,
                 "run diverged: Gram row of epoch 5 contains non-finite entries",
                 id="diverged_analyzer_10_epochs"),
    pytest.param(config(ANALYZE), eigvalsh_failing_at_two, 3,
                 "run diverged: Eigenvalues did not converge", id="spectrum_failure"),
    pytest.param(config(ANALYZE), eigh_failing, 3,
                 "run diverged: Eigenvalues did not converge", id="pgd_failure"),
    # fedlbg.run returns the command line's codes, and raises nothing
    pytest.param(lambda tmp: parse_config(ANALYZE), eigvalsh_failing_at_two, 3,
                 "run diverged: Eigenvalues did not converge", id="spectrum_failure_run"),
    # the output directory is made by the first file written, so an `out`
    # that is a regular file, or lies below one, is reported once the run has ended
    *(pytest.param(config(MINIMAL, f"algorithm={algorithm}", flags=["--out", out],
                          edit=lambda tmp: (tmp / "out").write_text("a file\n")), None, 1,
                   f"out: cannot make the output directory '{out}': {reason}",
                   id=f"{name}_{algorithm}")
      for algorithm in ("lbgm", "centralized_analyze")
      for name, out, reason in [("out_a_file", "out", "File exists"),
                                ("out_below_a_file", "out/sub", "Not a directory")]),
])
def test_a_failing_run_exits_with_its_code_one_line_and_no_stray_output(
        tmp_path, capsys, monkeypatch, build, patch, code, line):
    assert_exit(tmp_path, capsys, monkeypatch, build, patch, code, line)


def test_a_regression_runs_on_the_one_class_labels_a_classifier_rejects(tmp_path):
    # a regression fits the one-hot targets of labels that are all 0
    argv = idx([0] * 10, [0, 0], "model.kind=linear_regression")(tmp_path)
    assert main(["run", *map(str, argv)]) == 0


def no_fork(monkeypatch):
    def fail():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", fail)


def no_shared_mapping(monkeypatch):
    def fail(*args):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")
    monkeypatch.setattr(analyzer.mmap, "mmap", fail)


def helper_signalled_in_training(sig):
    """A patch that sends the helper `sig` once epoch 5 is added, with 34
    epochs still to train."""
    def patch(monkeypatch):
        add = analyzer.SpectrumProgression.add

        def add_then_signal(self, epoch):
            add(self, epoch)
            if epoch == 5:
                os.kill(self._child, sig)
        monkeypatch.setattr(analyzer.SpectrumProgression, "add", add_then_signal)
    return patch


@needs_helper
@pytest.mark.parametrize("patch", [
    no_fork,
    no_shared_mapping,
    lambda monkeypatch: helper_acting_at(monkeypatch, 0, "kill"),
    lambda monkeypatch: helper_acting_at(monkeypatch, 3, "kill"),
    lambda monkeypatch: helper_acting_at(monkeypatch, 3, "tear"),
    lambda monkeypatch: helper_acting_at(monkeypatch, 3, "stop"),
    helper_signalled_in_training(signal.SIGKILL),
    helper_signalled_in_training(signal.SIGSTOP),
], ids=["fork_failed", "no_shared_mapping", "helper_killed_at_its_first_row",
        "helper_killed_after_some_rows", "helper_torn_row", "helper_stopped",
        "helper_killed_in_training", "helper_stopped_in_training"])
def test_the_spectrum_helper_is_only_a_speed_up(tmp_path, monkeypatch, patch):
    # the fork fails, or the stack cannot be shared (numpy allocates it, and
    # no helper runs), or the helper, counting 40 rows from epoch 0 up, ends
    # or stops after writing 0 or 3 of them, or is killed or stopped while
    # the model trains: the run counts the rest in process, without waiting
    # for it, and writes the same bytes. A run that waits is failed by the
    # alarm, after 5 s
    with monkeypatch.context() as in_process:
        in_process.setattr(analyzer, "_helper_can_run", lambda: False)
        assert run(small_run_config(tmp_path / "inprocess", algorithm="centralized_analyze",
                                    rounds=40)) == 0
    patch(monkeypatch)
    with alarm(5, "the run waited for the helper"):
        assert run(small_run_config(tmp_path / "helped", algorithm="centralized_analyze",
                                    rounds=40)) == 0
    assert_no_child()
    for name in ANALYZER_OUTPUTS:
        got = (tmp_path / "helped" / "out" / name).read_bytes()
        assert got and got == (tmp_path / "inprocess" / "out" / name).read_bytes()


def children_file(pid):
    return Path(f"/proc/{pid}/task/{pid}/children")


@needs_helper
@pytest.mark.skipif(not children_file(os.getpid()).exists(),
                    reason="no /proc/<pid>/task/<pid>/children to find the helper by")
def test_a_killed_run_leaves_no_spectrum_helper(tmp_path):
    # the helper forks before the first of 600 training epochs, and the run
    # lasts seconds: far longer than the test waits once the helper is found
    argv = [sys.executable, "-m", "fedlbg", "run", str(CONFIGS / "analyze.cfg"),
            "--out", str(tmp_path / "out"), "--override", "train.rounds=600"]
    parent = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              env=package_env())
    helper = None
    try:
        deadline = time.monotonic() + 30
        while helper is None and parent.poll() is None and time.monotonic() < deadline:
            pids = children_file(parent.pid).read_text().split()
            if pids:
                helper = int(pids[0])
            else:
                time.sleep(0.005)
        assert helper is not None, "the run forked no helper"
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 30
        while process_state(helper) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.005)
        assert process_state(helper) in (None, "Z")
    finally:
        parent.kill()
        parent.wait()
        if helper is not None and process_state(helper) not in (None, "Z"):
            os.kill(helper, signal.SIGKILL)


def test_import_leaves_multiprocessing_unloaded():
    # the spectrum helper is forked with os.fork: nothing in the package
    # imports multiprocessing, so importing the package stays light
    code = "import sys, fedlbg; print('multiprocessing' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), check=True)
    assert done.stdout == "False\n"


def test_run_on_idx_dataset_with_subset(tmp_path):
    rng = np.random.default_rng(0)
    train_px = list(rng.integers(0, 256, size=40 * 4, dtype=np.uint8))
    train_lab = [int(i % 2) for i in range(40)]
    test_px = list(rng.integers(0, 256, size=10 * 4, dtype=np.uint8))
    test_lab = [int(i % 2) for i in range(10)]
    img, lab = write_idx_pair(tmp_path, train_px, train_lab, "train")
    timg, tlab = write_idx_pair(tmp_path, test_px, test_lab, "test")
    cfg = ExperimentConfig(
        algorithm="vanilla", seed=1, out=str(tmp_path / "out"),
        data_kind="idx", images=img, labels=lab, test_images=timg, test_labels=tlab,
        subset=20, test_subset=4, workers=2, rounds=2, batch_size=5, hidden=4,
    )
    train, test = build_datasets(cfg)
    full_train, full_test = load_idx(img, lab), load_idx(timg, tlab)
    assert (train.n, test.n) == (20, 4)
    assert np.array_equal(train.inputs, full_train.inputs[:20])
    assert np.array_equal(train.labels, full_train.labels[:20])
    assert np.array_equal(test.inputs, full_test.inputs[:4])
    assert np.array_equal(test.labels, full_test.labels[:4])
    assert run(cfg) == 0
    ledger = (tmp_path / "out/ledger.csv").read_text().splitlines()
    assert len(ledger) == 1 + 2 * 2
    # accuracy over the 4 kept test rows
    metrics = (tmp_path / "out/metrics.csv").read_text().splitlines()
    col = metrics[0].split(",").index("test_metric")
    quarters = [4 * float(line.split(",")[col]) for line in metrics[1:]]
    assert quarters and all(q == int(q) for q in quarters)


@pytest.mark.parametrize("text", [MINIMAL, MINIMAL.lstrip(), "# header\n" + MINIMAL],
                         ids=["blank_line_1", "key_on_line_1", "comment_on_line_1"])
def test_cli_config_with_a_byte_order_mark_runs(tmp_path, monkeypatch, text):
    configs = []
    monkeypatch.setattr(harness, "run", lambda cfg: configs.append(cfg) or 0)
    for name, head in (("plain.cfg", b""), ("bom.cfg", b"\xef\xbb\xbf")):
        (tmp_path / name).write_bytes(head + text.encode())
        assert main(["run", str(tmp_path / name)]) == 0
    assert configs[0] == configs[1]


def test_cli_seed_and_out_values_are_stripped_like_file_values(tmp_path, monkeypatch):
    configs = []
    monkeypatch.setattr(harness, "run", lambda cfg: configs.append(cfg) or 0)
    config_path = tmp_path / "exp.cfg"
    config_path.write_text("seed = 7 \nout =  x \n" + MINIMAL)
    assert main(["run", str(config_path)]) == 0
    assert main(["run", str(config_path), "--seed", "7", "--out", " x "]) == 0
    assert configs[0] == configs[1] and configs[1].out == "x"


def test_regression_on_idx_test_set_missing_a_class(tmp_path):
    # one-hot test targets are as wide as the model's output even when the
    # test labels stop short of the training set's highest class
    rng = np.random.default_rng(0)
    img, lab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=30 * 4, dtype=np.uint8)),
        [i % 3 for i in range(30)], "train")
    timg, tlab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=10 * 4, dtype=np.uint8)),
        [i % 2 for i in range(10)], "test")
    cfg = ExperimentConfig(
        algorithm="vanilla", out=str(tmp_path / "out"), model_kind="linear_regression",
        data_kind="idx", images=img, labels=lab, test_images=timg, test_labels=tlab,
        workers=2, rounds=2, batch_size=5,
    )
    assert run(cfg) == 0


def test_linear_regression_fits_one_hot_targets(tmp_path):
    cfg = small_run_config(tmp_path, model_kind="linear_regression", rounds=4)
    assert run(cfg) == 0
    lines = (tmp_path / "out/metrics.csv").read_text().splitlines()
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # regression reports test loss, which should decrease with training
    assert float(last[2]) < float(first[2])


def test_analyzer_regression_fits_one_hot_targets(tmp_path, monkeypatch):
    # the analyzer fits the targets a federated run fits: one-hot class
    # vectors for linear regression on labelled data
    stacks = []
    record = analyzer.record_centralized

    def spy(*args):
        grads = record(*args)
        stacks.append(grads)
        return grads

    monkeypatch.setattr(analyzer, "record_centralized", spy)
    cfg = ExperimentConfig(
        algorithm="centralized_analyze", model_kind="linear_regression", n=60, test_n=10,
        dim=4, classes=3, rounds=1, batch_size=0, out=str(tmp_path),
    )
    assert run(cfg) == 0
    train_ds, _ = build_datasets(cfg)
    model = build_model("linear_regression", 4, 3)
    theta0 = init_params(model, rng_stream(cfg.seed, 0))
    one_hot = Dataset(train_ds.inputs, np.eye(3)[train_ds.labels], 0)
    assert np.array_equal(stacks[0][0], gradient(model, theta0, one_hot))
