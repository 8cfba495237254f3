import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError, astuple, fields, replace
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer, fl_core, harness
from fedlbg.compressors import rank_r, sign_compress, topk
from fedlbg.data import Dataset
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
from fedlbg.lbgm import DensePayload, UplinkMessage
from fedlbg.models import build_model, gradient, init_params
from fedlbg.numerics import one_blas_thread, rng_stream
from ledger_oracle import ledger_cost

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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


def test_parse_rejects_out_of_range_delta():
    with pytest.raises(ConfigError, match=r"delta.*\(line 3\)"):
        parse_config("algorithm = lbgm\n[lbgm]\ndelta = 1.5\n")


def test_parse_rejects_duplicate_key():
    text = "algorithm = lbgm\nseed = 1\nseed = 2\n"
    with pytest.raises(ConfigError, match=r"duplicate key seed \(line 3\)"):
        parse_config(text)


def test_parse_rejects_unknown_key_and_section():
    with pytest.raises(ConfigError, match=r"unknown key momentum \(line 2\)"):
        parse_config("algorithm = lbgm\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match=r"unknown key \[train\] momentum"):
        parse_config("algorithm = lbgm\n[train]\nmomentum = 0.9\n")
    with pytest.raises(ConfigError, match=r"unknown key \[lbgm\] monitor_delta_sq \(line 3\)"):
        parse_config("algorithm = lbgm\n[lbgm]\nmonitor_delta_sq = false\n")
    with pytest.raises(ConfigError, match=r"unknown section \[optimizer\] \(line 2\)"):
        parse_config("algorithm = lbgm\n[optimizer]\n")


def test_parse_rejects_unknown_algorithm():
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config("algorithm = fedavg\n")


def test_parse_requires_algorithm():
    with pytest.raises(ConfigError, match="missing required key: algorithm"):
        parse_config("seed = 4\n")


def test_parse_rejects_bad_int():
    with pytest.raises(ConfigError, match=r"workers: cannot parse 'ten' as int \(line 3\)"):
        parse_config("algorithm = lbgm\n[train]\nworkers = ten\n")


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match=r"key = value \(line 2\)"):
        parse_config("algorithm = lbgm\njust some words\n")


def test_parse_idx_requires_paths():
    with pytest.raises(ConfigError, match="images: required"):
        parse_config("algorithm = vanilla\n[data]\nkind = idx\n")


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


def test_overrides_reject_unknown_and_malformed():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL, overrides("train.momentum=0.9"))
    with pytest.raises(ConfigError, match="not key=value"):
        parse_config(MINIMAL, overrides("trainrounds9"))
    # a bad value names the override that set it, not a line of the file
    with pytest.raises(ConfigError, match=r"eta: value '-1' must be > 0 \(--override train.eta=-1\)$"):
        parse_config(MINIMAL, overrides("train.eta=-1"))
    with pytest.raises(ConfigError, match=r"cannot parse 'ten' as int \(--override train.workers=ten\)$"):
        parse_config(MINIMAL, overrides("train.workers=ten"))


@pytest.mark.parametrize("flags,message", [
    (["--override", "train.eta=-1"], "eta: value '-1' must be > 0 (--override train.eta=-1)"),
    (["--seed", "-1"], "seed: value '-1' must be >= 0 (--seed -1)"),
    (["--out", ""], "out: value '' must be non-empty (--out )"),
    (["--override", "compress.sign_majority=maybe"],
     "sign_majority: cannot parse 'maybe' as bool (--override compress.sign_majority=maybe)"),
    (["--override", "train.eta=inf"], "eta: value 'inf' must be finite (--override train.eta=inf)"),
    (["--override", "data.separation=inf"],
     "separation: value 'inf' must be finite (--override data.separation=inf)"),
])
def test_cli_flag_errors_name_the_flag(tmp_path, capsys, flags, message):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(MINIMAL)
    assert main(["run", str(config_path), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("kw, message", [
    (dict(algorithm="lbgm", delta=5.0), "delta: value 5.0 must be in [0, 1]"),
    (dict(algorithm="lbgm_sampled", sample_fraction=2.0),
     "sample_fraction: value 2.0 must be in (0, 1]"),
    (dict(algorithm="rank_r", rank=0), "rank: value 0 must be >= 1"),
    (dict(algorithm="bogus"),
     "algorithm: value 'bogus' must be one of {vanilla, lbgm, lbgm_sampled, topk, topk_lbgm, "
     "rank_r, rank_r_lbgm, sign, sign_lbgm, centralized_analyze}"),
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
], ids=["delta", "sample_fraction", "rank", "algorithm", "hidden", "k_frac", "eta", "seed",
        "idx_paths", "partition", "bool_type", "float_type"])
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


def test_too_few_synth_samples_for_the_classes_names_n_and_test_n(tmp_path, capsys):
    message = "n, test_n: n + test_n = 1 + 1 must be >= classes = 10 for synth data"
    out = tmp_path / "out"
    assert main(["run", str(CONFIGS / "lbgm_noniid.cfg"), "--override", "data.n=1",
                 "--override", "data.test_n=1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()
    with pytest.raises(ConfigError) as made:
        ExperimentConfig(algorithm="lbgm", n=1, test_n=1)
    assert str(made.value) == message
    # enough samples for one of each class; idx data takes its classes from its labels
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


def test_ledger_cost_table():
    rng = rng_stream(40, 0)
    g1000 = rng.standard_normal(1000)
    assert ledger_cost(UplinkMessage(rho=0.7)) == (1.0, 32.0)
    assert ledger_cost(UplinkMessage(payload=DensePayload(g1000))) == (1000.0, 32000.0)
    assert ledger_cost(UplinkMessage(payload=topk(g1000, 100))) == (200.0, 6400.0)
    assert ledger_cost(UplinkMessage(payload=sign_compress(g1000))) == (1000 / 32, 1000.0)
    low = rank_r(rng.standard_normal(35), [(5, 7)], 2)
    assert ledger_cost(UplinkMessage(payload=low)) == (24.0, 768.0)


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


def test_run_all_algorithms_dispatch(tmp_path):
    for algorithm in ("vanilla", "lbgm", "lbgm_sampled", "topk", "topk_lbgm",
                      "rank_r", "rank_r_lbgm", "sign", "sign_lbgm"):
        cfg = small_run_config(tmp_path / algorithm, algorithm=algorithm, rounds=2)
        assert run(cfg) == 0, algorithm
        assert (tmp_path / algorithm / "out" / "metrics.csv").exists()


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


def test_vanilla_and_delta_zero_write_identical_metrics(tmp_path):
    run(small_run_config(tmp_path / "v", algorithm="vanilla", rounds=4))
    run(small_run_config(tmp_path / "l", algorithm="lbgm", delta=0.0, rounds=4))
    assert (tmp_path / "v/out/metrics.csv").read_bytes() == (tmp_path / "l/out/metrics.csv").read_bytes()


def test_cli_round_trip(tmp_path, capsys):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(MINIMAL)
    code = main(["run", str(config_path), "--seed", "5",
                 "--out", str(tmp_path / "cli_out"), "--override", "train.rounds=1"])
    assert code == 0
    assert (tmp_path / "cli_out" / "metrics.csv").exists()
    assert "lbgm:" in capsys.readouterr().out


def test_cli_reports_config_errors(tmp_path, capsys):
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("algorithm = lbgm\n[lbgm]\ndelta = 2.0\n")
    assert main(["run", str(config_path)]) == 2
    assert "delta" in capsys.readouterr().err


def test_cli_missing_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2
    assert "error" in capsys.readouterr().err


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


# where each run diverges pins which finite check fires first: a worker's
# look-back dot product, or the loss that evaluate computes on the server model
@pytest.mark.parametrize("overrides, t, stderr", [
    ([], 25, "error: run diverged in round 25 (worker 0): dot product is not finite"),
    (["algorithm=vanilla", "train.eta=50"], 15,
     "error: run diverged in round 15 (worker 2): dot product is not finite"),
    (["train.eta=50"], 15, "error: run diverged in round 15: loss is not finite"),
], ids=["lbgm", "vanilla-eta50", "lbgm-eta50"])
def test_cli_diverging_run_keeps_completed_rounds(tmp_path, capsys, overrides, t, stderr):
    config_path = tmp_path / "diverge.cfg"
    config_path.write_text(DIVERGING)
    out = tmp_path / "out"
    argv = ["run", str(config_path), "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [stderr]
    metrics = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in metrics] == list(range(t))
    ledger = [line.split(",") for line in (out / "ledger.csv").read_text().splitlines()[1:]]
    assert {int(row[0]) for row in ledger} == set(range(1, t))
    assert sum(float(row[2]) for row in ledger) == float(metrics[-1][3])


def test_cli_diverging_analyzer_exits_3(tmp_path, capsys):
    config_path = tmp_path / "diverge.cfg"
    config_path.write_text(DIVERGING.replace("lbgm", "centralized_analyze")
                           .replace("eta = 5", "eta = 50"))
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: run diverged: Gram row of epoch 5 contains non-finite entries"]


def test_cli_svd_failure_keeps_completed_rounds(tmp_path, capsys, monkeypatch):
    # two weight blocks per worker and round: call 15 is round 3, worker 1
    svd, calls = np.linalg.svd, []

    def fail_at_fifteen(*args, **kwargs):
        calls.append(None)
        if len(calls) == 15:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", fail_at_fifteen)
    config_path = tmp_path / "rank.cfg"
    config_path.write_text(MINIMAL.replace("lbgm", "rank_r_lbgm").replace("rounds = 2", "rounds = 5"))
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: run diverged in round 3 (worker 1): SVD did not converge"]
    metrics = (out / "metrics.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in metrics] == ["0", "1", "2"]
    ledger = (out / "ledger.csv").read_text().splitlines()[1:]
    assert {line.split(",")[0] for line in ledger} == {"1", "2"}


ANALYZER_OUTPUTS = ("npca.csv", "overlap.csv", "similarity.csv")

needs_helper = pytest.mark.skipif(analyzer._helper_context() is None,
                                reason="no fork start method, or one usable CPU")


@needs_helper
def test_analyzer_leaves_no_child_after_success_or_divergence(tmp_path, capsys):
    cfg = small_run_config(tmp_path / "ok", algorithm="centralized_analyze", rounds=5)
    assert run(cfg) == 0
    assert multiprocessing.active_children() == []
    # 10 epochs of a 15-parameter model: every prefix is wide, so a helper runs
    config_path = tmp_path / "diverge.cfg"
    config_path.write_text(DIVERGING.replace("lbgm", "centralized_analyze")
                           .replace("eta = 5", "eta = 50").replace("rounds = 60", "rounds = 10"))
    out = tmp_path / "diverged"
    assert main(["run", str(config_path), "--out", str(out)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: run diverged: Gram row of epoch 5 contains non-finite entries"]
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == []


def eigvalsh_failing_at_two(a, *args, eigvalsh=np.linalg.eigvalsh, **kwargs):
    # epoch 1's 2 x 2 Gram: in the helper where one runs, else in this process
    if len(a) == 2:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return eigvalsh(a, *args, **kwargs)


def eigh_failing(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")  # in pgd


@pytest.mark.parametrize("entry", ["main", "run"])
@pytest.mark.parametrize("name, patch", [("eigvalsh", eigvalsh_failing_at_two),
                                         ("eigh", eigh_failing)], ids=["spectrum", "pgd"])
def test_cli_analyzer_decomposition_failure_exits_3(tmp_path, capsys, monkeypatch, name, patch,
                                                    entry):
    # in the spectrum case only epoch 1's 2 x 2 Gram fails, so the error
    # comes from the spectrum, not from pgd's 5 x 5 Gram
    monkeypatch.setattr(np.linalg, name, patch)
    text = MINIMAL.replace("lbgm", "centralized_analyze").replace("rounds = 2", "rounds = 5")
    out = tmp_path / "out"
    if entry == "main":
        config_path = tmp_path / "analyze.cfg"
        config_path.write_text(text)
        assert main(["run", str(config_path), "--out", str(out)]) == 3
    else:
        assert run(replace(parse_config(text), out=str(out))) == 3
    assert capsys.readouterr().err.splitlines() == [
        "error: run diverged: Eigenvalues did not converge"]
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == []


@needs_helper
def test_analyzer_helper_that_dies_exits_1(tmp_path, monkeypatch, capsys):
    pgd = analyzer.pgd

    def kill_helper_then_pgd(*args):
        (helper,) = multiprocessing.active_children()
        os.kill(helper.pid, signal.SIGKILL)
        return pgd(*args)

    monkeypatch.setattr(analyzer, "pgd", kill_helper_then_pgd)
    cfg = small_run_config(tmp_path, algorithm="centralized_analyze", rounds=5)
    assert run(cfg) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: spectrum helper exited with code {-signal.SIGKILL} before answering"]
    assert multiprocessing.active_children() == []
    assert not any((tmp_path / "out" / name).exists() for name in ANALYZER_OUTPUTS)


def package_env():
    """This process's environment, with the tested fedlbg first on the path
    and BLAS on one thread."""
    src = str(Path(analyzer.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")


def process_state(pid):
    """The state letter of a process (Z for a zombie), or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rpartition(")")[2].split()[0]


def children_file(pid):
    return Path(f"/proc/{pid}/task/{pid}/children")


@needs_helper
@pytest.mark.skipif(not children_file(os.getpid()).exists(),
                    reason="no /proc/<pid>/task/<pid>/children to find the helper by")
def test_a_killed_run_leaves_no_spectrum_helper(tmp_path):
    # 900 epochs of a 1,002-parameter model: every prefix is wide, and the
    # run lasts far longer than the test waits
    argv = [sys.executable, "-m", "fedlbg", "run", str(CONFIGS / "analyze.cfg"),
            "--out", str(tmp_path / "out"), "--override", "train.rounds=900"]
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


def test_import_leaves_multiprocessing_and_mmap_unloaded():
    # the spectrum helper imports them when it starts, so importing the
    # package stays light
    code = "import sys, fedlbg; print(sorted({'multiprocessing', 'mmap'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), check=True)
    assert done.stdout == "[]\n"


def write_idx_pair(tmp_path, pixels, labels, stem, shape=(2, 2)):
    import struct

    n = len(labels)
    images = tmp_path / f"{stem}-images.idx"
    labs = tmp_path / f"{stem}-labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, *shape) + bytes(pixels))
    labs.write_bytes(struct.pack(">II", 0x00000801, n) + bytes(labels))
    return str(images), str(labs)


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
        subset=20, workers=2, rounds=2, batch_size=5, hidden=4,
    )
    assert run(cfg) == 0
    ledger = (tmp_path / "out/ledger.csv").read_text().splitlines()
    assert len(ledger) == 1 + 2 * 2


@pytest.mark.parametrize("argv,message", [
    ([str(CONFIGS / "vanilla_noniid.cfg"), "--override", "data.n=5"],
     "cannot split 5 samples across 10 workers"),
    ([str(CONFIGS / "vanilla_noniid.cfg"), "--override", "data.n=10"],
     "label_shard(3) leaves worker 4 without samples"),
    (["--override", "train.partition=label_shard(5)"],
     "label_shard(5) exceeds the 3 available labels"),
    (["--override", "train.workers=50", "--override", "data.n=20"],
     "cannot split 20 samples across 50 workers"),
    (["--override", "algorithm=centralized_analyze", "--override", "data.n=1",
      "--override", "data.test_n=1"],
     "n, test_n: n + test_n = 1 + 1 must be >= classes = 3 for synth data"),
])
def test_cli_bad_setup_exits_2_with_one_line(tmp_path, capsys, argv, message):
    # errors found while building the experiment are bad input, not crashes
    if not argv[0].endswith(".cfg"):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(MINIMAL)
        argv = [str(config_path), *argv]
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("config,override", [
    ("lbgm_noniid.cfg", "model.hidden=10000000000000"),  # a 2.2 PiB model
    ("analyze.cfg", "train.rounds=100000000000"),  # a 729 TiB gradient stack
])
def test_an_experiment_too_large_to_allocate_exits_2_with_one_line(tmp_path, capsys, config,
                                                                   override):
    # both sizes exceed a 47-bit address space: the allocation fails at once
    # and touches no memory, even where the kernel overcommits
    out = str(tmp_path / "out")
    assert main(["run", str(CONFIGS / config), "--override", override, "--out", out]) == 2
    cfg = parse_config((CONFIGS / config).read_text(),
                       [(override, "--override"), (f"out={out}", "--out")])
    assert run(cfg) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("error: cannot allocate memory: Unable to allocate ")


def idx_argv(tmp_path, train_labels, test_labels, images=None, shape=(2, 2)):
    """`run` arguments for a vanilla config on an IDX pair of images of
    `shape` pixels (2x2 by default)."""
    rng = np.random.default_rng(0)
    size = shape[0] * shape[1]
    img, lab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=size * len(train_labels), dtype=np.uint8)),
        train_labels, "train", shape)
    timg, tlab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=size * len(test_labels), dtype=np.uint8)),
        test_labels, "test", shape)
    config_path = tmp_path / "idx.cfg"
    config_path.write_text(
        f"algorithm = vanilla\nout = {tmp_path / 'out'}\n[data]\nkind = idx\n"
        f"images = {images or img}\nlabels = {lab}\n"
        f"test_images = {timg}\ntest_labels = {tlab}\n"
        "[train]\nworkers = 2\nrounds = 1\nbatch_size = 5\n"
    )
    return ["run", str(config_path)], tlab


def test_cli_idx_bad_magic_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad-images.idx"
    bad.write_bytes(b"\x00\x00\x08\x01" + bytes(12))
    argv, _ = idx_argv(tmp_path, [0, 1] * 5, [0, 1], images=bad)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {bad}: bad magic 0x00000801 at byte 0, expected 0x00000803"]


def test_cli_idx_labels_with_trailing_bytes_exit_2_with_one_line(tmp_path, capsys):
    argv, tlab = idx_argv(tmp_path, [0, 1] * 5, [0, 1])
    with open(tlab, "ab") as f:
        f.write(bytes(3))
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tlab}: 3 trailing bytes at byte 10"]


@pytest.mark.parametrize("train,test,override,shape,stem,found", [
    # an empty training set reaches the analyzer's per-worker shard check
    ([], [], ["algorithm=centralized_analyze"], (2, 2), "train", "0 images of 2x2"),
    # an empty test set gives a NaN test loss, read as divergence
    ([0, 1] * 5, [], [], (2, 2), "test", "0 images of 2x2"),
    ([0, 1] * 5, [], ["model.kind=linear_regression"], (2, 2), "test", "0 images of 2x2"),
    # 0-pixel inputs give init_params a zero fan-in
    ([0, 1] * 5, [0, 1], [], (0, 0), "train", "10 images of 0x0"),
], ids=["empty_train_analyzer", "empty_test_mlp1h", "empty_test_regression", "zero_pixels"])
def test_cli_idx_without_images_or_pixels_exits_2_with_one_line(
        tmp_path, capsys, train, test, override, shape, stem, found):
    argv, _ = idx_argv(tmp_path, train, test, shape=shape)
    for item in override:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tmp_path / stem}-images.idx: {found} pixels, "
                   "expected at least one image of at least one pixel"]


@pytest.mark.parametrize("algorithm, kind", [("vanilla", "mlp1h"),
                                             ("centralized_analyze", "softmax_classifier")])
def test_cli_idx_one_class_exits_2_with_one_line(tmp_path, capsys, algorithm, kind):
    # all-zero training labels give a one-class softmax: nothing to learn
    argv, _ = idx_argv(tmp_path, [0] * 10, [0, 0])
    argv += ["--override", f"algorithm={algorithm}"]
    assert main(argv + ["--override", f"model.kind={kind}"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {tmp_path / 'train'}-labels.idx: every training label is 0; "
        f"{kind} needs at least 2 classes"]
    # a regression fits the one-hot targets of the same labels
    assert main(argv + ["--override", "model.kind=linear_regression"]) == 0


def test_cli_config_that_is_not_utf8_exits_2_naming_the_file(tmp_path, capsys):
    config_path = tmp_path / "latin1.cfg"
    config_path.write_bytes(MINIMAL.encode() + "# caf\xe9\n".encode("latin-1"))
    assert main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config_path}: not UTF-8 text")


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


def test_cli_idx_test_label_outside_training_classes_exits_2(tmp_path, capsys):
    argv, tlab = idx_argv(tmp_path, [0, 1, 2] * 4, [0, 1, 2, 5, 4])
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {tlab}: label 5 is not one of the 3 training classes"]


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
        grads, progression = record(*args)
        stacks.append(grads)
        return grads, progression

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
