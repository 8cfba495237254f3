import re
from pathlib import Path

import numpy as np
import pytest

from fedlbg import analyzer
from fedlbg.compressors import rank_r, sign_compress, topk
from fedlbg.data import Dataset
from fedlbg.fl_core import build_datasets
from fedlbg.harness import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    ledger_cost,
    main,
    parse_config,
    run,
    _build_config,
    _parse_pairs,
)
from fedlbg.lbgm import DensePayload, UplinkMessage
from fedlbg.models import build_model, gradient, init_params
from fedlbg.numerics import RngStream

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


def test_overrides_replace_values():
    pairs = _parse_pairs(MINIMAL)
    cfg = parse_config(MINIMAL)
    assert cfg.rounds == 2
    merged = apply_overrides(pairs, ["train.rounds=9", "seed=3", "lbgm.delta=0.5"])
    cfg2 = _build_config(merged)
    assert cfg2.rounds == 9 and cfg2.seed == 3 and cfg2.delta == 0.5


def test_overrides_reject_unknown_and_malformed():
    pairs = _parse_pairs(MINIMAL)
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(pairs, ["train.momentum=0.9"])
    with pytest.raises(ConfigError, match="not key=value"):
        apply_overrides(pairs, ["trainrounds9"])
    # a bad value names the override that set it, not a line of the file
    pairs = apply_overrides(_parse_pairs(MINIMAL), ["train.eta=-1"])
    with pytest.raises(ConfigError, match=r"eta: value '-1' must be > 0 \(--override train.eta=-1\)$"):
        _build_config(pairs)
    pairs = apply_overrides(_parse_pairs(MINIMAL), ["train.workers=ten"])
    with pytest.raises(ConfigError, match=r"cannot parse 'ten' as int \(--override train.workers=ten\)$"):
        _build_config(pairs)


@pytest.mark.parametrize("flags,message", [
    (["--override", "train.eta=-1"], "eta: value '-1' must be > 0 (--override train.eta=-1)"),
    (["--seed", "-1"], "seed: value '-1' must be >= 0 (--seed -1)"),
    (["--out", ""], "out: value '' must be non-empty (--out )"),
])
def test_cli_flag_errors_name_the_flag(tmp_path, capsys, flags, message):
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(MINIMAL)
    assert main(["run", str(config_path), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def test_ledger_cost_table():
    rng = RngStream(40, 0).generator()
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


def test_run_centralized_analyze_zero_epochs(tmp_path):
    cfg = small_run_config(tmp_path, algorithm="centralized_analyze", rounds=0)
    assert run(cfg) == 0
    assert (tmp_path / "out/npca.csv").read_text() == "epoch,n95,n99\n"


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


def test_cli_diverging_run_keeps_completed_rounds(tmp_path, capsys):
    config_path = tmp_path / "diverge.cfg"
    config_path.write_text(DIVERGING)
    out = tmp_path / "out"
    assert main(["run", str(config_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    found = re.match(r"error: run diverged in round (\d+) \(worker \d+\): ", err[0])
    assert found, err[0]
    t = int(found.group(1))
    assert 1 < t < 60
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
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run diverged: "), err


def write_idx_pair(tmp_path, pixels, labels, stem):
    import struct

    n = len(labels)
    images = tmp_path / f"{stem}-images.idx"
    labs = tmp_path / f"{stem}-labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x00000803, n, 2, 2) + bytes(pixels))
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
      "--override", "data.test_n=1"], "need n >= classes, got n=2 classes=3"),
])
def test_cli_bad_setup_exits_2_with_one_line(tmp_path, capsys, argv, message):
    # errors found while building the experiment are bad input, not crashes
    if not argv[0].endswith(".cfg"):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(MINIMAL)
        argv = [str(config_path), *argv]
    assert main(["run", *argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def idx_argv(tmp_path, train_labels, test_labels, images=None):
    """`run` arguments for a vanilla config on an IDX pair of 2x2 images."""
    rng = np.random.default_rng(0)
    img, lab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=4 * len(train_labels), dtype=np.uint8)),
        train_labels, "train")
    timg, tlab = write_idx_pair(
        tmp_path, list(rng.integers(0, 256, size=4 * len(test_labels), dtype=np.uint8)),
        test_labels, "test")
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
    theta0 = init_params(model, RngStream(cfg.seed, 0).generator())
    one_hot = Dataset(train_ds.inputs, np.eye(3)[train_ds.labels], 0)
    assert np.array_equal(stacks[0][0], gradient(model, theta0, one_hot))
