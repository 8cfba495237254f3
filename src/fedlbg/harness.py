"""Experiment front door: config parsing, algorithm-to-policy mapping,
ledger accounting, CSV emission, and the command-line interface.

Config files are line-oriented ``key = value`` with ``#`` comments and
sections ``[model] [data] [train] [lbgm] [compress]``. Every key is
validated against a schema; unknown or duplicate keys and out-of-range
values are rejected with the offending key and line number (or the
command-line override that set it).
"""

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analyzer, compressors, fl_core, lbgm
from .compressors import LowRankPayload, SignPayload, SparsePayload
from .fl_core import build_datasets
from .models import MODEL_KINDS
from .numerics import RngStream

ALGORITHMS = (
    "vanilla",
    "lbgm",
    "lbgm_sampled",
    "topk",
    "topk_lbgm",
    "rank_r",
    "rank_r_lbgm",
    "sign",
    "sign_lbgm",
    "centralized_analyze",
)


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    algorithm: str
    seed: int = 0
    out: str = "out"
    baseline_metrics: str = ""
    # [model]
    model_kind: str = "mlp1h"
    hidden: int = 64
    # [data]
    data_kind: str = "synth"
    n: int = 2000
    test_n: int = 500
    dim: int = 20
    classes: int = 10
    separation: float = 6.0
    images: str = ""
    labels: str = ""
    test_images: str = ""
    test_labels: str = ""
    subset: int = 0
    test_subset: int = 0
    # [train]
    workers: int = 10
    rounds: int = 200
    tau: int = 0  # 0: one shard pass
    batch_size: int = 32  # 0: full shard
    eta: float = 0.05
    eta_rule: str = "constant"
    partition_mode: str = "iid"
    # [lbgm]
    delta: float = 0.2
    monitor_delta_sq: bool = True
    sample_fraction: float = 0.5
    # [compress]
    k_frac: float = 0.1
    rank: int = 2
    sign_majority: bool = False
    error_feedback: bool = True


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


def _choice(*options):
    def check(v):
        return v in options
    return check, f"one of {{{', '.join(options)}}}"


def _partition_ok(v):
    try:
        from .data import parse_partition_mode
        parse_partition_mode(v)
        return True
    except ValueError:
        return False


# (section, key) -> (config field, parser, validator, requirement text)
_SCHEMA = {
    ("", "algorithm"): ("algorithm", str, *_choice(*ALGORITHMS)),
    ("", "seed"): ("seed", int, lambda v: v >= 0, ">= 0"),
    ("", "out"): ("out", str, lambda v: bool(v), "non-empty"),
    ("", "baseline_metrics"): ("baseline_metrics", str, lambda v: True, ""),
    ("model", "kind"): ("model_kind", str, *_choice(*MODEL_KINDS)),
    ("model", "hidden"): ("hidden", int, lambda v: v >= 1, ">= 1"),
    ("data", "kind"): ("data_kind", str, *_choice("synth", "idx")),
    ("data", "n"): ("n", int, lambda v: v >= 1, ">= 1"),
    ("data", "test_n"): ("test_n", int, lambda v: v >= 1, ">= 1"),
    ("data", "dim"): ("dim", int, lambda v: v >= 1, ">= 1"),
    ("data", "classes"): ("classes", int, lambda v: v >= 2, ">= 2"),
    ("data", "separation"): ("separation", float, lambda v: v >= 0, ">= 0"),
    ("data", "images"): ("images", str, lambda v: True, ""),
    ("data", "labels"): ("labels", str, lambda v: True, ""),
    ("data", "test_images"): ("test_images", str, lambda v: True, ""),
    ("data", "test_labels"): ("test_labels", str, lambda v: True, ""),
    ("data", "subset"): ("subset", int, lambda v: v >= 0, ">= 0"),
    ("data", "test_subset"): ("test_subset", int, lambda v: v >= 0, ">= 0"),
    ("train", "workers"): ("workers", int, lambda v: v >= 1, ">= 1"),
    ("train", "rounds"): ("rounds", int, lambda v: v >= 0, ">= 0"),
    ("train", "tau"): ("tau", int, lambda v: v >= 0, ">= 0 (0 = one shard pass)"),
    ("train", "batch_size"): ("batch_size", int, lambda v: v >= 0, ">= 0 (0 = full shard)"),
    ("train", "eta"): ("eta", float, lambda v: v > 0, "> 0"),
    ("train", "eta_rule"): ("eta_rule", str, *_choice("constant", "inv_sqrt_tau_t")),
    ("train", "partition"): ("partition_mode", str, _partition_ok, "iid or label_shard(s)"),
    ("lbgm", "delta"): ("delta", float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("lbgm", "monitor_delta_sq"): ("monitor_delta_sq", _parse_bool, lambda v: True, ""),
    ("lbgm", "sample_fraction"): ("sample_fraction", float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("compress", "k_frac"): ("k_frac", float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("compress", "rank"): ("rank", int, lambda v: v >= 1, ">= 1"),
    ("compress", "sign_majority"): ("sign_majority", _parse_bool, lambda v: True, ""),
    ("compress", "error_feedback"): ("error_feedback", _parse_bool, lambda v: True, ""),
}

_SECTIONS = ("model", "data", "train", "lbgm", "compress")


def _parse_pairs(text: str) -> dict:
    """Split config text into {(section, key): (raw value, where it was set)}."""
    pairs = {}
    section = ""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}] (line {lineno})")
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value (line {lineno})")
        key, raw = (part.strip() for part in line.split("=", 1))
        if (section, key) not in _SCHEMA:
            where = f"[{section}] " if section else ""
            raise ConfigError(f"unknown key {where}{key} (line {lineno})")
        if (section, key) in pairs:
            raise ConfigError(f"duplicate key {key} (line {lineno})")
        pairs[(section, key)] = (raw, f"line {lineno}")
    return pairs


def _build_config(pairs: dict) -> ExperimentConfig:
    values = {}
    for (section, key), (raw, where) in pairs.items():
        field, parser, check, req = _SCHEMA[(section, key)]
        try:
            value = parser(raw)
        except ValueError:
            raise ConfigError(
                f"{key}: cannot parse {raw!r} as {parser.__name__} ({where})"
            ) from None
        if not check(value):
            raise ConfigError(f"{key}: value {raw!r} must be {req} ({where})")
        values[field] = value
    if "algorithm" not in values:
        raise ConfigError("missing required key: algorithm")
    cfg = ExperimentConfig(**values)
    if cfg.data_kind == "idx":
        for field in ("images", "labels", "test_images", "test_labels"):
            if not getattr(cfg, field):
                raise ConfigError(f"{field}: required when data kind = idx")
    return cfg


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a config document."""
    return _build_config(_parse_pairs(text))


def apply_overrides(pairs: dict, overrides) -> dict:
    """Merge 'section.key=value' (or top-level 'key=value') strings in."""
    merged = dict(pairs)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        path, raw = (part.strip() for part in item.split("=", 1))
        section, _, key = path.rpartition(".")
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"override names unknown key {path!r}")
        merged[(section, key)] = (raw, f"--override {item}")
    return merged


def policy_for(cfg: ExperimentConfig, model):
    """The uplink policy of a federated algorithm, built for this model:
    raw gradients for vanilla/lbgm/lbgm_sampled, compressed payloads for
    topk/rank_r/sign, gated by the look-back threshold in the _lbgm ones."""
    if cfg.algorithm in ("vanilla", "lbgm", "lbgm_sampled"):
        return lbgm.LbgmPolicy(None if cfg.algorithm == "vanilla" else cfg.delta)
    base = cfg.algorithm.removesuffix("_lbgm")
    delta = cfg.delta if cfg.algorithm.endswith("_lbgm") else None
    m = model.param_dim
    k = max(1, min(m, int(round(cfg.k_frac * m))))
    compress = {
        "topk": lambda g: compressors.topk(g, k),
        "rank_r": lambda g: compressors.rank_r(g, model.layer_shapes, cfg.rank),
        "sign": compressors.sign_compress,
    }[base]
    return compressors.CompressedPolicy(
        compress, delta, error_feedback=(base == "topk" and cfg.error_feedback),
        server_transform=(compressors.majority_sign
                          if base == "sign" and cfg.sign_majority else None),
    )


@contextmanager
def _building():
    """Report a ValueError raised while an experiment is built from its
    config (bad data, or settings that do not fit it) as a ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def simulate(cfg: ExperimentConfig) -> fl_core.RunResult:
    """Build the experiment and its uplink policy, then run every round.
    Errors found while building raise ConfigError."""
    with _building():
        setup = fl_core.build_experiment(cfg)
    fraction = cfg.sample_fraction if cfg.algorithm == "lbgm_sampled" else None
    return fl_core.run_with_policy(setup, policy_for(cfg, setup.model), fraction)


def ledger_cost(msg) -> tuple:
    """Accounting definition: (floats, bits) for one uplink message.

    Recomputed from the sizes of the message's arrays, independently of the
    payloads' own cost_floats, so ledgers can be audited against it.
    """
    p = msg.payload
    if p is None:
        return 1.0, 32.0
    if isinstance(p, lbgm.DensePayload):
        m = p.values.shape[0]
        return float(m), 32.0 * m
    if isinstance(p, SparsePayload):
        k = len(p.indices)
        return 2.0 * k, 64.0 * k
    if isinstance(p, SignPayload):
        return p.dim / 32.0, float(p.dim)
    if isinstance(p, LowRankPayload):
        f = float(sum(a.size for _, *arrays in p.blocks for a in arrays))
        return f, 32.0 * f
    raise ValueError(f"cannot cost message with payload {type(p).__name__}")


def _write(path: Path, text: str):
    path.write_text(text)


def _matrix_csv(mat: np.ndarray) -> str:
    return "\n".join(",".join(repr(float(v)) for v in row) for row in mat) + "\n"


def _run_analyzer(cfg: ExperimentConfig, out_dir: Path) -> int:
    with _building():
        train_ds, _ = build_datasets(cfg)
        model, (train_ds,) = fl_core.fit_targets(cfg, (train_ds,))
    rng = RngStream(cfg.seed, 0).generator()
    grads, progression = analyzer.record_centralized(
        model, train_ds, cfg.rounds, cfg.eta, cfg.batch_size, rng
    )
    lines = ["epoch,n95,n99"]
    lines += [f"{e},{n95},{n99}" for e, n95, n99 in progression]
    _write(out_dir / "npca.csv", "\n".join(lines) + "\n")
    if len(grads):
        dirs = analyzer.pgd(grads, 0.99)
        _write(out_dir / "overlap.csv", _matrix_csv(analyzer.overlap_matrix(grads, dirs)))
        _write(out_dir / "similarity.csv", _matrix_csv(analyzer.similarity_matrix(grads)))
    else:
        _write(out_dir / "overlap.csv", "")
        _write(out_dir / "similarity.csv", "")
    final = progression[-1] if progression else (0, 0, 0)
    print(f"centralized_analyze: epochs={cfg.rounds} n95={final[1]} n99={final[2]} -> {out_dir}")
    return 0


def _write_run(out_dir: Path, result: fl_core.RunResult):
    _write(out_dir / "metrics.csv", result.metrics.to_csv())
    _write(out_dir / "ledger.csv", result.ledger.to_csv())


def _run_federated(cfg: ExperimentConfig, out_dir: Path) -> int:
    try:
        result = simulate(cfg)
    except fl_core.Diverged as exc:
        _write_run(out_dir, exc.partial)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_run(out_dir, result)

    final = result.metrics.final()
    summary = (
        f"{cfg.algorithm}: rounds={final.round} test_metric={final.test_metric:.4f} "
        f"total_floats={final.cum_floats:.6g}"
    )
    if cfg.baseline_metrics:
        try:
            base_floats = _final_cum_floats(Path(cfg.baseline_metrics))
        except (OSError, ValueError, IndexError) as exc:
            print(f"warning: cannot read baseline metrics: {exc}", file=sys.stderr)
            base_floats = 0.0
        if base_floats > 0:
            savings = 1.0 - final.cum_floats / base_floats
            summary += f" savings_vs_baseline={100.0 * savings:.1f}%"
    print(summary + f" -> {out_dir}")
    return 0


def run(cfg: ExperimentConfig) -> int:
    """Run one experiment, write its output files, print a summary.

    Returns the exit status: 0 on success, 1 on an I/O error, 2 on bad data
    or settings found while building the experiment, 3 when the run diverges
    (a federated run keeps the rows of its completed rounds).
    """
    try:
        out_dir = Path(cfg.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # divergence is reported once, by the finite checks of the models and
        # the round engine, not by numpy's overflow warnings on the way there
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.algorithm == "centralized_analyze":
                return _run_analyzer(cfg, out_dir)
            return _run_federated(cfg, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:  # the analyzer keeps no partial output
        print(f"error: run diverged: {exc}", file=sys.stderr)
        return 3


def _final_cum_floats(metrics_path: Path) -> float:
    lines = metrics_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    col = header.index("cum_floats")
    return float(lines[-1].split(",")[col])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fedlbg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--seed", type=int, default=None, help="override the master seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    runp.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override a config key, e.g. train.rounds=50",
    )
    args = parser.parse_args(argv)

    try:
        pairs = apply_overrides(_parse_pairs(Path(args.config).read_text()), args.override)
        if args.seed is not None:
            pairs[("", "seed")] = (str(args.seed), f"--seed {args.seed}")
        if args.out is not None:
            pairs[("", "out")] = (args.out, f"--out {args.out}")
        cfg = _build_config(pairs)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
