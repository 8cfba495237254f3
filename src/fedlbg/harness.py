"""Experiment front door: config parsing, algorithm-to-policy mapping,
output files, and the command-line interface.

Config files are line-oriented ``key = value`` with ``#`` comments (from
a ``#`` that starts a line or follows whitespace) and sections
``[model] [data] [train] [lbgm] [compress]``. Every key is one field of
ExperimentConfig, which gives its section, default, type and check;
unknown or duplicate keys and unparsable, out-of-range or non-finite
values are rejected with the offending key and line number (or the
command-line flag that set it). `parse_config` is the one path from config
text to an ExperimentConfig: the command line passes it its ``--override``,
``--seed`` and ``--out`` flags as overrides, and every value is stripped
wherever it is set. A frozen ExperimentConfig applies the same rule per
field when it is made, so one made in Python or by `dataclasses.replace`
raises ConfigError naming the field. `run` pins BLAS to one thread.

Every output CSV is written by `_write`, line by line as `fl_core.csv_text`
formats its rows, once a federated run has ended (a diverged one keeps its
completed rounds) or the whole analysis has succeeded; no file's whole text
is held.
"""

import argparse
import math
import numbers
import re
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analyzer, compressors, fl_core, lbgm
from .data import parse_partition_mode
from .fl_core import build_datasets
from .models import MODEL_KINDS, unpack
from .numerics import one_blas_thread, rng_stream

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


def _key(section, default, check=lambda v: True, req="", key=None):
    """A config key, declared once as an ExperimentConfig field: its default,
    its section, the check on its parsed value and that check's requirement
    text. `key` names the key where it differs from the field."""
    return field(default=default,
                 metadata={"section": section, "key": key, "check": check, "req": req})


def _one_of(*options):
    return (lambda v: v in options), f"one of {{{', '.join(options)}}}"


# the type a field's value must have; a bool, though an int, fits only a bool field
_TYPES = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str}


def _violation(f, value):
    """The requirement of field `f` that `value` fails, or None: its type, then
    its declared check (which fails by raising ValueError too), then finiteness."""
    if not isinstance(value, _TYPES[f.type]) or isinstance(value, bool) != (f.type is bool):
        return f"of type {f.type.__name__}"
    try:
        ok = f.metadata["check"](value)
    except ValueError:
        ok = False
    if not ok:
        return f.metadata["req"]
    try:
        finite = f.type is not float or math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    return None if finite else "finite"


def _shown(value) -> str:
    """The repr of a value for an error message. An int past
    sys.get_int_max_str_digits() has none, so it is shown by its size."""
    try:
        return repr(value)
    except ValueError:
        return f"<int of {value.bit_length()} bits>"


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = _key("", MISSING, *_one_of(*ALGORITHMS))
    seed: int = _key("", 0, lambda v: v >= 0, ">= 0")
    out: str = _key("", "out", lambda v: bool(v), "non-empty")
    baseline_metrics: str = _key("", "")
    model_kind: str = _key("model", "mlp1h", *_one_of(*MODEL_KINDS), key="kind")
    hidden: int = _key("model", 64, lambda v: v >= 1, ">= 1")
    data_kind: str = _key("data", "synth", *_one_of("synth", "idx"), key="kind")
    n: int = _key("data", 2000, lambda v: v >= 1, ">= 1")
    test_n: int = _key("data", 500, lambda v: v >= 1, ">= 1")
    dim: int = _key("data", 20, lambda v: v >= 1, ">= 1")
    classes: int = _key("data", 10, lambda v: v >= 2, ">= 2")
    separation: float = _key("data", 6.0, lambda v: v >= 0, ">= 0")
    images: str = _key("data", "")
    labels: str = _key("data", "")
    test_images: str = _key("data", "")
    test_labels: str = _key("data", "")
    subset: int = _key("data", 0, lambda v: v >= 0, ">= 0")
    test_subset: int = _key("data", 0, lambda v: v >= 0, ">= 0")
    workers: int = _key("train", 10, lambda v: v >= 1, ">= 1")
    rounds: int = _key("train", 200, lambda v: v >= 0, ">= 0")
    tau: int = _key("train", 0, lambda v: v >= 0, ">= 0 (0 = one shard pass)")
    batch_size: int = _key("train", 32, lambda v: v >= 0, ">= 0 (0 = full shard)")
    eta: float = _key("train", 0.05, lambda v: v > 0, "> 0")
    eta_rule: str = _key("train", "constant", *_one_of("constant", "inv_sqrt_tau_t"))
    partition_mode: str = _key("train", "iid", parse_partition_mode, "iid or label_shard(s)",
                               key="partition")
    delta: float = _key("lbgm", 0.2, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
    sample_fraction: float = _key("lbgm", 0.5, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    k_frac: float = _key("compress", 0.1, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    rank: int = _key("compress", 2, lambda v: v >= 1, ">= 1")
    sign_majority: bool = _key("compress", False)
    error_feedback: bool = _key("compress", True)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if req := _violation(f, value):
                raise ConfigError(f"{f.name}: value {_shown(value)} must be {req}")
        for name in ("images", "labels", "test_images", "test_labels"):
            if self.data_kind == "idx" and not getattr(self, name):
                raise ConfigError(f"{name}: required when data kind = idx")
        # synth data draws its train and test sets as one set of n + test_n
        if self.data_kind == "synth" and self.n + self.test_n < self.classes:
            raise ConfigError(f"n, test_n: n + test_n = {self.n} + {self.test_n} must be "
                              f">= classes = {self.classes} for synth data")


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError("expected a boolean")


# (section, key) -> the ExperimentConfig field that declares it
_SCHEMA = {(f.metadata["section"], f.metadata["key"] or f.name): f
           for f in fields(ExperimentConfig)}
_SECTIONS = {section for section, _ in _SCHEMA if section}


_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_pairs(text: str) -> dict:
    """Split config text into {(section, key): (raw value, where it was set)}."""
    pairs = {}
    section = ""
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw_line, 1)[0].strip()
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


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse and fully validate a config document, with `overrides` merged
    in: (item, where) pairs, where item is 'section.key=value' (or
    'key=value' for a top-level key) and `where` is the flag text that
    errors name instead of a line number."""
    pairs = _parse_pairs(text)
    for item, where in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        path, raw = (part.strip() for part in item.split("=", 1))
        section, _, key = path.rpartition(".")
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"override names unknown key {path!r}")
        pairs[(section, key)] = (raw, where)
    values = {}
    for (section, key), (raw, where) in pairs.items():
        f = _SCHEMA[(section, key)]
        parse = _parse_bool if f.type is bool else f.type
        try:
            value = parse(raw)
        except ValueError:
            raise ConfigError(
                f"{key}: cannot parse {raw!r} as {f.type.__name__} ({where})"
            ) from None
        if req := _violation(f, value):
            raise ConfigError(f"{key}: value {raw!r} must be {req} ({where})")
        values[f.name] = value
    if "algorithm" not in values:
        raise ConfigError("missing required key: algorithm")
    return ExperimentConfig(**values)


def policy_for(cfg: ExperimentConfig, model):
    """The uplink policy of a federated algorithm, built for this model:
    raw gradients for vanilla/lbgm/lbgm_sampled, compressed payloads for
    topk/rank_r/sign, gated by the look-back threshold in the _lbgm ones."""
    if cfg.algorithm in ("vanilla", "lbgm", "lbgm_sampled"):
        return lbgm.LbgmPolicy(None if cfg.algorithm == "vanilla" else cfg.delta)
    base = cfg.algorithm.removesuffix("_lbgm")
    delta = cfg.delta if cfg.algorithm.endswith("_lbgm") else None
    m = model.param_dim
    k = max(1, int(round(cfg.k_frac * m)))
    compress = {
        "topk": lambda g: compressors.topk(g, k),
        "rank_r": lambda g: compressors.rank_r(unpack(model, g), cfg.rank),
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
    fraction = cfg.sample_fraction if cfg.algorithm == "lbgm_sampled" else 1.0
    return fl_core.run_with_policy(setup, policy_for(cfg, setup.model), fraction)


def _write(path: Path, lines):
    """Write a file from its lines as they are made, so that neither its
    whole text nor its encoded bytes are ever held. Creates the directory
    it goes in, so a run that writes nothing leaves none. A regular file in
    the way of that directory is reported as an error of the `out` key."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise OSError(f"out: cannot make the output directory "
                      f"{str(path.parent)!r}: {exc.strerror}") from None
    with open(path, "w") as f:
        f.writelines(lines)


def _matrix_csv(mat: np.ndarray):
    """The CSV lines of a float64 matrix, each cell its repr (fl_core.csv_text),
    formatted one row at a time as they are written. A square matrix that is
    bitwise symmetric has each cell on or right of the diagonal formatted
    once, its text reused for the mirror cell; the bitwise test keeps the two
    texts of a 0.0 / -0.0 mirror pair."""
    bits = mat.view(np.uint64)
    if mat.shape[0] == mat.shape[1] and np.array_equal(bits, bits.T):
        return fl_core.csv_text(_symmetric_rows(mat), cell=None)
    # one row at a time: a whole-matrix tolist() holds every float at once
    return fl_core.csv_text(row.tolist() for row in mat)


def _symmetric_rows(mat: np.ndarray):
    """The cell texts of a symmetric matrix, row by row. Each earlier row
    keeps the texts of its cells right of the diagonal, last column first,
    and gives one up to each later row, so a text is dropped once its mirror
    has used it."""
    tails = []
    for i, row in enumerate(mat):
        cells = list(map(repr, row[i:].tolist()))
        yield [tail.pop() for tail in tails] + cells
        cells.reverse()
        cells.pop()  # the diagonal
        tails.append(cells)


def _run_analyzer(cfg: ExperimentConfig, out_dir: Path) -> int:
    with _building():
        train_ds, _ = build_datasets(cfg)
        model, (train_ds,) = fl_core.fit_targets(cfg, (train_ds,))
    # nothing is written until every part of the analysis has succeeded
    rows, overlap, similarity = analyzer.analyze(
        model, train_ds, cfg.rounds, cfg.eta, cfg.batch_size, rng_stream(cfg.seed, 0)
    )
    _write(out_dir / "npca.csv", fl_core.csv_text(rows, "epoch,n95,n99"))
    _write(out_dir / "overlap.csv", _matrix_csv(overlap))
    _write(out_dir / "similarity.csv", _matrix_csv(similarity))
    final = rows[-1] if rows else (0, 0, 0)
    print(f"centralized_analyze: epochs={cfg.rounds} n95={final[1]} n99={final[2]} -> {out_dir}")
    return 0


def _write_run(out_dir: Path, result: fl_core.RunResult):
    _write(out_dir / "metrics.csv", result.metrics.csv_lines())
    _write(out_dir / "ledger.csv", result.ledger.csv_lines())


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
    or settings found while building the experiment or an experiment too
    large to allocate, 3 when the run diverges
    or a decomposition does not converge (a federated run keeps the rows of
    its completed rounds). The output directory is made by the first file
    written, so a run that writes none leaves none, and an `out` that
    cannot be written is reported once the run has ended.
    """
    out_dir = Path(cfg.out)
    try:
        # divergence is reported once, by the finite checks of the models and
        # the round engine, not by numpy's overflow warnings on the way there
        with np.errstate(over="ignore", invalid="ignore"), one_blas_thread():
            if cfg.algorithm == "centralized_analyze":
                return _run_analyzer(cfg, out_dir)
            return _run_federated(cfg, out_dir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: cannot allocate memory: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:  # the analyzer's
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

    overrides = [(item, f"--override {item}") for item in args.override]
    if args.seed is not None:
        overrides.append((f"seed={args.seed}", f"--seed {args.seed}"))
    if args.out is not None:
        overrides.append((f"out={args.out}", f"--out {args.out}"))
    try:
        # a byte-order mark, as some editors save one, is not part of line 1
        text = Path(args.config).read_text(encoding="utf-8").removeprefix("\ufeff")
        cfg = parse_config(text, overrides)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {args.config}: not UTF-8 text ({exc.reason} at byte {exc.start})",
              file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
