"""Benchmark of the fedlbg simulator.

Run from the repository root:

    python3 bench/run.py --workload lbgm_minibatch [--seed N] [--seconds S] [--trace 0|1]

Workloads (why each was chosen is in BENCHMARK.json):

* lbgm_minibatch        configs/lbgm_noniid.cfg as shipped
* rank_stack_fullshard  the same with algorithm = rank_r_lbgm, full-shard batches
* analyze_centralized   configs/analyze.cfg at 300 epochs

The program gets only the config text generated from bench/configs/ and the
seed; its sources are imported from ./src. Each repeat is one call of
``harness.run``, closed-loop, in this process, with BLAS pinned to one
thread. Every output file of every repeat is checked against golden sha256
digests (bench/golden.json) where the seed has them, against the first
repeat of the same seed otherwise, and for internal consistency.

With ``--trace 0`` the run reports the end-to-end metrics. It cycles through
SEEDS_PER_RUN consecutive config seeds starting at --seed, so that the
reported uplink volume is a median over several inputs. While each repeat
runs, SpeedProbe times a tiny fixed computation many times, and the repeat's
times are scaled by how much slower than PROBE_S it ran: the times are
reported in seconds of a machine running at the probe's speed, so that the
changing speed of a shared machine cancels (see README.md, "Steadiness").

With ``--trace 1`` the run uses the config seed --seed only, alternating
untraced repeats and repeats with the timing wrappers of spans.py, and
reports the per-layer metrics; its times are not scaled.
The last line of standard output is the result as one JSON object.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import string
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

# workload -> (config template, shipped seed, federated)
WORKLOADS = {
    "lbgm_minibatch": ("lbgm_minibatch.cfg", 3, True),
    "rank_stack_fullshard": ("rank_stack_fullshard.cfg", 3, True),
    "analyze_centralized": ("analyze_centralized.cfg", 0, False),
}
OUTPUT_FILES = {
    True: ("metrics.csv", "ledger.csv"),
    False: ("npca.csv", "overlap.csv", "similarity.csv"),
}

SEEDS_PER_RUN = 12  # config seeds per untraced run
MIN_REPEATS = 3  # timed repeats even when --seconds is shorter

# SpeedProbe samples every PROBE_INTERVAL_S. PROBE_S is about its mean
# sample time on a 2-core Xeon VM (numpy 2.4.6, OpenBLAS 0.3.31, one thread)
# when nothing else slows it: the speed the end-to-end times are scaled to.
PROBE_INTERVAL_S = 0.025
PROBE_S = 0.0006

# per-layer units that are counts, or ratios of counts: they must repeat exactly
EXACT_UNITS = ("count", "ratio", "calls/uplink")

IMPORT_PROBE = "import time; t = time.perf_counter(); import fedlbg; print(time.perf_counter() - t)"


def load_fedlbg():
    """Pin BLAS to one thread, import fedlbg from ./src, and return its
    modules by short name."""
    if not (SRC / "fedlbg" / "__init__.py").is_file():
        sys.exit(f"error: no fedlbg sources under {SRC}")
    # before numpy is imported, here or in a child process
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fedlbg
    from fedlbg import analyzer, compressors, data, fl_core, harness, lbgm, models, numerics

    if Path(fedlbg.__file__).resolve().parent != (SRC / "fedlbg").resolve():
        sys.exit(f"error: imported fedlbg from {fedlbg.__file__}, not from {SRC}")
    return {
        "analyzer": analyzer, "compressors": compressors, "data": data,
        "fl_core": fl_core, "harness": harness, "lbgm": lbgm,
        "models": models, "numerics": numerics,
    }


def machine_info():
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def config_text(workload, seed, out_dir):
    template = (BENCH / "configs" / WORKLOADS[workload][0]).read_text()
    return string.Template(template).substitute(seed=seed, out=out_dir)


def import_seconds():
    """Time `import fedlbg` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def setup_once(m, workload, seed):
    """Parse the config and build what round 1 needs, as harness.run would.

    Returns (parse + build seconds, build seconds, model dimension M)."""
    federated = WORKLOADS[workload][2]
    text = config_text(workload, seed, OUT / workload / f"seed{seed}")
    t0 = perf_counter()
    cfg = m["harness"].parse_config(text)
    t1 = perf_counter()
    if federated:
        dim = m["fl_core"].build_experiment(cfg).model.param_dim
    else:
        train_ds, _ = m["fl_core"].build_datasets(cfg)
        out_dim = train_ds.num_classes if train_ds.num_classes > 0 else 1
        dim = m["models"].build_model(cfg.model_kind, train_ds.dim, out_dim, cfg.hidden).param_dim
    t2 = perf_counter()
    return t2 - t0, t2 - t1, dim


def run_once(m, workload, seed, tracer=None, layers=True, probe=None):
    """One closed-loop repeat. Returns (run_s, return code, config, out dir).

    With a SpeedProbe, run_s is the wall time less the probe's own time,
    divided by the probe's slowdown."""
    out_dir = OUT / workload / f"seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in OUTPUT_FILES[WORKLOADS[workload][2]]:
        (out_dir / name).unlink(missing_ok=True)
    gc.collect()
    patches = tracer.install(m, layers) if tracer else None
    try:
        cfg = m["harness"].parse_config(config_text(workload, seed, out_dir))
        with contextlib.redirect_stdout(io.StringIO()), probe or contextlib.nullcontext():
            t0 = perf_counter()
            rc = m["harness"].run(cfg)
            elapsed = perf_counter() - t0
    finally:
        if patches:
            patches.undo()
    if probe:
        elapsed = (elapsed - sum(probe.durations)) / probe.slowdown()
    return elapsed, rc, cfg, out_dir


def digests(files, out_dir):
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in files if (out_dir / name).is_file()}


def _csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()]


def federated_problems(cfg, out_dir):
    """Consistency of metrics.csv with ledger.csv."""
    metrics = _csv_rows(out_dir / "metrics.csv")
    ledger = _csv_rows(out_dir / "ledger.csv")
    problems = []
    if metrics[0] != ["round", "train_loss", "test_metric", "cum_floats", "cum_bits",
                      "scalar_fraction", "delta_sq_proxy"]:
        problems.append(f"metrics.csv header {metrics[0]}")
    rows = metrics[1:]
    if [int(r[0]) for r in rows] != list(range(cfg.rounds + 1)):
        problems.append("metrics.csv does not hold rounds 0..T")
    sent = ledger[1:]
    if len(sent) != cfg.rounds * cfg.workers:
        problems.append(f"ledger.csv has {len(sent)} rows, expected {cfg.rounds * cfg.workers}")
    if sum(float(r[2]) for r in sent) != float(rows[-1][3]):
        problems.append("ledger floats do not sum to the final cum_floats")
    scalars = [0] * (cfg.rounds + 1)
    for r in sent:
        scalars[int(r[0])] += float(r[2]) == 1.0
    for r in rows[1:]:
        if scalars[int(r[0])] / cfg.workers != float(r[5]):
            problems.append(f"round {r[0]}: scalar_fraction disagrees with the ledger")
            break
    return problems


def analyzer_problems(cfg, out_dir):
    """Shape and self-consistency of the analyzer's CSVs."""
    npca = _csv_rows(out_dir / "npca.csv")
    sim = [[float(v) for v in r] for r in _csv_rows(out_dir / "similarity.csv")]
    overlap = [[float(v) for v in r] for r in _csv_rows(out_dir / "overlap.csv")]
    t = cfg.rounds
    problems = []
    if npca[0] != ["epoch", "n95", "n99"] or [int(r[0]) for r in npca[1:]] != list(range(t)):
        problems.append("npca.csv does not hold epochs 0..T-1")
    if any(not 1 <= int(r[1]) <= int(r[2]) for r in npca[1:]):
        problems.append("npca.csv has n95 > n99 or a zero count")
    if len(sim) != t or any(len(r) != t for r in sim):
        problems.append("similarity.csv is not T x T")
    elif any(sim[i][i] != 1.0 or sim[i][j] != sim[j][i] for i in range(t) for j in range(i)):
        problems.append("similarity.csv is not symmetric with a unit diagonal")
    if len(overlap) != t or any(not r or any(abs(v) > 1.0 for v in r) for r in overlap):
        problems.append("overlap.csv is not T rows of cosines")
    return problems


class Checker:
    """Checks every repeat's outputs and counts the failures."""

    def __init__(self, workload):
        self.workload = workload
        self.federated = WORKLOADS[workload][2]
        self.golden = json.loads(GOLDEN.read_text()).get(workload, {}) if GOLDEN.is_file() else {}
        self.reference = {}  # config seed -> digests every repeat must match
        self.count_reference = {}  # config seed -> counts every traced repeat must match
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def golden_seeds(self, seeds):
        return [s for s in seeds if str(s) in self.golden]

    def check(self, seed, attempt, more_problems=None):
        """Run `attempt()` (-> run_once's result) and check what it wrote,
        and what `more_problems()` finds after it.

        Returns (run_s, config, out_dir), or None if the repeat raised."""
        self.attempted += 1
        try:
            elapsed, rc, cfg, out_dir = attempt()
            found = self._problems(seed, rc, cfg, out_dir)
            if more_problems is not None:
                found += more_problems()
        except Exception:  # a failed repeat is counted, and the run goes on
            self.failed += 1
            self.problems.append(f"seed {seed}: {traceback.format_exc()}")
            return None
        if found:
            self.failed += 1
            self.problems += [f"seed {seed}: {p}" for p in found]
        return elapsed, cfg, out_dir

    def _problems(self, seed, rc, cfg, out_dir):
        if rc != 0:
            return [f"harness.run returned {rc}"]
        files = OUTPUT_FILES[self.federated]
        got = digests(files, out_dir)
        if len(got) != len(files):
            return [f"missing outputs {sorted(set(files) - set(got))}"]
        golden = self.golden.get(str(seed), {}).get("digests")
        expected = self.reference.setdefault(seed, golden or got)
        found = [f"{name} sha256 {got[name]} != {expected[name]}"
                 for name in files if got[name] != expected[name]]
        check = federated_problems if self.federated else analyzer_problems
        return found + check(cfg, out_dir)

    def count_drift(self, seed, values, exact):
        """Count metrics must repeat exactly, and match the golden counts."""
        golden = self.golden.get(str(seed), {}).get("counts")
        expected = self.count_reference.setdefault(seed, golden or {k: values[k] for k in exact})
        return [f"count drift: {k} = {values[k]}, expected {expected.get(k)}"
                for k in exact if values[k] != expected.get(k)]


class SpeedProbe:
    """Measures the speed the machine runs this process at, during a repeat.

    A shared machine's speed changes within a second, by up to 1.6x, so a
    time measured next to a repeat misses part of what the repeat met.
    Inside the `with` block a SIGALRM handler runs every PROBE_INTERVAL_S:
    it times a tiny fixed computation that uses no fedlbg code (a small
    dense layer's forward and backward pass at batch 32 and a dict loop),
    on the same CPU, between two bytecodes of the program."""

    def __init__(self):
        import numpy

        rng = numpy.random.default_rng(0)
        self.np = numpy
        self.x = rng.standard_normal((32, 20))
        self.w1 = rng.standard_normal((20, 32))
        self.w2 = rng.standard_normal((32, 10))
        self.durations = []
        self.previous = None

    def __enter__(self):
        self.durations = []
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def _sample(self, signum, frame):
        np = self.np
        t0 = perf_counter()
        for _ in range(30):
            h = np.tanh(self.x @ self.w1)
            o = h @ self.w2
            (h.T @ (o - o.mean(axis=0))).sum()
        d = {}
        for i in range(1500):
            d[i & 255] = i
        self.durations.append(perf_counter() - t0)

    def slowdown(self):
        """Mean sample time of the last `with` block over PROBE_S."""
        if not self.durations:
            raise RuntimeError("the speed probe took no sample")
        return statistics.fmean(self.durations) / PROBE_S


def timed_loop(seconds, step, min_steps=MIN_REPEATS):
    """Call step() until the next call would likely end past `seconds`,
    and at least `min_steps` times."""
    start = perf_counter()
    took = []
    while len(took) < min_steps or perf_counter() - start + statistics.median(took) <= seconds:
        t0 = perf_counter()
        step()
        took.append(perf_counter() - t0)


def final_cum_floats(out_dir):
    return float(_csv_rows(out_dir / "metrics.csv")[-1][3])


def end_to_end(m, workload, seed, seconds, checker):
    """Untraced run over SEEDS_PER_RUN config seeds; the end-to-end metrics.

    Each repeat runs with the speed probe; the set-up times taken just
    before it are divided by its slowdown too."""
    federated = WORKLOADS[workload][2]
    seeds = [seed + j for j in range(SEEDS_PER_RUN)]
    steps, slowdowns, volume = [], [], {}
    probe = SpeedProbe()

    # warm-up, untimed, counting the samples one repeat passes to the gradient
    counter = spans.Tracer()
    checker.check(seeds[0], lambda: run_once(m, workload, seeds[0], counter, layers=False))
    samples = counter.counts["models.gradient.samples"]
    order = itertools.cycle(seeds)

    def step():
        s = next(order)
        # set-up samples are spread over the run, as the machine's speed drifts
        imported = import_seconds() if len(steps) % 2 == 0 else None
        setup = setup_once(m, workload, s)
        done = checker.check(s, lambda: run_once(m, workload, s, probe=probe))
        slowdowns.append(probe.slowdown() if probe.durations else 1.0)
        steps.append((imported, setup, done[0] if done else None))
        if done is not None:
            _, cfg, out_dir = done
            volume[s] = final_cum_floats(out_dir) if federated else cfg.rounds * setup[2]

    timed_loop(seconds, step, max(MIN_REPEATS, len(seeds)))
    imports = [t / k for k, (t, _, _) in zip(slowdowns, steps) if t is not None]
    setups = [t / k for k, (_, (t, _, _), _) in zip(slowdowns, steps)]
    builds = [b / k for k, (_, (_, b, _), _) in zip(slowdowns, steps)]
    run_s = [t for _, _, t in steps if t is not None]
    if not run_s or not samples or len(volume) != len(seeds):
        return None, {}
    median_run = statistics.median(run_s)
    build = statistics.median(builds)
    values = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "run_s": median_run,
        "samples_per_s": samples / (median_run - build),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "uplink_floats": statistics.median(volume.values()),
    }
    detail = {
        "seeds": seeds,
        "repeats": len(run_s),
        "probe_s": PROBE_S,
        "slowdown_each": slowdowns,
        "run_s_each": run_s,
        "import_s_each": imports,
        "setup_s_each": setups,
        "build_s_median": build,
        "gradient_samples_per_repeat": samples,
        "uplink_floats_per_seed": volume,
    }
    return values, detail


def layer_values(tracer):
    """Per-layer values of one traced repeat, 0 for a span it never
    entered, and the tail percentile used for each span."""
    stats = tracer.stats()
    values, tails = {}, {}
    for name in spans.SPANS:
        d = stats[name]["durations"] if name in stats else []
        tails[name] = spans.tail_percentile(len(d)) or 100.0
        values.update({
            f"{name}.calls": len(d),
            f"{name}.s": stats[name]["s"] if d else 0.0,
            f"{name}.self_s": stats[name]["self_s"] if d else 0.0,
            f"{name}.us_p50": spans.percentile(d, 50.0) * 1e6 if d else 0.0,
            f"{name}.us_tail": spans.percentile(d, tails[name]) * 1e6 if d else 0.0,
        })
    counts = tracer.counts
    uplinks = counts["lbgm.uplinks"]
    values.update({
        "models.gradient.samples": counts["models.gradient.samples"],
        "lbgm.uplinks": uplinks,
        "lbgm.uplinks.scalar": counts["lbgm.uplinks.scalar"],
        "lbgm.scalar_ratio": counts["lbgm.uplinks.scalar"] / uplinks if uplinks else 0.0,
        "numerics.dot.calls": counts["numerics.dot.calls"],
        "numerics.dot.per_uplink": counts["numerics.dot.calls"] / uplinks if uplinks else 0.0,
    })
    return values, tails


def per_layer(m, workload, seed, seconds, checker, wanted):
    """Alternate untraced and traced repeats of one config seed; the
    per-layer metrics. A layer the workload never calls reads 0."""
    exact = [name for name, unit in wanted.items() if unit in EXACT_UNITS]
    checker.check(seed, lambda: run_once(m, workload, seed))  # warm-up, untimed
    plain, traced, per_rep = [], [], []
    last = {}

    def step():
        done = checker.check(seed, lambda: run_once(m, workload, seed))
        if done is not None:
            plain.append(done[0])
        tracer = spans.Tracer()

        def drift():
            last["values"], last["tails"] = layer_values(tracer)
            return checker.count_drift(seed, last["values"], exact)

        done = checker.check(seed, lambda: run_once(m, workload, seed, tracer), drift)
        if done is not None:
            traced.append(done[0])
            per_rep.append(last["values"])
            last["tracer"] = tracer

    timed_loop(seconds, step)
    if not plain or not traced:
        return None, {}
    values = {}
    for name in wanted:
        if name == "trace.overhead_s":
            values[name] = statistics.median(traced) - statistics.median(plain)
        elif name == "failed_fraction":
            values[name] = checker.failed / checker.attempted
        elif name in exact:  # the same in every repeat, or the run failed
            values[name] = per_rep[-1][name]
        else:
            values[name] = statistics.median(rep[name] for rep in per_rep)
    spans_csv = OUT / workload / f"spans-seed{seed}.csv"
    last["tracer"].write_csv(spans_csv)
    detail = {
        "seeds": [seed],
        "repeats": {"untraced": len(plain), "traced": len(traced)},
        "run_s_untraced_each": plain,
        "run_s_traced_each": traced,
        "us_tail_percentile": last["tails"],
        "spans_csv": str(spans_csv.relative_to(ROOT)),
    }
    return values, detail


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="first config seed (default: the shipped config's seed)")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload][1] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    m = load_fedlbg()
    machine = machine_info()
    print("machine " + json.dumps(machine), flush=True)
    checker = Checker(args.workload)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in spec[section]}
    if args.trace:
        values, detail = per_layer(m, args.workload, seed, args.seconds, checker, wanted)
    else:
        values, detail = end_to_end(m, args.workload, seed, args.seconds, checker)

    for problem in checker.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if values is None:
        print("error: no repeat completed; no result", file=sys.stderr)
        return 1
    golden = checker.golden_seeds(detail["seeds"])
    print(f"workload {args.workload} config seeds {detail['seeds']}: golden digests for "
          f"{golden or 'none'}, repeats {detail['repeats']}, "
          f"failed {checker.failed} of {checker.attempted}")
    for name, unit in wanted.items():
        print(f"{name:36s} {values[name]:>16.6f} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    (OUT / args.workload / f"result-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "workload": args.workload, **detail,
                    "problems": checker.problems, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
