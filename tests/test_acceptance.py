"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavy federated runs are shared across criteria through a small
module-level cache.
"""

import math
import time
from dataclasses import replace

import numpy as np

from fedlbg import analyzer, compressors, harness, lbgm
from fedlbg.data import Dataset, synth_classification
from fedlbg.fl_core import aggregate, build_experiment, local_round, run_with_policy
from fedlbg.harness import ExperimentConfig, policy_for, simulate
from fedlbg.lbgm import LbgmPolicy, lbc, lbp_error, reconstruct
from fedlbg.models import build_model, gradient, init_params
from fedlbg.numerics import dot, norm_sq, rng_stream
from gradcheck import fd_check
from ledger_oracle import ledger_cost
from spectrum_oracle import prefix_rows
from support import CONFIGS

_cache = {}


def _report(num: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def standalone_config(**kw):
    """Desk-scale benchmark: 10 workers, non-iid label shards, 10-class blobs."""
    cfg = dict(
        algorithm="lbgm", seed=3, n=2000, test_n=500, dim=20, classes=10,
        separation=6.0, workers=10, rounds=200, batch_size=32, eta=0.05,
        hidden=32, partition_mode="label_shard(3)", model_kind="mlp1h", delta=0.2,
    )
    cfg.update(kw)
    return ExperimentConfig(**cfg)


def cached_run(key, fn):
    if key not in _cache:
        _cache[key] = fn()
    return _cache[key]


def test_c01_projection_identity_suite():
    start = time.monotonic()
    rng = rng_stream(4, 0)
    worst_pyth = 0.0
    worst_orth = 0.0
    for dim in (2, 10, 10**4):
        for _ in range(1000):
            g = rng.standard_normal(dim)
            lbg = rng.standard_normal(dim)
            rho = lbc(g, lbg)
            resid = g - rho * lbg
            rhs = norm_sq(g) * lbp_error(g, lbg)
            worst_pyth = max(worst_pyth, abs(norm_sq(resid) - rhs) / rhs)
            scale = math.sqrt(norm_sq(g) * norm_sq(lbg))
            worst_orth = max(worst_orth, abs(dot(resid, lbg)) / scale)
    elapsed = time.monotonic() - start
    ok = worst_pyth <= 1e-9 and worst_orth <= 1e-9 and elapsed < 5.0
    _report(1, ok,
            f"projection identity over 3000 pairs: pythagoras rel {worst_pyth:.2e}, "
            f"orthogonality rel {worst_orth:.2e}, {elapsed:.1f}s")


def test_c02_vanilla_recovery_delta_zero(tmp_path):
    start = time.monotonic()
    common = dict(seed=11, n=2000, test_n=500, dim=20, classes=10, separation=6.0,
                  workers=10, rounds=50, batch_size=32, eta=0.05, hidden=32,
                  model_kind="mlp1h", partition_mode="iid")
    harness.run(ExperimentConfig(algorithm="vanilla", out=str(tmp_path / "v"), **common))
    harness.run(ExperimentConfig(algorithm="lbgm", delta=0.0, out=str(tmp_path / "l"), **common))
    same = (tmp_path / "v/metrics.csv").read_bytes() == (tmp_path / "l/metrics.csv").read_bytes()
    elapsed = time.monotonic() - start
    ok = same and elapsed < 60.0
    _report(2, ok, f"delta=0 metrics CSV byte-identical to vanilla ({elapsed:.1f}s); "
                   "the identity holds only while no gradient is collinear with its LBG "
                   "to rounding, as on this config")


def test_c03_centralized_recovery():
    cfg = standalone_config(algorithm="vanilla", workers=1, rounds=100, tau=1,
                            batch_size=0, n=500, test_n=100, partition_mode="iid")
    setup = build_experiment(cfg)
    theta = setup.server.theta_global.copy()
    centralized = [theta.copy()]
    for _ in range(100):
        theta = theta - setup.round_config.eta * gradient(setup.model, theta, setup.train_ds)
        centralized.append(theta.copy())

    replay = build_experiment(cfg)
    policy = LbgmPolicy(None)
    ok = np.array_equal(replay.server.theta_global, centralized[0])
    for t in range(100):
        g, _ = local_round(replay.workers[0], replay.server.theta_global,
                           replay.round_config, replay.model, replay.train_ds)
        msg, _ = policy.process(replay.workers[0], g)
        g_tilde = reconstruct(replay.server, 0, msg)
        aggregate(replay.server, {0: g_tilde}, replay.weights, replay.round_config.eta)
        ok = ok and np.array_equal(replay.server.theta_global, centralized[t + 1])
    _report(3, ok, "K=1 tau=1 full-batch trajectory bit-equals centralized descent (100 steps)")


def test_c04_gradient_correctness():
    rng = rng_stream(6, 0)
    worst = {}
    for kind in ("linear_regression", "softmax_classifier", "mlp1h"):
        worst[kind] = 0.0
        for _ in range(10):
            model = build_model(kind, 5, 3, 4)
            theta = init_params(model, rng)
            ds = synth_classification(6, 5, 3, 3.0, rng)
            labels = ds.labels if kind != "linear_regression" else rng.standard_normal((6, 3))
            classes = 0 if kind == "linear_regression" else 3
            err = fd_check(model, theta, Dataset(ds.inputs, labels, classes), 1e-5)
            worst[kind] = max(worst[kind], err)
    bounds = {"linear_regression": 1e-6, "softmax_classifier": 1e-4, "mlp1h": 1e-4}
    ok = all(worst[kind] < bound for kind, bound in bounds.items())
    detail = ", ".join(f"{k}={v:.2e} (<{bounds[k]:.0e})" for k, v in worst.items())
    _report(4, ok, f"finite-difference gradient check (step 1e-5): {detail}")


def test_c05_standalone_savings_direction():
    start = time.monotonic()
    vanilla = cached_run("vanilla_200", lambda: simulate(standalone_config(algorithm="vanilla")))
    gated = cached_run("lbgm_200", lambda: simulate(standalone_config()))
    ratio = gated.metrics.final().cum_floats / vanilla.metrics.final().cum_floats
    acc_gap = abs(gated.metrics.final().test_metric - vanilla.metrics.final().test_metric)
    elapsed = time.monotonic() - start
    ok = ratio <= 0.60 and acc_gap <= 0.05 and elapsed < 600.0
    _report(5, ok,
            f"standalone delta=0.2 non-iid: floats ratio {ratio:.1%} (<=60%), "
            f"accuracy gap {acc_gap:.3f} (<=0.05), {elapsed:.0f}s")


def _adjacent_inversions(seq, direction):
    bad = 0
    for lo, hi in zip(seq[:-1], seq[1:]):
        if direction == "non_decreasing" and hi < lo:
            bad += 1
        if direction == "non_increasing" and hi > lo:
            bad += 1
    return bad


def test_c06_delta_tradeoff_sweep():
    deltas = (0.01, 0.05, 0.2, 0.5)
    fractions = []
    accuracies = []
    for delta in deltas:
        per_seed_frac = []
        per_seed_acc = []
        for seed in (0, 1, 2):
            res = simulate(standalone_config(seed=seed, separation=3.0, rounds=80, delta=delta))
            rows = res.metrics.rows[1:]
            per_seed_frac.append(float(np.mean([r.scalar_fraction for r in rows])))
            per_seed_acc.append(res.metrics.final().test_metric)
        fractions.append(float(np.mean(per_seed_frac)))
        accuracies.append(float(np.mean(per_seed_acc)))
    frac_inv = _adjacent_inversions(fractions, "non_decreasing")
    acc_inv = _adjacent_inversions(accuracies, "non_increasing")
    ok = frac_inv <= 1 and acc_inv <= 1
    _report(6, ok,
            f"delta sweep over 3 seeds: scalar fractions {[f'{f:.2f}' for f in fractions]} "
            f"({frac_inv} inversions), accuracies {[f'{a:.3f}' for a in accuracies]} "
            f"({acc_inv} inversions)")


def _stacking_pair(base_algo, delta, **kw):
    cfg = dict(model_kind="softmax_classifier", batch_size=0, rounds=80)
    cfg.update(kw)
    baseline = simulate(standalone_config(algorithm=base_algo, **cfg))
    stacked = simulate(
        standalone_config(algorithm=f"{base_algo}_lbgm", delta=delta, **cfg)
    )
    return baseline.metrics.final(), stacked.metrics.final()


def test_c07_plug_and_play_topk_and_rank():
    base_k, stack_k = _stacking_pair("topk", delta=0.5)
    float_sav_k = 1.0 - stack_k.cum_floats / base_k.cum_floats
    acc_gap_k = abs(stack_k.test_metric - base_k.test_metric)

    base_r, stack_r = _stacking_pair("rank_r", delta=0.2)
    float_sav_r = 1.0 - stack_r.cum_floats / base_r.cum_floats
    acc_gap_r = abs(stack_r.test_metric - base_r.test_metric)

    ok = (float_sav_k >= 0.25 and acc_gap_k <= 0.05
          and float_sav_r >= 0.15 and acc_gap_r <= 0.05)
    _report(7, ok,
            f"stacking: top-k(10%, EF) saves {float_sav_k:.1%} floats (gap {acc_gap_k:.3f}); "
            f"rank-2 saves {float_sav_r:.1%} floats (gap {acc_gap_r:.3f})")


def test_c08_sign_stacking():
    base, stacked = _stacking_pair("sign", delta=0.7, partition_mode="iid",
                                   eta=0.01, rounds=120)
    bit_sav = 1.0 - stacked.cum_bits / base.cum_bits
    acc_gap = abs(stacked.test_metric - base.test_metric)
    ok = bit_sav >= 0.40 and acc_gap <= 0.05
    _report(8, ok, f"sign stacking saves {bit_sav:.1%} bits (>=40%), accuracy gap {acc_gap:.3f}")


def test_c09_device_sampling():
    full = cached_run("lbgm_200", lambda: simulate(standalone_config()))
    sampled = simulate(standalone_config(algorithm="lbgm_sampled", sample_fraction=0.5))
    acc_gap = abs(sampled.metrics.final().test_metric - full.metrics.final().test_metric)

    setup = build_experiment(standalone_config())
    m = setup.model.param_dim
    first_messages = {}
    participants_per_round = {}
    for rnd, worker, floats in sampled.ledger.rows:
        first_messages.setdefault(worker, floats)
        participants_per_round.setdefault(rnd, []).append(worker)
    first_full = all(f == m for f in first_messages.values())
    # one ledger row per participant: 5 rows, from 5 distinct workers
    exact_half = all(len(p) == len(set(p)) == 5 for p in participants_per_round.values())
    ok = acc_gap <= 0.10 and first_full and exact_half
    _report(9, ok,
            f"50% sampling: accuracy gap {acc_gap:.3f} (<=0.10), "
            f"first-time participants sent full gradients: {first_full}, "
            f"5 of 10 workers every round: {exact_half}")


def test_c10_low_rank_gradient_space():
    data_rng = rng_stream(0, 2**40)
    ds = synth_classification(1500, 20, 10, 6.0, data_rng)
    model = build_model("mlp1h", 20, 10, 32)
    with analyzer.SpectrumProgression(100, model.param_dim) as spectrum:
        grads = analyzer.record_centralized(model, ds, spectrum, 0.05, 512, rng_stream(0, 0))
        progression = spectrum.rows()
    # every prefix's counts against a direct SVD of the prefix
    oracle, margin = prefix_rows(grads)
    _, n95, n99 = progression[-1]
    # the paper's convention: the explained variance, i.e. the squared
    # singular values, is carried by a few components in every prefix
    variance, var_margin = prefix_rows(grads, squared=True)
    _, var95, var99 = variance[-1]
    var_max = max(max(p95, p99) for _, p95, p99 in variance)

    prefix_ok = progression == oracle
    for t, p95, p99 in progression:
        prefix_ok = prefix_ok and (p95 <= p99 <= min(t + 1, model.param_dim))
    n99s = [p99 for _, _, p99 in progression]
    grows_weakly = all(b >= a for a, b in zip(n99s[:-1], n99s[1:]))

    dirs = analyzer.pgd(grads, 0.99)
    v = np.stack(dirs)
    ortho = float(np.abs(v @ v.T - np.eye(len(dirs))).max())

    ok = (n99 <= 60 and n95 <= n99 and var95 <= 3 and var99 <= 3 and var_max <= 3
          and prefix_ok and grows_weakly and ortho <= 1e-9)
    _report(10, ok,
            f"centralized mlp1h 100 epochs: singular mass N95={n95} <= N99={n99} <= 60, "
            f"explained variance N95={var95}, N99={var99}, at most {var_max} <= 3 "
            f"over all prefixes, "
            f"prefix counts consistent with the oracle: {prefix_ok} (smallest margins "
            f"{margin:.1e}, {var_margin:.1e} under explained variance), "
            f"N99 progression non-decreasing: "
            f"{grows_weakly}, PGD orthonormality {ortho:.1e}")


def test_c11_error_feedback_conservation():
    rng = rng_stream(44, 0)
    m = 300
    ok = True
    for k in (3, 30, 300):  # 1%, 10%, 100%
        residual = np.zeros(m)
        for _ in range(334):  # ~1000 draws across the three k values
            g = rng.standard_normal(m)
            payload, new_residual = compressors.ef_wrap(residual, g, lambda v: compressors.topk(v, k))
            ok = ok and np.array_equal(payload.densify() + new_residual, g + residual)
            residual = new_residual
    _report(11, ok, "error-feedback conservation exact for 1002 draws at k in {1%, 10%, 100%}")


class _RecordingPolicy:
    """Wraps a policy to capture every message for independent cost audit."""

    def __init__(self, inner):
        self.inner = inner
        self.messages = []
        self.server_transform = inner.server_transform

    def process(self, worker, g):
        msg, sin2 = self.inner.process(worker, g)
        self.messages.append(msg)
        return msg, sin2


def test_c12_ledger_exactness():
    cfg = standalone_config(rounds=6, n=600, test_n=100)
    vanilla = cached_run("vanilla_small", lambda: simulate(standalone_config(
        algorithm="vanilla", rounds=6, n=600, test_n=100)))
    setup = build_experiment(cfg)
    m = setup.model.param_dim
    kmt_ok = vanilla.ledger.cum_floats == 10 * m * 6

    audit_ok = True
    policies = {
        "vanilla": {},
        "lbgm": dict(delta=0.2),
        "topk_lbgm": dict(delta=0.5),
        "sign": {},
        "rank_r_lbgm": dict(delta=0.5),
    }
    for name, kw in policies.items():
        run_setup = build_experiment(standalone_config(rounds=6, n=600, test_n=100))
        recorder = _RecordingPolicy(policy_for(
            standalone_config(algorithm=name, rounds=6, n=600, test_n=100, **kw),
            run_setup.model,
        ))
        fraction = 0.5 if name == "lbgm" else 1.0  # also audit a sampled run
        res = run_with_policy(run_setup, recorder, sample_fraction=fraction)
        floats = sum(ledger_cost(msg)[0] for msg in recorder.messages)
        bits = sum(ledger_cost(msg)[1] for msg in recorder.messages)
        audit_ok = (audit_ok and floats == res.ledger.cum_floats
                    and bits == lbgm.FLOAT_BITS * res.ledger.cum_floats)

    ok = kmt_ok and audit_ok
    _report(12, ok,
            f"vanilla ledger == K*M*T ({10 * m * 6} floats): {kmt_ok}; "
            f"per-message cost audit across 5 policies: {audit_ok}")


def test_c13_tradeoff_against_the_least_squares_optimum():
    # linear regression on one-hot targets is least squares, so F* has a
    # closed form: lstsq on the training inputs with a bias column
    start = time.monotonic()
    deltas = (0.01, 0.05, 0.2, 0.5)
    base = harness.parse_config((CONFIGS / "lbgm_noniid.cfg").read_text(), [
        (item, item) for item in
        ("model.kind=linear_regression", "train.batch_size=0", "train.eta=0.2", "train.rounds=200")
    ])
    ok, details = True, []
    for seed in (3, 1000):
        cfg = replace(base, seed=seed)
        ds = build_experiment(cfg).train_ds
        a = np.hstack([ds.inputs, np.ones((ds.n, 1))])
        w, *_ = np.linalg.lstsq(a, ds.labels, rcond=None)
        f_star = 0.5 * float(np.mean(np.sum((a @ w - ds.labels) ** 2, axis=1)))
        vanilla = simulate(replace(cfg, algorithm="vanilla")).metrics.final()
        gated = [simulate(replace(cfg, delta=d)).metrics.final() for d in deltas]
        gaps = [r.train_loss - f_star for r in gated]
        shares = [r.cum_floats / vanilla.cum_floats for r in gated]
        ok = (ok and vanilla.train_loss - f_star < 1e-9
              and all(lo < hi for lo, hi in zip(gaps[:-1], gaps[1:]))
              and all(lo > hi for lo, hi in zip(shares[:-1], shares[1:])))
        details.append(f"seed {seed}: vanilla gap {vanilla.train_loss - f_star:.1e} (<1e-9), "
                       f"gaps {[f'{g:.1e}' for g in gaps]}, "
                       f"floats shares {[f'{s:.3f}' for s in shares]}")
    elapsed = time.monotonic() - start
    _report(13, ok,
            f"convex full-shard GD against F* at delta {list(deltas)}: the gap rises and "
            f"the floats share falls strictly with delta; {'; '.join(details)} ({elapsed:.1f}s)")
