"""The traced benchmark (``bench/run.py --trace 1``) wraps fedlbg entry
points by name, as listed in ``bench/spans.py``. These checks fail fast
when a rename or a move would break that run."""

import importlib.util
from pathlib import Path

import pytest

from fedlbg import analyzer, compressors, data, fl_core, harness, lbgm, models, numerics

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
MODULES = {
    "analyzer": analyzer, "compressors": compressors, "data": data, "fl_core": fl_core,
    "harness": harness, "lbgm": lbgm, "models": models, "numerics": numerics,
}


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_hooked_entry_point_resolves():
    spans = load_spans()
    for targets in spans.SPANS.values():
        for module, *names in targets:
            owner = MODULES[module]
            if len(names) == 2:
                owner = getattr(owner, names[0])
                assert names[1] in owner.__dict__, f"{module}.{'.'.join(names)}"
            assert callable(getattr(owner, names[-1])), f"{module}.{'.'.join(names)}"
    for module, cls in spans.UPLINK_POLICIES:
        assert "process" in getattr(MODULES[module], cls).__dict__, f"{module}.{cls}.process"
    # uplinks are counted by msg.tag against lbgm.TAG_SCALAR
    assert lbgm.UplinkMessage(rho=1.0).tag == lbgm.TAG_SCALAR


def test_tracer_installs_and_undoes_cleanly():
    spans = load_spans()
    before = {name: dict(vars(mod)) for name, mod in MODULES.items()}
    methods = [(cls, "process") for cls in (lbgm.LbgmPolicy, compressors.CompressedPolicy)]
    methods_before = [cls.__dict__[attr] for cls, attr in methods]
    patches = spans.Tracer().install(MODULES)
    assert models.gradient is not before["models"]["gradient"]
    patches.undo()
    for name, mod in MODULES.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, f"{name}.{attr} not restored"
    assert [cls.__dict__[attr] for cls, attr in methods] == methods_before


@pytest.mark.parametrize("algorithm", ["lbgm", "rank_r_lbgm"])
def test_hooked_entry_points_fire(algorithm):
    # a refactor that stops calling a hooked name reads 0 in the per-layer
    # metrics without any error; here it fails
    spans = load_spans()
    cfg = harness.ExperimentConfig(
        algorithm=algorithm, seed=1, n=120, test_n=40, dim=4, classes=3,
        workers=3, rounds=2, batch_size=10, hidden=8,
    )
    tracer = spans.Tracer()
    patches = tracer.install(MODULES)
    try:
        harness.simulate(cfg)
    finally:
        patches.undo()
    calls = {name: st["calls"] for name, st in tracer.stats().items()}
    assert tracer.counts["lbgm.uplinks"] == cfg.rounds * cfg.workers  # none counted twice
    hooked = ["lbgm.process", "lbgm.reconstruct"]
    if algorithm == "rank_r_lbgm":
        hooked += ["compressors.compress", "compressors.process"]
    for name in hooked:
        assert calls.get(name, 0) >= 1, name
