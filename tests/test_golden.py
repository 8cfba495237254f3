"""Golden output digests: the determinism contract checked across changes.

Every case runs a shipped config through the CLI (``harness.main``) at a
few rounds and compares the sha256 of each output file with a recorded
value. A refactor or speed-up must leave every digest in place; a change
that moves one changes behaviour and must re-record it on purpose.

The digests hold for numpy 2.4 on OpenBLAS 0.3.31 (x86-64), the same
platform the benchmark's golden digests were recorded on. Another BLAS
may round differently and fail these tests without a bug in fedlbg.
"""

import hashlib
from pathlib import Path

import pytest

from fedlbg import harness

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

FL_FILES = ("metrics.csv", "ledger.csv")
ANALYZER_FILES = ("npca.csv", "overlap.csv", "similarity.csv")

# name -> (shipped config, overrides); every case runs 5 rounds or epochs
CASES = {
    "vanilla": ("vanilla_noniid.cfg", []),
    "lbgm": ("lbgm_noniid.cfg", []),
    "lbgm_sampled": ("lbgm_noniid.cfg", ["algorithm=lbgm_sampled"]),
    "topk": ("topk_stack.cfg", ["algorithm=topk"]),
    "topk_lbgm": ("topk_stack.cfg", []),
    "rank_r": ("topk_stack.cfg", ["algorithm=rank_r"]),
    "rank_r_lbgm": ("topk_stack.cfg", ["algorithm=rank_r_lbgm"]),
    "sign": ("topk_stack.cfg", ["algorithm=sign"]),
    "sign_lbgm": ("topk_stack.cfg", ["algorithm=sign_lbgm"]),
    "sign_majority": ("topk_stack.cfg", ["algorithm=sign", "compress.sign_majority=true"]),
    "topk_lbgm_no_ef": ("topk_stack.cfg", ["compress.error_feedback=false"]),
    "regression_iid": (
        "lbgm_noniid.cfg", ["model.kind=linear_regression", "train.partition=iid"]
    ),
    "analyze": ("analyze.cfg", []),
}

DIGESTS = {
    "analyze": {
        "npca.csv": "f540ccf2c4909f4f7bd67dae4a3f1f4ae0ca21a2cf1a9e4df7062f982f1a2de0",
        "overlap.csv": "5896aaa59aa396b908552fe6752ae2de0242c4c088dbe0febbc37638937ad9f0",
        "similarity.csv": "329eedbb977063eeef7cdbfa565b68c3f7a4087f90760dd541b60f94d9787c16",
    },
    "lbgm": {
        "metrics.csv": "a78a77481a1c0e01a8f8082fc4a5dbf514ff567c149a87f85542ee9f1a82ee4e",
        "ledger.csv": "f5ae177f49f875311cad95901362737b3de7b0f284afd1e673e717938deae414",
    },
    "lbgm_sampled": {
        "metrics.csv": "3a5e738c5619288b4255b5255e13e4d2602622955c31581a5e069edb49ac3162",
        "ledger.csv": "be6a60a8cd9350513cd8b472a88d759f4e82ae9583a0747d219d83408344ab31",
    },
    "rank_r": {
        "metrics.csv": "c8d47ff51458aafca5b0a123bf05d55d1a9ffbde909580fb2559a6a60688b809",
        "ledger.csv": "c0ccec519217bcd68202ddb2068403d34beae81efd39b4aaa710626d2c29dc7b",
    },
    "rank_r_lbgm": {
        "metrics.csv": "cf1ed4f940bb74161890e0f96978ee9d9887acccd685ae97424d6edeb5c44881",
        "ledger.csv": "40130a408e26672acb4f265b23bd491d20bab8d180dd7aecd8a967eae8fec25c",
    },
    "regression_iid": {
        "metrics.csv": "fcacfac9d724a7b0086bb634db43d0fab755b292d4e72f2c4f26e2efa6cbd1f9",
        "ledger.csv": "2ed41aaeec2dd180633161963bbe9782d644706840599dbc89e9c4a293a3403f",
    },
    "sign": {
        "metrics.csv": "b7a70e7bd6949bf2db36c3f8b2b3a4857cbdf6cb40125e7b0985d89d59d4ba71",
        "ledger.csv": "d220c0415cee010222b5c86aaba42d8d09da3e71f3002f5d19d5c712b71f1b84",
    },
    "sign_lbgm": {
        "metrics.csv": "cfc659a6a92eb51fc7c735c0c9763b619e30ca94732ac899520709f776a8ba11",
        "ledger.csv": "e86067ce1e9d1250b8b92d5f97c55c15226f0ae515af94e145723b1ddbe790ec",
    },
    "sign_majority": {
        "metrics.csv": "dad2c91883b104013dbdaa9bd780edf674e444180b1a67065e2cc404d3bd077c",
        "ledger.csv": "d220c0415cee010222b5c86aaba42d8d09da3e71f3002f5d19d5c712b71f1b84",
    },
    "topk": {
        "metrics.csv": "e24b0647b16e578dbcec6287581fd1df3c1bed22ec6bad23ca6b48c4ceb50219",
        "ledger.csv": "a51e6251c924f59830da1b755c004ea8be9795ccecd23502f91df782576e5e57",
    },
    "topk_lbgm": {
        "metrics.csv": "4a72e126a6611cb53cb648ced5650bd2e0d7b51d1a3ddf0a971ba41fb7322054",
        "ledger.csv": "b520797481e900f0d75314b325f32e3406c0c6519ddcc878c69d29d114be6ee5",
    },
    "topk_lbgm_no_ef": {
        "metrics.csv": "f3e0cd7eaf0db7001f21ef0186b4a6a11871f4c0774bc3b08eaa56c044935863",
        "ledger.csv": "b520797481e900f0d75314b325f32e3406c0c6519ddcc878c69d29d114be6ee5",
    },
    "vanilla": {
        "metrics.csv": "6d82d5dea4fa498ccb329c54fac12e7758e5e4437acccea685e3d4804bba6067",
        "ledger.csv": "c590772dc2fc010f329785083dc55ed64a93ffd3967dcf46a9b722d4a3ec3d1b",
    },
}


def run_case(name, out_dir) -> dict:
    """Run one case into out_dir and return {file name: sha256}."""
    config, overrides = CASES[name]
    argv = ["run", str(CONFIGS / config), "--out", str(out_dir),
            "--override", "train.rounds=5"]
    for item in overrides:
        argv += ["--override", item]
    assert harness.main(argv) == 0
    files = ANALYZER_FILES if name == "analyze" else FL_FILES
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]
