"""Golden output digests: the determinism contract checked across changes.

Every case runs a shipped config through the CLI (``harness.main``) at a
few rounds and compares the sha256 of each output file with a recorded
value; one more case runs an lbgm config on IDX files built byte by byte,
so the IDX reader is pinned too. A refactor or speed-up must leave every
digest in place; a change that moves one changes behaviour and must
re-record it on purpose.

The digests hold for numpy 2.4 on OpenBLAS 0.3.31 (x86-64), the same
platform the benchmark's golden digests were recorded on. Another BLAS
may round differently and fail these tests without a bug in fedlbg.
"""

import hashlib

import numpy as np
import pytest

from fedlbg import analyzer, harness
from spectrum_oracle import counts, directions, prefix_rows
from support import ANALYZER_OUTPUTS, CONFIGS, npca_and_stack, write_idx_pair

FL_FILES = ("metrics.csv", "ledger.csv")

# name -> (shipped config, overrides); every case runs 5 rounds or epochs
# unless its overrides say otherwise
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
    "softmax_noniid": ("lbgm_noniid.cfg", ["model.kind=softmax_classifier"]),
    "analyze": ("analyze.cfg", []),
    # a 40x40 similarity matrix and a 40-row overlap matrix
    "analyze_40": ("analyze.cfg", ["train.rounds=40"]),
    # 100 epochs of a 72-parameter model: the prefixes past 72 epochs are
    # tall and counted on the SVD, in the spectrum helper where one runs
    "analyze_tall": ("analyze.cfg", ["model.hidden=2", "train.rounds=100"]),
}

DIGESTS = {
    "analyze": {
        "npca.csv": "f540ccf2c4909f4f7bd67dae4a3f1f4ae0ca21a2cf1a9e4df7062f982f1a2de0",
        "overlap.csv": "5896aaa59aa396b908552fe6752ae2de0242c4c088dbe0febbc37638937ad9f0",
        "similarity.csv": "329eedbb977063eeef7cdbfa565b68c3f7a4087f90760dd541b60f94d9787c16",
    },
    "analyze_40": {
        "npca.csv": "fd272da5023199b1ffed36cf250714824e30f5ee36f083ad403dff13f4249b9a",
        "overlap.csv": "0cd3057967c7dd021798bf29668f70895a7e39f059c548a69e82a58866dfff1c",
        "similarity.csv": "3ca5c4b8791a64ec0fe0cdb32635debe283e78ee3154eca5456ab8b0c6d6b5c0",
    },
    "analyze_tall": {
        "npca.csv": "bf1093febddc50bc93d7fbb3d549bea8aaaf8a3f71afa8e334215ff8fe30f242",
        "overlap.csv": "1ae2b242d38d92d453c804c4eb3ef52dcabb55ac872dd4a0c28a123db07e1a84",
        "similarity.csv": "6ff56660fd88ae601b1540d2c6fec68a2f2222f3babc35c298700b7cf52f978b",
    },
    "lbgm": {
        "metrics.csv": "a78a77481a1c0e01a8f8082fc4a5dbf514ff567c149a87f85542ee9f1a82ee4e",
        "ledger.csv": "f5ae177f49f875311cad95901362737b3de7b0f284afd1e673e717938deae414",
    },
    "lbgm_sampled": {
        "metrics.csv": "1565d82773fe13bd6f97d570694d06ffb6e3cf8fd9f79c6b497756e84bf04a81",
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
    "softmax_noniid": {
        "metrics.csv": "eb2785bf13e697e2581bbd76f15cbe61090499eab87834dd038a12646b779945",
        "ledger.csv": "7129ebb28790c7f5d0fa7ca3c62ae5f3cab6c4d9360a6432c3957f88618c7ab3",
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
    files = ANALYZER_OUTPUTS if config == "analyze.cfg" else FL_FILES
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    assert run_case(name, tmp_path) == DIGESTS[name]


# npca.csv, pgd and overlap.csv as written, against the spectrum oracle on
# the run's own gradient stack, which shares no code with the analyzer

def run_analyzer_case(name, out_dir):
    """Run an analyzer case into out_dir, as run_case does, and return
    (npca.csv's rows, the run's gradient stack)."""
    config, overrides = CASES[name]
    return npca_and_stack(CONFIGS / config, out_dir, "train.rounds=5", *overrides)


@pytest.mark.parametrize("name", ["analyze_40", "analyze_tall"])
def test_npca_rows_equal_a_direct_svd_of_each_prefix(name, tmp_path):
    rows, stack = run_analyzer_case(name, tmp_path)
    expected, margin = prefix_rows(stack)
    assert rows == expected, f"smallest margin {margin:.2e} of a cumulative mass from a target"


@pytest.mark.parametrize("name", ["analyze_40", "analyze_tall"])
def test_pgd_and_overlap_equal_the_direct_svds_directions(name, tmp_path):
    _, stack = run_analyzer_case(name, tmp_path)
    (_, n99), _ = counts(stack)
    dirs = np.array(analyzer.pgd(stack, 0.99))
    vectors, values, tolerances = directions(stack, n99)
    assert dirs.shape == vectors.shape
    if stack.shape[1] > stack.shape[0]:
        # pgd takes a wide stack's directions from its Gram matrix; on
        # analyze_40 the worst error was 0.094 of the bound without this
        # factor and 0.0027 with it (analyze_tall's SVD route matched exactly)
        tolerances = tolerances * values[0] / values
    # up to sign: each oracle vector takes the sign of pgd's direction
    vectors *= np.sign(np.sum(dirs * vectors, axis=1))[:, None]
    errors = np.linalg.norm(dirs - vectors, axis=1)
    assert (errors <= tolerances).all(), f"worst error / tolerance {(errors / tolerances).max():.2e}"
    # a unit direction d within e of v moves a cosine with it by at most e,
    # beyond the rounding of the cosines themselves
    overlap = np.loadtxt(tmp_path / "overlap.csv", delimiter=",", ndmin=2)
    unit_rows = stack / np.linalg.norm(stack, axis=1, keepdims=True)
    rebuilt = unit_rows @ vectors.T
    slack = tolerances + stack.shape[1] * np.finfo(np.float64).eps
    assert (np.abs(overlap - rebuilt) <= slack).all(), (
        f"worst overlap error / tolerance {(np.abs(overlap - rebuilt) / slack).max():.2e}")


IDX_DIGESTS = {
    "metrics.csv": "cad49cbe8b8a96b538224890949e971bb3a1cd704b9b9580c762adcefa512b1e",
    "ledger.csv": "b68c9407abdc7cb9db70e54b134ce1e56dff86d1b14bcb7df02c41ba19682f3b",
}


def test_golden_digests_of_a_federated_run_on_idx_files(tmp_path):
    rng = np.random.default_rng(7)
    (images, labels), (test_images, test_labels) = (
        write_idx_pair(tmp_path, rng.integers(0, 256, size=n * 16, dtype=np.uint8),
                       [i % 4 for i in range(n)], split, (4, 4))
        for split, n in (("train", 120), ("test", 30)))
    config = tmp_path / "idx.cfg"
    config.write_text(
        f"algorithm = lbgm\nseed = 5\nout = {tmp_path / 'out'}\n"
        "[model]\nhidden = 8\n"
        f"[data]\nkind = idx\nimages = {images}\nlabels = {labels}\n"
        f"test_images = {test_images}\ntest_labels = {test_labels}\nsubset = 100\n"
        "[train]\nworkers = 4\nrounds = 5\nbatch_size = 8\npartition = label_shard(2)\n"
        "[lbgm]\ndelta = 0.2\n"
    )
    assert harness.main(["run", str(config)]) == 0
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest()
               for f in FL_FILES}
    assert digests == IDX_DIGESTS
