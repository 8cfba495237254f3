import numpy as np
import pytest

from fedlbg.analyzer import (
    n_pca,
    overlap_matrix,
    pgd,
    record_centralized,
    similarity_matrix,
)
from fedlbg.data import synth_classification
from fedlbg.models import build_model
from fedlbg.numerics import RngStream


def test_n_pca_identical_gradients_is_one():
    g = np.array([1.0, -2.0, 0.5])
    grads = np.stack([g.copy() for _ in range(15)])
    for variance in (0.5, 0.95, 0.99, 1.0):
        assert n_pca(grads, variance) == 1


def test_n_pca_orthogonal_equal_norm_oracle():
    # 20 orthonormal gradients: equal singular values, brute-force cumulative
    # count gives ceil(0.95 * 20) = 19
    grads = np.stack([np.eye(20)[i] * 3.0 for i in range(20)])
    s = np.full(20, 1.0)
    cum = np.cumsum(s) / s.sum()
    brute = int(np.argmax(cum >= 0.95)) + 1
    assert brute == 19
    assert n_pca(grads, 0.95) == 19
    assert n_pca(grads, 1.0) == 20


def test_n_pca_variance_one_is_numerical_rank():
    rng = RngStream(30, 0).generator()
    basis = rng.standard_normal((3, 50))
    coeffs = rng.standard_normal((8, 3))
    grads = coeffs @ basis
    assert n_pca(grads, 1.0) == 3


def test_n_pca_all_zero_log():
    grads = np.stack([np.zeros(5), np.zeros(5)])
    assert n_pca(grads, 0.99) == 0


def test_n_pca_validates_variance():
    grads = np.stack([np.ones(3)])
    with pytest.raises(ValueError, match="variance"):
        n_pca(grads, 0.0)
    with pytest.raises(ValueError, match="variance"):
        n_pca(grads, 1.5)


def test_n_pca_ordering_invariant():
    rng = RngStream(31, 0).generator()
    grads = rng.standard_normal((12, 40))
    assert n_pca(grads, 0.95) <= n_pca(grads, 0.99) <= min(12, 40)


def test_n_pca_squared_counts_fewer():
    rng = RngStream(32, 0).generator()
    grads = rng.standard_normal((15, 60))
    assert n_pca(grads, 0.95, squared=True) <= n_pca(grads, 0.95)


def test_pgd_single_gradient():
    g = np.array([0.0, -3.0, 4.0])
    dirs = pgd(np.stack([g]), 0.99)
    assert len(dirs) == 1
    # unit norm, sign fixed so the first nonzero coordinate is positive
    expected = np.array([0.0, 3.0 / 5.0, -4.0 / 5.0])
    np.testing.assert_allclose(dirs[0], expected, atol=1e-12)


def test_pgd_orthogonal_inputs_recovered():
    a = np.array([2.0, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 5.0, 0.0])
    dirs = pgd(np.stack([a, b]), 1.0)
    assert len(dirs) == 2
    recovered = np.abs(np.stack(dirs))
    assert recovered[0][2] == pytest.approx(1.0, abs=1e-12)  # larger sigma first
    assert recovered[1][0] == pytest.approx(1.0, abs=1e-12)


def test_pgd_orthonormal_to_1e9():
    rng = RngStream(33, 0).generator()
    grads = rng.standard_normal((10, 300))
    dirs = pgd(grads, 0.99)
    v = np.stack(dirs)
    gram = v @ v.T
    np.testing.assert_allclose(gram, np.eye(len(dirs)), atol=1e-9)


def test_overlap_matrix_single():
    g = np.array([1.0, 2.0, 2.0])
    grads = np.stack([g])
    mat = overlap_matrix(grads, pgd(grads, 0.99))
    assert mat.shape == (1, 1)
    assert abs(mat[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_overlap_matrix_bounded_and_zero_rows():
    rng = RngStream(34, 0).generator()
    grads = rng.standard_normal((6, 20))
    grads[3] = 0.0
    dirs = pgd(grads[grads.any(axis=1)], 0.95)
    mat = overlap_matrix(grads, dirs)
    assert np.all(np.abs(mat) <= 1.0)
    assert np.array_equal(mat[3], np.zeros(len(dirs)))


def test_overlap_matrix_gradient_orthogonal_to_all_pgds():
    # direction dropped below the variance target: its row collapses to zero
    a = np.array([10.0, 0.0, 0.0])
    b = np.array([0.0, 1e-9, 0.0])
    grads = np.stack([a, b])
    dirs = pgd(grads, 0.5)  # keeps only the dominant direction
    assert len(dirs) == 1
    mat = overlap_matrix(grads, dirs)
    np.testing.assert_allclose(mat[1], np.zeros(1), atol=1e-9)


def test_similarity_matrix_identical_and_orthogonal():
    g = np.array([1.0, 1.0])
    ones = similarity_matrix(np.stack([g, 2.0 * g, 3.0 * g]))
    assert np.array_equal(ones, np.ones((3, 3)))

    ortho = similarity_matrix(np.stack([np.array([1.0, 0.0]), np.array([0.0, 2.0])]))
    assert np.array_equal(ortho, np.eye(2))


def test_similarity_matrix_symmetric_diagonal_one():
    rng = RngStream(35, 0).generator()
    grads = rng.standard_normal((7, 25))
    mat = similarity_matrix(grads)
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.ones(7))


def centralized_fixture(epochs, batch_size=16, n=120, seed=36):
    rng_data = RngStream(seed, 1).generator()
    ds = synth_classification(n, 6, 4, 5.0, rng_data)
    model = build_model("mlp1h", 6, 4, 8)
    return record_centralized(model, ds, epochs, 0.1, batch_size, RngStream(seed, 0).generator())


def test_record_centralized_single_epoch():
    grads, progression = centralized_fixture(1)
    assert grads.shape == (1, build_model("mlp1h", 6, 4, 8).param_dim)
    assert progression == [(0, 1, 1)]


def test_record_centralized_progression_matches_per_prefix_pca():
    grads, progression = centralized_fixture(12)
    for t, n95, n99 in progression:
        prefix = grads[: t + 1]
        assert n95 == n_pca(prefix, 0.95)
        assert n99 == n_pca(prefix, 0.99)


def test_record_centralized_collinear_log_counts_one():
    # scaled copies of a single direction: every prefix, any variance
    v = np.array([0.6, -0.8, 0.0])
    grads = np.stack([c * v for c in (1.0, 0.5, 0.25, 0.125)])
    for t in range(1, 5):
        assert n_pca(grads[:t], 0.99) == 1


def test_record_centralized_deterministic():
    grads_a, prog_a = centralized_fixture(5)
    grads_b, prog_b = centralized_fixture(5)
    assert prog_a == prog_b
    for ga, gb in zip(grads_a, grads_b):
        assert np.array_equal(ga, gb)


def test_empty_stack_raises():
    empty = np.zeros((0, 4))
    for call in (lambda: n_pca(empty, 0.99), lambda: pgd(empty, 0.99),
                 lambda: similarity_matrix(empty)):
        with pytest.raises(ValueError, match="empty"):
            call()
    with pytest.raises(ValueError):
        overlap_matrix(empty, [np.ones(4)])
