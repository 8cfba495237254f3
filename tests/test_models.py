import math

import numpy as np
import pytest

from fedlbg.data import Dataset, synth_classification
from fedlbg.models import (
    accuracy,
    build_model,
    fd_check,
    forward_loss,
    gradient,
    init_params,
    pack,
    unpack,
)
from fedlbg.numerics import RngStream

# forward pass of the fixed mlp1h fixture below, recomputed by the
# straight-line oracle in test_mlp_forward_matches_straightline_oracle
MLP_FIXTURE_LOSS = 1.0258429857810363


def small_batch(rng, n, d, classes):
    return synth_classification(n, d, classes, 4.0, rng)


def test_param_dim_and_layer_shapes():
    m = build_model("mlp1h", 6, 3, 5)
    assert m.layer_shapes == ((6, 5), (1, 5), (5, 3), (1, 3))
    assert m.param_dim == 30 + 5 + 15 + 3
    lin = build_model("linear_regression", 4, 2)
    assert lin.param_dim == 8 + 2


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model("cnn", 4, 2)


def test_pack_unpack_roundtrip():
    m = build_model("mlp1h", 6, 3, 5)
    theta = init_params(m, RngStream(0, 0).generator())
    assert np.array_equal(pack(unpack(m, theta)), theta)


def test_linear_zero_loss_at_zero_targets():
    m = build_model("linear_regression", 3, 2)
    theta = np.zeros(m.param_dim)
    batch = Dataset(np.ones((4, 3)), np.zeros((4, 2)), 0)
    assert forward_loss(m, theta, batch) == 0.0


def test_softmax_uniform_loss_is_ln2():
    m = build_model("softmax_classifier", 5, 2)
    theta = np.zeros(m.param_dim)
    batch = small_batch(RngStream(1, 0).generator(), 6, 5, 2)
    assert forward_loss(m, theta, batch) == pytest.approx(math.log(2.0), rel=1e-12)


def test_mlp_forward_matches_straightline_oracle():
    model = build_model("mlp1h", 6, 3, 5)
    theta = init_params(model, RngStream(0, 0).generator())
    batch = synth_classification(4, 6, 3, 4.0, RngStream(0, 1).generator())

    w1, b1, w2, b2 = unpack(model, theta)
    total = 0.0
    for s in range(4):
        hidden = [
            math.tanh(sum(batch.inputs[s][i] * w1[i][j] for i in range(6)) + b1[0][j])
            for j in range(5)
        ]
        logits = [sum(hidden[j] * w2[j][c] for j in range(5)) + b2[0][c] for c in range(3)]
        mx = max(logits)
        denom = sum(math.exp(z - mx) for z in logits)
        total += -(logits[batch.labels[s]] - mx - math.log(denom))
    oracle = total / 4

    main = forward_loss(model, theta, batch)
    assert main == pytest.approx(oracle, rel=1e-12)
    assert main == pytest.approx(MLP_FIXTURE_LOSS, rel=1e-12)


def test_gradient_zero_at_consistent_optimum():
    # targets generated by the model itself: residuals vanish bit-exactly
    m = build_model("linear_regression", 3, 2)
    rng = RngStream(2, 0).generator()
    theta = init_params(m, rng)
    inputs = rng.standard_normal((5, 3))
    w, b = unpack(m, theta)
    targets = inputs @ w + b
    g = gradient(m, theta, Dataset(inputs, targets, 0))
    assert np.array_equal(g, np.zeros(m.param_dim))


def test_gradient_mean_invariant_under_duplication():
    # BLAS may pick different kernels for 1-row vs k-row matmuls, so this
    # identity holds to rounding, not bitwise
    for kind in ("linear_regression", "softmax_classifier", "mlp1h"):
        m = build_model(kind, 3, 2, 4)
        theta = init_params(m, RngStream(3, 0).generator())
        x = np.array([[1.0, 2.0, -1.0]])
        y = np.array([[1.0, 0.0]]) if kind == "linear_regression" else np.array([0])
        classes = 0 if kind == "linear_regression" else 2
        single = gradient(m, theta, Dataset(x, y, classes))
        for copies in (2, 3, 8):
            dup = gradient(m, theta, Dataset(np.repeat(x, copies, axis=0),
                                             np.repeat(y, copies, axis=0), classes))
            np.testing.assert_allclose(dup, single, rtol=1e-12, atol=1e-15, err_msg=kind)


def test_loss_and_gradient_invariant_under_batch_permutation():
    rng = RngStream(4, 0).generator()
    for kind in ("linear_regression", "softmax_classifier", "mlp1h"):
        m = build_model(kind, 4, 3, 5)
        theta = init_params(m, rng)
        ds = synth_classification(12, 4, 3, 3.0, rng)
        labels = ds.labels if kind != "linear_regression" else rng.standard_normal((12, 3))
        classes = 0 if kind == "linear_regression" else 3
        batch = Dataset(ds.inputs, labels, classes)
        perm = rng.permutation(12)
        shuffled = Dataset(ds.inputs[perm], np.asarray(labels)[perm], classes)
        assert forward_loss(m, theta, batch) == forward_loss(m, theta, shuffled)
        assert np.array_equal(gradient(m, theta, batch), gradient(m, theta, shuffled))


def test_gradient_scales_with_targets_at_origin():
    m = build_model("linear_regression", 3, 2)
    theta = np.zeros(m.param_dim)
    rng = RngStream(5, 0).generator()
    inputs = rng.standard_normal((6, 3))
    targets = rng.standard_normal((6, 2))
    g1 = gradient(m, theta, Dataset(inputs, targets, 0))
    g3 = gradient(m, theta, Dataset(inputs, 3.0 * targets, 0))
    np.testing.assert_allclose(g3, 3.0 * g1, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize(
    "kind,bound", [("linear_regression", 1e-6), ("softmax_classifier", 1e-4), ("mlp1h", 1e-4)]
)
def test_fd_check_bounds(kind, bound):
    rng = RngStream(6, 0).generator()
    for draw in range(10):
        m = build_model(kind, 5, 3, 4)
        theta = init_params(m, rng)
        ds = synth_classification(6, 5, 3, 3.0, rng)
        labels = ds.labels if kind != "linear_regression" else rng.standard_normal((6, 3))
        classes = 0 if kind == "linear_regression" else 3
        err = fd_check(m, theta, Dataset(ds.inputs, labels, classes), 1e-5)
        assert err < bound, f"{kind} draw {draw}: fd error {err}"


def test_fd_check_rejects_bad_eps():
    m = build_model("linear_regression", 2, 1)
    with pytest.raises(ValueError, match="eps"):
        fd_check(m, np.zeros(m.param_dim), Dataset(np.ones((1, 2)), np.zeros((1, 1)), 0), 0.0)


def test_theta_dimension_checked():
    m = build_model("mlp1h", 4, 2, 3)
    with pytest.raises(ValueError, match="dim"):
        forward_loss(m, np.zeros(m.param_dim + 1), small_batch(RngStream(7, 0).generator(), 4, 4, 2))


def test_init_params_deterministic_and_bounded():
    m = build_model("mlp1h", 9, 3, 4)
    a = init_params(m, RngStream(8, 0).generator())
    b = init_params(m, RngStream(8, 0).generator())
    assert np.array_equal(a, b)
    w1 = unpack(m, a)[0]
    assert np.abs(w1).max() <= 1.0 / 3.0  # fan_in 9


def test_accuracy_on_separable_data():
    m = build_model("softmax_classifier", 2, 2)
    batch = Dataset(np.array([[5.0, 0.0], [-5.0, 0.0]]), np.array([0, 1]), 2)
    theta = pack([np.array([[1.0, -1.0], [0.0, 0.0]]), np.zeros((1, 2))])
    assert accuracy(m, theta, batch) == 1.0
