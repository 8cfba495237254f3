import numpy as np
import pytest

from fedlbg.numerics import RngStream, axpy, cosine_sim, dot, norm_sq


def vec(*values):
    return np.asarray(values, dtype=float)


def test_dot_examples():
    assert dot(vec(1, 2, 3), vec(1, 2, 3)) == 14.0
    assert dot(vec(1, 0), vec(0, 1)) == 0.0
    assert dot(vec(1, 2), vec(3, -1)) == 1.0  # 3 - 2, hand arithmetic


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot(vec(1, 2), vec(1, 2, 3))


def test_dot_rejects_nan():
    with pytest.raises(FloatingPointError):
        dot(vec(float("nan"), 1.0), vec(1.0, 1.0))


def test_norm_sq_examples():
    assert norm_sq(vec(0, 0, 0)) == 0.0
    assert norm_sq(vec(3, 4)) == 25.0
    assert norm_sq(vec(1, 1, 1, 1)) == 4.0


def test_cosine_examples():
    assert cosine_sim(vec(2, 0), vec(5, 0)) == 1.0
    assert cosine_sim(vec(1, 0), vec(0, 3)) == 0.0
    assert cosine_sim(vec(1, 1), vec(1, 0)) == 0.7071067811865475  # 1/sqrt(2)
    # na * nb under- and overflows; the powers of ten themselves round, so
    # the scaled cases agree to an ulp
    for scale in (1e-100, 1e80):
        for a, b in ((vec(1, 1), vec(1, 0)), (vec(1, 0), vec(1, 1))):
            c = cosine_sim(scale * a, scale * b)
            assert c == pytest.approx(0.7071067811865475, rel=1e-15, abs=0.0)


def test_cosine_zero_norm_is_hard_error():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_sim(vec(0, 0), vec(1, 0))


def test_cosine_self_similarity_is_exactly_one():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.standard_normal(int(rng.integers(1, 40))) * 10 ** float(rng.integers(-6, 7))
        assert cosine_sim(a, a.copy()) == 1.0
        for scale in (1e-100, 1e80):  # na * nb under- and overflows
            assert cosine_sim(scale * a, scale * a) == 1.0


def test_cosine_bounded():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a = rng.standard_normal(8)
        b = rng.standard_normal(8)
        assert abs(cosine_sim(a, b)) <= 1.0


def test_dot_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        alpha = float(rng.standard_normal())
        assert dot(alpha * a, b) == pytest.approx(alpha * dot(a, b), rel=1e-12, abs=1e-12)


def test_axpy_examples():
    y = vec(5, -2)
    assert np.array_equal(axpy(0.0, vec(9, 9), y), y)
    assert np.array_equal(axpy(1.0, vec(1, 1), vec(2, 2)), vec(3, 3))
    assert np.array_equal(axpy(-0.5, vec(2, 4), vec(1, 1)), vec(0, -1))


def test_axpy_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        axpy(1.0, vec(1), vec(1, 2))


def test_axpy_rejects_nonfinite():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
        axpy(1e308, vec(1e308), vec(1e308))


def test_rng_stream_reproducible():
    a = RngStream(42, 3).generator().random(100)
    b = RngStream(42, 3).generator().random(100)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = RngStream(42, 0).generator().random(100)
    b = RngStream(42, 1).generator().random(100)
    c = RngStream(43, 0).generator().random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)

