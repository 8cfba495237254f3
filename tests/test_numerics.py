import re

import numpy as np
import pytest

from fedlbg.numerics import check_finite, cosine_sim, dot, fix_sign, is_zero, norm_sq, rng_stream
from support import vec


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: dot(vec(1, 2), vec(1, 2, 3)), ValueError, "dimension mismatch: (2,) vs (3,)"),
    (lambda: dot(np.ones((2, 1)), np.ones(2)), ValueError, "dimension mismatch: (2, 1) vs (2,)"),
    (lambda: dot(vec(float("nan"), 1), vec(1, 1)), FloatingPointError, "dot product is not finite"),
    (lambda: dot(vec(1, 1), vec(float("inf"), 1)), FloatingPointError, "dot product is not finite"),
    (lambda: dot(vec(1e200, 1), vec(1e200, 1)), FloatingPointError, "dot product is not finite"),
    (lambda: norm_sq(vec(-1e155, 0)), FloatingPointError, "dot product is not finite"),
    (lambda: cosine_sim(vec(0, 0), vec(1, 0)), ValueError,
     "cosine_sim is undefined for zero-norm vectors"),
    (lambda: cosine_sim(vec(1e-200, 0), vec(0, 0)), ValueError,
     "cosine_sim is undefined for zero-norm vectors"),
    (lambda: cosine_sim(vec(1, 2), vec(1, 2, 3)), ValueError, "dimension mismatch: (2,) vs (3,)"),
    (lambda: cosine_sim(vec(float("inf"), 1), vec(1, 1)), FloatingPointError,
     "dot product is not finite"),
    (lambda: check_finite(vec(1, float("nan")), "local model"), FloatingPointError,
     "local model contains non-finite entries"),
])
def test_errors_keep_their_types_and_messages(call, error, message):
    with np.errstate(over="ignore"), pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


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
    # a squared norm itself overflows (numpy warns, as it would outside a run)
    with np.errstate(over="ignore"):
        for a, b in ((vec(1e160, 0), vec(1e160, 1e160)), (vec(1e155, 0), vec(1, 1))):
            c = cosine_sim(a, b)
            assert c == pytest.approx(0.7071067811865475, rel=1e-15, abs=0.0)


def test_cosine_zero_norm_is_hard_error():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_sim(vec(0, 0), vec(1, 0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="zero-norm"):
        cosine_sim(vec(0, 0), vec(1e160, 1))


def test_cosine_of_a_vector_whose_squared_norm_underflows():
    # every entry below about 1e-162: the squared norm is 0, the vector is not
    assert norm_sq(vec(1e-163, 0)) == 0.0
    assert cosine_sim(vec(1e-200, 0), vec(1, 0)) == 1.0
    assert cosine_sim(vec(3e-200, -4e-200), vec(-3e-200, 4e-200)) == -1.0
    # scaling by a power of two is exact: the angle of the unscaled pair
    tiny = 2.0**-600
    assert cosine_sim(vec(tiny, 0), vec(1, 1)) == 0.7071067811865475
    assert cosine_sim(vec(1, 1), vec(0, -tiny)) == -0.7071067811865475
    c = cosine_sim(vec(1e-163, 0), vec(1, 1))
    assert c == pytest.approx(0.7071067811865475, rel=1e-15, abs=0.0)
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_sim(vec(1e-200, 0), vec(0, 0))


def test_is_zero_only_for_an_all_zero_vector():
    assert is_zero(vec(0.0, -0.0))
    assert not is_zero(vec(1e-163, 0))  # the squared norm underflows to 0
    with np.errstate(over="ignore"):
        assert not is_zero(vec(1e160, 0))  # the squared norm overflows
        for bad in (float("nan"), float("inf")):
            with pytest.raises(FloatingPointError, match="not finite"):
                is_zero(vec(bad, 0))


def test_cosine_rejects_nonfinite_entries():
    with np.errstate(over="ignore"):
        for bad in (float("nan"), float("inf")):
            for a, b in ((vec(bad, 1), vec(1, 1)), (vec(1e160, 1), vec(1, bad))):
                with pytest.raises(FloatingPointError):
                    cosine_sim(a, b)


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


def test_rng_stream_reproducible():
    a = rng_stream(42, 3).random(100)
    b = rng_stream(42, 3).random(100)
    assert np.array_equal(a, b)


def test_rng_streams_independent():
    a = rng_stream(42, 0).random(100)
    b = rng_stream(42, 1).random(100)
    c = rng_stream(43, 0).random(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_fix_sign_flips_its_partners_with_it():
    v, u = vec(0.0, -2.0, 3.0), vec(1.0, -0.0, 4.0)
    factors = np.array([[1.0, 5.0], [2.0, 6.0]])
    fix_sign(v, u, factors[:, 1])  # a strided column, as rank_r passes
    assert v.tolist() == [-0.0, 2.0, -3.0]
    assert u.tolist() == [-1.0, 0.0, -4.0]
    assert factors.tolist() == [[1.0, -5.0], [2.0, -6.0]]
    fix_sign(v, u)  # now leading positive: nothing moves
    assert v.tolist() == [-0.0, 2.0, -3.0] and u.tolist() == [-1.0, 0.0, -4.0]


def test_fix_sign_leaves_a_zero_vector_alone():
    v, u = vec(0.0, -0.0), vec(-1.0, 2.0)
    fix_sign(v, u)
    assert v.tobytes() == vec(0.0, -0.0).tobytes()
    assert u.tolist() == [-1.0, 2.0]


@pytest.mark.parametrize("values, flips", [
    # the threshold is 1e-12 * max(1, max|v|): entries at or below it are skipped
    ((-1e-12, 1.0), False),
    ((-2e-12, 1.0), True),
    ((-1e-12, 2.0), False),
    ((-3e-12, 2.0), True),
    ((-1e-13, 1e-14), False),  # max|v| < 1: the threshold stays 1e-12
    ((-2e-12, 1e-14), True),
])
def test_fix_sign_honours_the_threshold(values, flips):
    v = vec(*values)
    fix_sign(v)
    assert v.tolist() == ([-x for x in values] if flips else list(values))
