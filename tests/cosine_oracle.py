"""The scalar numerics as they were written before they were made leaner:
the inner product with numpy's dispatch, the cosine similarity on it with
`min` and `max` as its clamp, the look-back error on both, and the
analyzer's matrices built from the cosine one pair at a time. The oracle
whose bits `numerics.dot`, `numerics.cosine_sim`, `lbgm.lbp_error`,
`overlap_matrix` and `similarity_matrix` keep."""

import math
import sys

import numpy as np

from fedlbg.numerics import ParamVector

_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max


def reference_dot(a, b):
    """numerics.dot as it was written with numpy scalars."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    out = float(np.dot(a, b))
    if not np.isfinite(out):
        raise FloatingPointError("dot product is not finite")
    return out


def cosine_sim(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity clamped to [-1, 1].

    The denominator is sqrt(na * nb) rather than sqrt(na) * sqrt(nb): with
    round-to-nearest, sqrt(x * x) == x, so the self-similarity of any
    nonzero vector is exactly 1. When na * nb under- or overflows, or na
    or nb itself overflows, both vectors are first scaled by powers of two
    to a largest entry in [0.5, 1), which is exact and leaves the angle
    unchanged; so a nonzero vector whose squared norm underflows to 0 still
    has an angle. Zero vectors are a hard error; callers that can see zero
    gradients must handle them before asking for an angle.
    """
    try:
        na, nb = reference_dot(a, a), reference_dot(b, b)
    except FloatingPointError:  # an overflowing squared norm, or a non-finite entry
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise
        na = nb = np.inf  # takes the rescale path
    if not _FLOAT_MIN <= na * nb <= _FLOAT_MAX:  # not a normal float
        if not (a.any() and b.any()):
            raise ValueError("cosine_sim is undefined for zero-norm vectors")
        a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
        b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
        na, nb = reference_dot(a, a), reference_dot(b, b)
    return min(1.0, max(-1.0, reference_dot(a, b) / math.sqrt(na * nb)))


def reference_is_zero(v):
    """numerics.is_zero on the reference numerics: a finite vector whose
    squared norm overflows is not zero."""
    try:
        return reference_dot(v, v) == 0.0 and not v.any()
    except FloatingPointError:
        if not np.isfinite(v).all():
            raise
        return False


def reference_lbp_error(g, lbg):
    """lbgm.lbp_error on the reference numerics."""
    if g.shape != lbg.shape:
        raise ValueError(f"dimension mismatch: {g.shape} vs {lbg.shape}")
    if reference_is_zero(g):
        return 0.0
    if reference_dot(lbg, lbg) == 0.0:
        return 1.0
    c = cosine_sim(g, lbg)
    return 1.0 - c * c


def overlap(grads: np.ndarray, dirs) -> np.ndarray:
    """Every (gradient, direction) cosine, each pair on its own; a zero
    gradient's row is left zero."""
    out = np.zeros((len(grads), len(dirs)))
    for i, g in enumerate(grads):
        for j, d in enumerate(dirs):
            if g.any():
                out[i, j] = cosine_sim(g, d)
    return out


def similarity(grads: np.ndarray) -> np.ndarray:
    """Every (gradient, gradient) cosine, both orders of each pair computed
    on their own; a pair with a zero gradient is left zero."""
    return np.array([[cosine_sim(g, h) if g.any() and h.any() else 0.0 for h in grads]
                     for g in grads]).reshape(len(grads), len(grads))
