"""Flat-vector linear algebra and seeded random streams.

Every vector in the simulator is a contiguous 1-D float64 numpy array
("param vector") of dimension M. All reductions go through numpy, whose
accumulation order is fixed for a given shape/layout, so repeated runs of
the same configuration are bit-identical.
"""

import sys
from dataclasses import dataclass

import numpy as np

# Type alias used throughout: a 1-D float64 array.
ParamVector = np.ndarray

# Reserved stream ids for non-worker roles. Worker streams use the worker
# index directly, so role tags sit far above any realistic worker count.
STREAM_DATA = 2**40
STREAM_PARTITION = 2**40 + 1
STREAM_SERVER = 2**40 + 2


def check_finite(v: ParamVector, what: str = "vector") -> ParamVector:
    if not np.all(np.isfinite(v)):
        raise FloatingPointError(f"{what} contains non-finite entries")
    return v


def _check_same_dim(a: ParamVector, b: ParamVector) -> None:
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product in 64-bit arithmetic."""
    _check_same_dim(a, b)
    out = float(np.dot(a, b))
    if not np.isfinite(out):
        raise FloatingPointError("dot product is not finite")
    return out


def norm_sq(a: ParamVector) -> float:
    """Squared Euclidean norm, always >= 0."""
    return dot(a, a)


def cosine_sim(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity clamped to [-1, 1].

    The denominator is sqrt(na * nb) rather than sqrt(na) * sqrt(nb): with
    round-to-nearest, sqrt(x * x) == x, so the self-similarity of any
    nonzero vector is exactly 1. When na * nb under- or overflows, both
    vectors are first scaled by powers of two to a largest entry in
    [0.5, 1), which is exact and leaves the angle unchanged. Zero-norm
    inputs are a hard error; callers that can see zero gradients must
    handle them before asking for an angle.
    """
    na = norm_sq(a)
    nb = norm_sq(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine_sim is undefined for zero-norm vectors")
    if not sys.float_info.min <= na * nb <= sys.float_info.max:  # not a normal float
        a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
        b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
        na, nb = norm_sq(a), norm_sq(b)
    c = dot(a, b) / np.sqrt(na * nb)
    return float(min(1.0, max(-1.0, c)))


def leads_negative(v: ParamVector) -> bool:
    """True when the first entry above 1e-12 * max(1, max|v|) is negative:
    the sign convention that makes repeated decompositions agree."""
    nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
    return len(nz) > 0 and bool(v[nz[0]] < 0)


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """Return y + alpha * x (new array)."""
    _check_same_dim(x, y)
    out = y + alpha * x
    return check_finite(out, "axpy result")


@dataclass(frozen=True)
class RngStream:
    """Splittable deterministic random stream.

    The (master_seed, stream_id) pair fully determines the sample sequence;
    distinct stream ids derived from the same master seed are independent.
    """

    master_seed: int
    stream_id: int

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(entropy=(int(self.master_seed), int(self.stream_id)))
        return np.random.Generator(np.random.PCG64(seq))
