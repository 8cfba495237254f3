"""Flat-vector linear algebra and seeded random streams.

Every vector in the simulator is a contiguous 1-D float64 numpy array
("param vector") of dimension M. All reductions go through numpy, whose
accumulation order is fixed for a given shape/layout, so repeated runs of
the same configuration are bit-identical. That order also depends on the
BLAS thread count, which splits a product differently, so a run holds one
BLAS thread (`one_blas_thread`). A scalar result is a Python float,
checked and rooted with `math`, which costs less per call than a numpy
scalar and rounds the same.
"""

import ctypes
import functools
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Type alias used throughout: a 1-D float64 array.
ParamVector = np.ndarray

# Reserved stream ids for non-worker roles. Worker streams use the worker
# index directly, so role tags sit far above any realistic worker count.
STREAM_DATA = 2**40
STREAM_PARTITION = 2**40 + 1
STREAM_SERVER = 2**40 + 2

_FLOAT_MIN, _FLOAT_MAX = sys.float_info.min, sys.float_info.max
_sqrt = math.sqrt  # bound once: a call looks up one name, not a module and its attribute


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS,
    opened by path on first use (the process handle does not see its
    symbols), or None under another BLAS."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_-*.so"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (IndexError, OSError, AttributeError):
        return None


@contextmanager
def one_blas_thread():
    """Run the body on one BLAS thread, then restore the previous count."""
    threads = _blas_threads()
    if threads is None:
        print("warning: cannot pin BLAS to one thread; outputs may depend on "
              "the thread count", file=sys.stderr)
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def check_finite(v: ParamVector, what: str = "vector") -> ParamVector:
    if not np.isfinite(v).all():
        raise FloatingPointError(f"{what} contains non-finite entries")
    return v


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product in 64-bit arithmetic.

    `a.dot(b)` runs the same product as `np.dot(a, b)` without the
    `__array_function__` dispatch: about 0.5 us less a call at M ~ 1000.
    """
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    out = float(a.dot(b))
    if not math.isfinite(out):
        raise FloatingPointError("dot product is not finite")
    return out


def norm_sq(a: ParamVector) -> float:
    """Squared Euclidean norm, always >= 0."""
    return dot(a, a)


def cosine_sim(a: ParamVector, b: ParamVector) -> float:
    """Cosine similarity clamped to [-1, 1], at the cost of its three `dot`
    calls and little else.

    The denominator is sqrt(na * nb) rather than sqrt(na) * sqrt(nb): with
    round-to-nearest, sqrt(x * x) == x, so the self-similarity of any
    nonzero vector is exactly 1. When na * nb under- or overflows, or na
    or nb itself overflows, both vectors are first scaled by powers of two
    to a largest entry in [0.5, 1), which is exact and leaves the angle
    unchanged; so a nonzero vector whose squared norm underflows to 0 still
    has an angle. Zero vectors are a hard error; callers that can see zero
    gradients must handle them before asking for an angle. The quotient is
    always finite, so two comparisons clamp it to the bits of
    min(1, max(-1, quotient)), -0.0 included.
    """
    try:
        nn = dot(a, a) * dot(b, b)  # na * nb, formed once
    except FloatingPointError:  # an overflowing squared norm, or a non-finite entry
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise
        nn = math.inf  # takes the rescale path
    if not _FLOAT_MIN <= nn <= _FLOAT_MAX:  # not a normal float
        if not (a.any() and b.any()):
            raise ValueError("cosine_sim is undefined for zero-norm vectors")
        a = np.ldexp(a, -np.frexp(np.abs(a).max())[1])
        b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
        nn = dot(a, a) * dot(b, b)
    c = dot(a, b) / _sqrt(nn)
    if c > 1.0:
        return 1.0
    if c < -1.0:
        return -1.0
    return c


def fix_sign(v: ParamVector, *partners: np.ndarray):
    """Negate v and its partners in place when the first entry of v above
    1e-12 * max(1, max|v|) is negative: the sign convention that makes
    repeated decompositions agree."""
    nz = np.flatnonzero(np.abs(v) > 1e-12 * max(1.0, np.abs(v).max()))
    if len(nz) > 0 and v[nz[0]] < 0:
        for a in (v, *partners):
            np.negative(a, out=a)


def is_zero(v: ParamVector) -> bool:
    """True for an all-zero vector. `norm_sq` runs first, as the traced
    call counts expect; a nonzero vector whose squared norm under- or
    overflows is not zero and still has an angle. A non-finite entry
    raises."""
    try:
        return norm_sq(v) == 0.0 and not v.any()
    except FloatingPointError:  # an overflowing squared norm, or a non-finite entry
        if not np.isfinite(v).all():
            raise
        return False


def rng_stream(master_seed: int, stream_id: int) -> np.random.Generator:
    """Fresh generator at the start of the stream (master_seed, stream_id).

    The pair fully determines the sample sequence; distinct stream ids
    derived from the same master seed are independent.
    """
    seq = np.random.SeedSequence(entropy=(int(master_seed), int(stream_id)))
    return np.random.Generator(np.random.PCG64(seq))
