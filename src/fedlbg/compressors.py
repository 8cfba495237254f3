"""Gradient compressors (top-k, sign, per-layer low-rank) and the
plug-and-play stacking that runs the look-back gate on compressed payloads.

Every payload knows its exact wire cost in floats and can densify itself
back to a flat length-M vector. When stacking, the gate compares the
densified compressed gradient against the densified compressed look-back
gradient; a passing round costs one scalar instead of the payload.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import lbgm
from .numerics import ParamVector, fix_sign


@dataclass(frozen=True)
class SparsePayload:
    indices: np.ndarray  # strictly increasing, int64
    values: np.ndarray
    dim: int

    @property
    def cost_floats(self) -> float:
        return 2 * len(self.indices)  # value + index pairs

    def densify(self) -> ParamVector:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


@dataclass(frozen=True)
class SignPayload:
    bits: np.ndarray  # packed bits, 1 => +1, 0 => -1
    dim: int

    @property
    def cost_floats(self) -> float:
        return self.dim / lbgm.FLOAT_BITS

    def densify(self) -> ParamVector:
        signs = np.unpackbits(self.bits)[: self.dim]
        return np.where(signs == 1, 1.0, -1.0)


@dataclass(frozen=True)
class LowRankPayload:
    # per layer block: a (U, V) pair with block ~= U @ V.T, or the 2-D block itself
    blocks: tuple

    @property
    def cost_floats(self) -> float:
        return sum(a.size for b in self.blocks for a in (b if isinstance(b, tuple) else (b,)))

    def densify(self) -> ParamVector:
        return np.concatenate([
            (b[0] @ b[1].T if isinstance(b, tuple) else b).ravel() for b in self.blocks
        ])


def topk(g: ParamVector, k: int) -> SparsePayload:
    """Keep the k largest-magnitude entries; ties go to the lower index."""
    order = np.argsort(-np.abs(g), kind="stable")  # stable: ties by index
    keep = np.sort(order[:k])
    return SparsePayload(keep.astype(np.int64), g[keep], g.shape[0])


def ef_wrap(residual: ParamVector, g: ParamVector, compress):
    """Error-feedback step: compress g plus the carried residual.

    Returns (payload, new_residual) with the conservation identity
    densify(payload) + new_residual == g + residual holding exactly for
    sparsifying compressors (kept coordinates cancel bit for bit).
    """
    p = g + residual
    payload = compress(p)
    new_residual = p - payload.densify()
    return payload, new_residual


def sign_compress(g: ParamVector) -> SignPayload:
    """One sign bit per coordinate, with sign(0) = +1."""
    bits = (g >= 0).astype(np.uint8)
    return SignPayload(np.packbits(bits), g.shape[0])


def rank_r(blocks, r: int) -> LowRankPayload:
    """Best rank-r approximation of each matrix-shaped block via SVD.

    `blocks` are the 2-D blocks of one gradient in flatten order, as
    `models.unpack` gives them. Vector blocks (biases) pass through dense;
    r is clamped per block to min(rows, cols).
    """
    out = []
    for block in blocks:
        rows, cols = block.shape
        if min(rows, cols) <= 1:
            out.append(block.copy())
            continue
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        r_eff = min(r, rows, cols)
        u_r = u[:, :r_eff] * s[:r_eff]
        v_r = vt[:r_eff].T.copy()
        for i in range(r_eff):  # each left factor starts positive
            fix_sign(u_r[:, i], v_r[:, i])
        out.append((u_r, v_r))
    return LowRankPayload(tuple(out))


def stack_lbgm(worker, payload, delta):
    """The look-back step on a compressed payload: gate its densified form
    against the worker's densified LBG. Returns (msg, sin2)."""
    return lbgm.look_back(worker, payload, payload.densify(), delta)


def majority_sign(acc: ParamVector) -> ParamVector:
    return np.where(acc >= 0, 1.0, -1.0)


@dataclass
class CompressedPolicy:
    """Uplink policy transmitting compressed gradients, optionally gated.

    `compress` maps a gradient to its payload. delta=None is the plain
    compressor baseline: every round ships the payload, and the stored
    look-back copy only feeds the drift monitor. With a delta, rounds whose
    densified payload stays within the gate send a single scalar instead.
    Error feedback, when enabled, tracks only the compressor's truncation
    (the gate's own error is not fed back).
    """

    compress: Callable
    delta: Optional[float] = None
    error_feedback: bool = False
    server_transform: Optional[Callable] = None

    def process(self, worker, g: ParamVector):
        if self.error_feedback:
            if worker.ef_residual is None:
                worker.ef_residual = np.zeros_like(g)
            payload, worker.ef_residual = ef_wrap(worker.ef_residual, g, self.compress)
        else:
            payload = self.compress(g)
        return stack_lbgm(worker, payload, self.delta)
