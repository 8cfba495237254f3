"""Gradient compressors (top-k, sign, per-layer low-rank) and the
plug-and-play stacking that runs the look-back gate on compressed payloads.

Every payload knows its exact wire cost in floats and can densify itself
back to a flat length-M vector. When stacking, the gate compares the
densified compressed gradient against the densified compressed look-back
gradient; a passing round costs one scalar instead of the payload.
"""

from dataclasses import dataclass

import numpy as np

from . import lbgm
from .numerics import ParamVector, leads_negative

FLOAT_BITS = lbgm.FLOAT_BITS


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
        return self.dim / FLOAT_BITS

    def densify(self) -> ParamVector:
        signs = np.unpackbits(self.bits)[: self.dim]
        return np.where(signs == 1, 1.0, -1.0)


@dataclass(frozen=True)
class LowRankPayload:
    # per block: ("lowrank", U, V) with block ~= U @ V.T, or ("dense", values)
    blocks: tuple
    shapes: tuple  # (rows, cols) per block, matching the model's layout
    dim: int

    @property
    def cost_floats(self) -> float:
        total = 0
        for kind, *parts in self.blocks:
            if kind == "lowrank":
                u, v = parts
                total += u.size + v.size
            else:
                total += parts[0].size
        return total

    def densify(self) -> ParamVector:
        flats = []
        for (kind, *parts), (rows, cols) in zip(self.blocks, self.shapes):
            if kind == "lowrank":
                u, v = parts
                flats.append((u @ v.T).reshape(rows * cols))
            else:
                flats.append(parts[0].reshape(rows * cols))
        return np.concatenate(flats)


def topk(g: ParamVector, k: int) -> SparsePayload:
    """Keep the k largest-magnitude entries; ties go to the lower index."""
    m = g.shape[0]
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range [1, {m}]")
    order = np.argsort(-np.abs(g), kind="stable")  # stable: ties by index
    keep = np.sort(order[:k])
    return SparsePayload(keep.astype(np.int64), g[keep], m)


def ef_wrap(residual: ParamVector, g: ParamVector, compress):
    """Error-feedback step: compress g plus the carried residual.

    Returns (payload, new_residual) with the conservation identity
    densify(payload) + new_residual == g + residual holding exactly for
    sparsifying compressors (kept coordinates cancel bit for bit).
    """
    if residual.shape != g.shape:
        raise ValueError(f"dimension mismatch: {residual.shape} vs {g.shape}")
    p = g + residual
    payload = compress(p)
    new_residual = p - payload.densify()
    return payload, new_residual


def sign_compress(g: ParamVector) -> SignPayload:
    """One sign bit per coordinate, with sign(0) = +1."""
    bits = (g >= 0).astype(np.uint8)
    return SignPayload(np.packbits(bits), g.shape[0])


def _fix_signs(u: np.ndarray, v: np.ndarray):
    """Flip factor pairs so each left singular vector starts positive."""
    for i in range(u.shape[1]):
        if leads_negative(u[:, i]):
            u[:, i] = -u[:, i]
            v[:, i] = -v[:, i]
    return u, v


def rank_r(g: ParamVector, layer_shapes, r: int) -> LowRankPayload:
    """Best rank-r approximation of each matrix-shaped block via SVD.

    Vector blocks (biases) pass through dense; r is clamped per block to
    min(rows, cols).
    """
    if r < 1:
        raise ValueError("rank must be >= 1")
    blocks = []
    off = 0
    for rows, cols in layer_shapes:
        size = rows * cols
        block = g[off : off + size].reshape(rows, cols)
        off += size
        if min(rows, cols) <= 1:
            blocks.append(("dense", block.copy()))
            continue
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        r_eff = min(r, rows, cols)
        u_r = u[:, :r_eff] * s[:r_eff]
        v_r = vt[:r_eff].T.copy()
        u_r, v_r = _fix_signs(u_r, v_r)
        blocks.append(("lowrank", u_r, v_r))
    if off != g.shape[0]:
        raise ValueError("layer shapes do not cover the gradient vector")
    return LowRankPayload(tuple(blocks), tuple(layer_shapes), g.shape[0])


def stack_lbgm(worker, payload, delta):
    """The look-back step on a compressed payload: gate its densified form
    against the worker's densified LBG. Returns (msg, sin2)."""
    return lbgm.look_back(worker, payload, payload.densify(), delta)


def majority_sign(acc: ParamVector) -> ParamVector:
    return np.where(acc >= 0, 1.0, -1.0)


class CompressedPolicy:
    """Uplink policy transmitting compressed gradients, optionally gated.

    `compress` maps a gradient to its payload. delta=None is the plain
    compressor baseline: every round ships the payload, and the stored
    look-back copy only feeds the drift monitor. With a delta, rounds whose
    densified payload stays within the gate send a single scalar instead.
    Error feedback, when enabled, tracks only the compressor's truncation
    (the gate's own error is not fed back).
    """

    def __init__(self, compress, delta=None, error_feedback=False, server_transform=None):
        self.compress = compress
        self.delta = lbgm.check_delta(delta)
        self.error_feedback = error_feedback
        self.server_transform = server_transform

    def process(self, worker, g: ParamVector):
        if self.error_feedback:
            if worker.ef_residual is None:
                worker.ef_residual = np.zeros_like(g)
            payload, worker.ef_residual = ef_wrap(worker.ef_residual, g, self.compress)
        else:
            payload = self.compress(g)
        return stack_lbgm(worker, payload, self.delta)
