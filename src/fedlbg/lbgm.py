"""Look-back gradient recycling: coefficients, the threshold gate, and
server-side reconstruction.

Each worker keeps the last full gradient it transmitted (its look-back
gradient, LBG). When a new accumulated gradient g points in nearly the
same direction — squared-sine error sin^2(angle(g, lbg)) at or below the
threshold delta — the worker sends only the scalar projection coefficient
rho = <g, lbg> / ||lbg||^2 and the server replays rho * lbg in place of
the full vector. Otherwise the worker sends the full gradient, and both
sides replace their LBG copy with it.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import ParamVector, cosine_sim, dot, is_zero, norm_sq

TAG_SCALAR = "scalar_lbc"
TAG_PAYLOAD = "payload"

FLOAT_BITS = 32  # wire width used by the communication ledger


@dataclass(frozen=True)
class DensePayload:
    """A full gradient on the wire: M floats."""

    values: np.ndarray

    @property
    def cost_floats(self) -> float:
        return self.values.shape[0]

    def densify(self) -> ParamVector:
        return self.values


@dataclass(frozen=True)
class UplinkMessage:
    """One worker-to-server transmission: the scalar look-back coefficient
    rho, or, when a payload is set, a gradient payload (dense or
    compressed) that densifies to a length-M vector."""

    rho: float = 0.0
    payload: object = None

    @property
    def tag(self) -> str:
        return TAG_SCALAR if self.payload is None else TAG_PAYLOAD

    @property
    def cost_floats(self) -> float:
        return 1 if self.payload is None else self.payload.cost_floats


def lbp_error(g: ParamVector, lbg: ParamVector) -> float:
    """Squared sine of the angle between g and the look-back gradient.

    Zero current gradient has no direction to miss, so the error is 0; a
    nonzero one whose squared norm under- or overflows has an angle. A zero
    LBG, or one whose squared norm underflows, cannot give a coefficient,
    so the error is 1, which forces a full transmission through any gate
    with delta < 1.
    """
    if is_zero(g):
        return 0.0
    if norm_sq(lbg) == 0.0:
        return 1.0
    c = cosine_sim(g, lbg)
    return 1.0 - c * c


def lbc(g: ParamVector, lbg: ParamVector) -> float:
    """Scalar projection coefficient of g onto span(lbg), for an LBG whose
    squared norm is nonzero: `look_back` asks for it only then."""
    denom = norm_sq(lbg)  # before <g, lbg>: the traced order of the dot calls
    return dot(g, lbg) / denom


def look_back(worker, payload, dense: ParamVector, delta: Optional[float]):
    """The worker side of the look-back rule for one uplink of `payload`,
    whose densified form is `dense`. Returns (msg, sin2): sin2 is the
    look-back error against the worker's LBG (0 before its first send); msg
    is the scalar rho when the gate passes, else the payload (always with
    delta=None), and a payload send stores `dense`, read-only, as the LBG.
    """
    lbg = worker.lbg
    sin2 = 0.0 if lbg is None else lbp_error(dense, lbg)
    # the gate repeats sin2's reductions: the benchmark's traced call counts pin them
    if lbg is not None and delta is not None:
        if is_zero(dense):
            return UplinkMessage(rho=0.0), sin2  # rho = 0 reconstructs zero exactly
        if norm_sq(lbg) != 0.0 and lbp_error(dense, lbg) <= delta:  # a zero LBG forces the payload
            return UplinkMessage(rho=lbc(dense, lbg)), sin2
    dense.setflags(write=False)
    worker.lbg = dense
    return UplinkMessage(payload=payload), sin2


def reconstruct(lbg_copies: dict, worker_id: int, msg: UplinkMessage) -> ParamVector:
    """Recover the uplinked gradient at the server from `lbg_copies`, its
    copy of each worker's LBG by worker id.

    Scalar messages replay rho times the stored copy and leave it
    untouched; payload messages replace the stored copy with the densified
    transmitted gradient, read-only like the worker's.
    """
    if msg.payload is None:
        stored = lbg_copies.get(worker_id)
        if stored is None:
            raise ValueError(
                f"scalar LBC from worker {worker_id} but no server-side LBG"
            )
        return msg.rho * stored
    g = msg.payload.densify()
    g.setflags(write=False)
    lbg_copies[worker_id] = g
    return g


@dataclass
class LbgmPolicy:
    """Uplink policy on raw accumulated gradients: the look-back gate, or
    with delta=None always the full gradient (vanilla). Both keep the LBG,
    so the drift monitor of a delta = 0 run matches vanilla bit for bit."""

    delta: Optional[float]
    server_transform = None

    def process(self, worker, g: ParamVector):
        return look_back(worker, DensePayload(g), g, self.delta)
