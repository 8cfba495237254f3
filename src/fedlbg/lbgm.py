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

from .numerics import ParamVector, cosine_sim, dot, norm_sq

TAG_SCALAR = "scalar_lbc"
TAG_FULL = "full_gradient"
TAG_COMPRESSED = "compressed_full"

FLOAT_BITS = 32  # wire width used by the communication ledger


@dataclass(frozen=True)
class UplinkMessage:
    """One worker-to-server transmission with its exact wire cost."""

    tag: str
    rho: float = 0.0
    payload: object = None  # ndarray for full sends, compressor payload otherwise
    cost_floats: float = 0.0
    cost_bits: float = 0.0


def check_delta(delta: Optional[float]) -> Optional[float]:
    """Return the gate threshold (None: no gate), or raise outside [0, 1]."""
    if delta is not None and not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta threshold {delta} not in [0, 1]")
    return delta


def scalar_message(rho: float) -> UplinkMessage:
    return UplinkMessage(TAG_SCALAR, rho=float(rho), cost_floats=1, cost_bits=FLOAT_BITS)


def full_gradient_message(g: ParamVector) -> UplinkMessage:
    m = g.shape[0]
    return UplinkMessage(
        TAG_FULL, payload=g.copy(), cost_floats=m, cost_bits=FLOAT_BITS * m
    )


def compressed_message(payload) -> UplinkMessage:
    return UplinkMessage(
        TAG_COMPRESSED,
        payload=payload,
        cost_floats=payload.cost_floats,
        cost_bits=payload.cost_bits,
    )


def lbp_error(g: ParamVector, lbg: ParamVector) -> float:
    """Squared sine of the angle between g and the look-back gradient.

    Zero current gradient has no direction to miss, so the error is 0;
    a zero LBG cannot represent a nonzero gradient, so the error is 1,
    which forces a full transmission through any gate with delta < 1.
    """
    if g.shape != lbg.shape:
        raise ValueError(f"dimension mismatch: {g.shape} vs {lbg.shape}")
    if norm_sq(g) == 0.0:
        return 0.0
    if norm_sq(lbg) == 0.0:
        return 1.0
    c = cosine_sim(g, lbg)
    return 1.0 - c * c


def lbc(g: ParamVector, lbg: ParamVector) -> float:
    """Scalar projection coefficient of g onto span(lbg)."""
    denom = norm_sq(lbg)
    if denom == 0.0:
        raise ValueError("look-back coefficient undefined for a zero LBG")
    return dot(g, lbg) / denom


def _gate(g: ParamVector, lbg: Optional[ParamVector], delta: float):
    """Return (send_scalar, rho). Handles the zero-norm edge cases."""
    if lbg is None:
        return False, 0.0
    if norm_sq(g) == 0.0:
        return True, 0.0  # rho = 0 reconstructs the zero gradient exactly
    if norm_sq(lbg) == 0.0:
        return False, 0.0
    if lbp_error(g, lbg) <= delta:
        return True, lbc(g, lbg)
    return False, 0.0


def decide_message(g: ParamVector, lbg: Optional[ParamVector], delta: float) -> UplinkMessage:
    """Pick scalar vs full transmission for one worker uplink.

    The first round (no LBG yet) always sends the full gradient. The
    caller must mirror a full send into the worker's stored LBG.
    """
    send_scalar, rho = _gate(g, lbg, delta)
    if send_scalar:
        return scalar_message(rho)
    return full_gradient_message(g)


def reconstruct(server, worker_id: int, msg: UplinkMessage) -> ParamVector:
    """Recover the uplinked gradient at the server, updating its LBG copy.

    Scalar messages replay rho times the stored copy and leave it
    untouched; full and compressed messages replace the stored copy with
    the (densified) transmitted gradient.
    """
    if msg.tag == TAG_SCALAR:
        stored = server.lbg_copies.get(worker_id)
        if stored is None:
            raise ValueError(
                f"scalar LBC from worker {worker_id} but no server-side LBG"
            )
        return msg.rho * stored
    if msg.tag == TAG_FULL:
        g = msg.payload
    elif msg.tag == TAG_COMPRESSED:
        g = msg.payload.densify()
    else:
        raise ValueError(f"unknown uplink tag {msg.tag!r}")
    server.lbg_copies[worker_id] = g.copy()
    return g


class LbgmPolicy:
    """Uplink policy on raw accumulated gradients: the look-back gate, or
    with delta=None always the full gradient (vanilla). Both keep the LBG,
    so the drift monitor of a delta = 0 run matches vanilla bit for bit."""

    server_transform = None

    def __init__(self, delta: Optional[float]):
        self.delta = check_delta(delta)

    def process(self, worker, g: ParamVector):
        sin2 = lbp_error(g, worker.lbg) if worker.lbg is not None else 0.0
        if self.delta is None:
            msg = full_gradient_message(g)
        else:
            msg = decide_message(g, worker.lbg, self.delta)
        if msg.tag == TAG_FULL:
            worker.lbg = g.copy()
        return msg, sin2
