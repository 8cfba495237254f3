"""The accounting definition of an uplink's wire cost, kept apart from the
payloads' own cost_floats so that a run's ledger can be audited against it."""

from fedlbg import lbgm
from fedlbg.compressors import LowRankPayload, SignPayload, SparsePayload


def ledger_cost(msg) -> tuple:
    """Accounting definition: (floats, bits) for one uplink message.

    Recomputed from the sizes of the message's arrays, independently of the
    payloads' own cost_floats, so ledgers can be audited against it.
    """
    p = msg.payload
    if p is None:
        return 1.0, 32.0
    if isinstance(p, lbgm.DensePayload):
        m = p.values.shape[0]
        return float(m), 32.0 * m
    if isinstance(p, SparsePayload):
        k = len(p.indices)
        return 2.0 * k, 64.0 * k
    if isinstance(p, SignPayload):
        return p.dim / 32.0, float(p.dim)
    if isinstance(p, LowRankPayload):
        f = float(sum(sum(a.size for a in b) if isinstance(b, tuple) else b.size
                      for b in p.blocks))
        return f, 32.0 * f
    raise ValueError(f"cannot cost message with payload {type(p).__name__}")
