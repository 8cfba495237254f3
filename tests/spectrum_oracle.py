"""An independent reference for the analyzer's component counts.

For each prefix of a (T, M) gradient stack it takes a direct SVD of the
prefix itself: no Gram matrix, and an eps-relative cutoff below which a
singular value counts as zero. It gives (n95, n99) under either
convention: singular mass (the raw singular values, as `npca.csv` counts)
or explained variance (their squares). It shares no code with fedlbg and
imports none of it.

Each call also returns its smallest margin: the least distance, as a
fraction of the total, between a cumulative mass and a target. A
mismatch with a small margin is a near-tie that rounding may decide
either way; one with a large margin is a fault.
"""

import numpy as np

TARGETS = (0.95, 0.99)
# a cumulative mass this fraction of the total short of a target reaches
# it, so that exact ties are not lost to rounding
TIE = 1e-12


def counts(stack: np.ndarray, squared: bool = False) -> tuple:
    """((n95, n99), margin) of one stack: the fewest leading components
    whose mass reaches each target, 0 for a stack with no mass."""
    t, m = stack.shape
    s = np.linalg.svd(stack, compute_uv=False) if t else np.zeros(0)
    if s.size:
        s = np.where(s < max(t, m) * np.finfo(np.float64).eps * s.max(), 0.0, s)
    mass = s * s if squared else s
    total = mass.sum()
    if total == 0.0:
        return (0,) * len(TARGETS), np.inf
    reached = np.cumsum(np.sort(mass)[::-1]) / total
    found = tuple(int(np.count_nonzero(reached < v - TIE)) + 1 for v in TARGETS)
    return found, float(np.abs(reached[:, None] - np.array(TARGETS)).min())


def prefix_rows(stack: np.ndarray, squared: bool = False) -> tuple:
    """([(epoch, n95, n99)] for the prefix of epochs 0..epoch, for every
    epoch), and the smallest margin over every prefix."""
    rows, margin = [], np.inf
    for t in range(1, len(stack) + 1):
        found, prefix_margin = counts(stack[:t], squared)
        rows.append((t - 1, *found))
        margin = min(margin, prefix_margin)
    return rows, margin


def directions(stack: np.ndarray, count: int) -> tuple:
    """(vectors, values, tolerances): the `count` leading right singular
    vectors of a stack, as the rows of a (count, M) array, with signs as the
    SVD gives them; their singular values; and for each the distance within
    which a backward-stable route, such as an SVD of the stack itself,
    agrees with it up to sign. By Davis-Kahan that is max(T, M) * eps times
    the largest singular value, over the gap between its singular value and
    the nearest other one (0 past the last). A route through the Gram
    matrix, stack @ stack.T, is not backward stable with respect to the
    stack: its error in vector i may be larger by a further s1 / s_i."""
    t, m = stack.shape
    _, s, vt = np.linalg.svd(stack, full_matrices=False)
    padded = np.concatenate([[np.inf], s, [0.0]])
    gaps = np.minimum(padded[:-2] - padded[1:-1], padded[1:-1] - padded[2:])[:count]
    return vt[:count], s[:count], max(t, m) * np.finfo(np.float64).eps * s[0] / gaps
