"""The content order as it was first written, a dense rank per row: the
oracle that `data.content_order` sorts rows as a stable argsort of these
ranks does."""

import numpy as np


def content_rank(inputs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Dense rank of each (label, input) row in bytewise order: equal rows
    share a rank, so a stable argsort of ranks is a stable sort of rows."""
    rows = np.column_stack([np.asarray(labels, dtype=np.float64), inputs])
    keys = rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel()
    return np.unique(keys, return_inverse=True)[1]
