"""Finite-difference check of the models' closed-form gradients."""

import numpy as np

from fedlbg.data import Dataset
from fedlbg.models import Model, forward_loss, gradient
from fedlbg.numerics import ParamVector


def fd_check(model: Model, theta: ParamVector, batch: Dataset, eps: float) -> float:
    """Max relative error of the analytic gradient vs central differences."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    g = gradient(model, theta, batch)
    fd = np.empty_like(g)
    for i in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[i] = eps
        fd[i] = (
            forward_loss(model, theta + step, batch)
            - forward_loss(model, theta - step, batch)
        ) / (2.0 * eps)
    denom = np.maximum(1.0, np.maximum(np.abs(g), np.abs(fd)))
    return float(np.max(np.abs(g - fd) / denom))
