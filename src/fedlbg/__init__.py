"""Deterministic federated-learning simulator with look-back gradient
recycling, stackable gradient compressors, and gradient-space PCA analysis.
"""

from .fl_core import build_experiment, run_with_policy
from .harness import ExperimentConfig, parse_config, policy_for, run, simulate

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "run",
    "simulate",
    "policy_for",
    "build_experiment",
    "run_with_policy",
    "__version__",
]
