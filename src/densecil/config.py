"""Shared numeric tolerances and small config errors.

All comparison tolerances used by tests and runtime checks live in one
record so they can be audited (and tightened) in a single place.
"""

from __future__ import annotations

from dataclasses import dataclass


class ConfigError(ValueError):
    """Raised when a configuration value violates a documented precondition."""


@dataclass(frozen=True)
class Tolerances:
    fd_rel: float = 1e-4        # finite-difference gradient check, relative
    fd_step: float = 1e-5       # central-difference step
    row_sum: float = 1e-6       # softmax / attention row normalization
    matmul: float = 1e-12       # vs. triple-loop oracle
    layer_norm: float = 1e-10   # vs. two-pass oracle
    attention: float = 1e-8     # vs. naive per-head loop oracle
    block: float = 1e-8         # full block vs. straight-line oracle
    ia_reduction: float = 1e-10  # masked joint attention vs. independent path
    mlp_reduction: float = 1e-6  # all-ones attention vs. generalized MLP
    loss: float = 1e-10         # loss values vs. direct-summation oracles


TOL = Tolerances()
