"""Deep residual echo state networks: untrained recurrent stacks with
orthogonal temporal shortcuts, their stability analysis, and a benchmark
harness."""

from .numerics import RngStream
from .readout import ReadoutModel, accuracy, fit, nrmse, predict
from .reservoir import (
    DeepReservoir,
    Layer,
    LayerConfig,
    ResidualKind,
    StateTrajectory,
    allocate_units,
    build_deep_reservoir,
    build_layer,
    build_residual,
    forward,
    readout_features,
    step,
)
from .stability import StabilityReport, stability_report

__all__ = [
    "RngStream",
    "ReadoutModel",
    "accuracy",
    "fit",
    "nrmse",
    "predict",
    "DeepReservoir",
    "Layer",
    "LayerConfig",
    "ResidualKind",
    "StateTrajectory",
    "allocate_units",
    "build_deep_reservoir",
    "build_layer",
    "build_residual",
    "forward",
    "readout_features",
    "step",
    "StabilityReport",
    "stability_report",
]

__version__ = "0.1.0"
