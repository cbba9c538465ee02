"""Steering-network inference, salience-mask backprojection, and the
shift-experiment harness, with a synthetic-road trainer to produce models
worth explaining."""

__version__ = "0.1.0"

from .config import NetworkConfig, default_config, load_config, save_config, toy_config, validate_config
from .network import ActivationTrace, SteeringOutput, forward
from .saliency import VisualizationMask, compute_mask, overlay
from .tensor import ConvGeometry, ShapeError, Tensor
from .weights import WeightSet, init_weights, load_weights, save_weights

__all__ = [
    "ActivationTrace",
    "ConvGeometry",
    "NetworkConfig",
    "ShapeError",
    "SteeringOutput",
    "Tensor",
    "VisualizationMask",
    "WeightSet",
    "__version__",
    "compute_mask",
    "default_config",
    "forward",
    "init_weights",
    "load_config",
    "load_weights",
    "overlay",
    "save_config",
    "save_weights",
    "toy_config",
    "validate_config",
]
