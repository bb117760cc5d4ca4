"""Learned teacher-side explainers for student scaffolding.

The package trains a small frozen teacher, learns which of its
attention heads to combine into token saliency maps so that a student
distilled with those maps simulates the teacher better, and evaluates
explainers by simulability and plausibility.
"""

from .autodiff import Tensor, backward, no_grad, sparsemax
from .explainers import ExplainerParams, Saliency
from .model import MiniTransformer, ModelConfig
from .training import TrainConfig, TrainState, train

__version__ = "0.1.0"

__all__ = [
    "ExplainerParams",
    "MiniTransformer",
    "ModelConfig",
    "Saliency",
    "Tensor",
    "TrainConfig",
    "TrainState",
    "__version__",
    "backward",
    "no_grad",
    "sparsemax",
    "train",
]
