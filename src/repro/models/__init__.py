"""The KGE model, ComplEx, with closed-form NumPy gradients."""

from .base import KGEModel
from .complex_model import ComplEx
from .loss import logistic_loss, sigmoid, softplus

__all__ = [
    "ComplEx",
    "KGEModel",
    "logistic_loss",
    "sigmoid",
    "softplus",
]
