"""KGE models with closed-form NumPy gradients."""

from .base import KGEModel
from .complex_model import ComplEx
from .distmult import DistMult
from .loss import logistic_loss, sigmoid, softplus

MODEL_REGISTRY = {
    "complex": ComplEx,
    "distmult": DistMult,
}


def make_model(name: str, n_entities: int, n_relations: int, dim: int,
               seed: int = 0, **kwargs) -> KGEModel:
    """Instantiate a registered model by name."""
    try:
        cls = MODEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; choose from {sorted(MODEL_REGISTRY)}"
        ) from None
    return cls(n_entities, n_relations, dim, seed=seed, **kwargs)


__all__ = [
    "ComplEx",
    "DistMult",
    "KGEModel",
    "MODEL_REGISTRY",
    "logistic_loss",
    "make_model",
    "sigmoid",
    "softplus",
]
