"""Optimisers and learning-rate policy."""

from .adam import Adam, AdamState
from .lr_schedule import PlateauScheduler, scaled_initial_lr

__all__ = [
    "Adam",
    "AdamState",
    "PlateauScheduler",
    "scaled_initial_lr",
]
