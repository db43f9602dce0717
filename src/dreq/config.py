"""Setting bundles of the model stages, apart from the code that runs them so
that the CLI checks a config at start-up without loading that code (the
modules that use them re-export them)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = ["DimsConfig", "TrainConfig", "WeightingMode"]


@dataclass(frozen=True)
class DimsConfig:
    """Embedding dimensions: k = query-conditioned entity encodings,
    m = entities, n = text passages, p = queries (and the hybrid space)."""

    k: int = 32
    m: int = 32
    n: int = 32
    p: int = 32

    def __post_init__(self) -> None:
        for name in ("k", "m", "n", "p"):
            if getattr(self, name) < 1:
                raise ValueError(f"dimension {name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-5
    batch_size: int = 20
    epochs: int = 20
    seed: int = 13
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    finetune_entity_embeddings: bool = False
    early_stop_delta: float = 1e-5
    early_stop_patience: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.learning_rate < math.inf:  # NaN is not
            raise ValueError(
                f"train.learning_rate must be a positive finite number, got {self.learning_rate}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"train.epochs must be >= 1, got {self.epochs}")


class WeightingMode(str, Enum):
    PROBABILITY = "probability"
    UNIFORM = "uniform"
    RECIPROCAL_RANK = "reciprocal_rank"
    NONE = "none"  # no entities: v_e = 0


def _unit_lambda(lam: float) -> float:
    """`lam`, if it is a GEEER interpolation weight: in [0, 1], NaN not."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"geeer lambda must be in [0, 1], got {lam}")
    return lam
