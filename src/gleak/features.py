"""Feature codecs: observable encodings -> real vectors for the learners."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import _require


@dataclass(frozen=True)
class FeatureCodec:
    """Maps (n, width) integer observable encodings to (n, dim) float features.

    ``scale`` is set when the features are the encodings times that one
    number, which the k-NN's integer ball search relies on.
    """

    dim: int
    transform: Callable[[np.ndarray], np.ndarray]
    scale: float | None = None

    def encode(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        _require(ys.ndim == 2, "observable encodings must be 2-D")
        out = np.asarray(self.transform(ys), dtype=np.float64)
        _require(out.shape == (ys.shape[0], self.dim), "codec output shape mismatch")
        return out


def scalar_codec(scale: float = 1.0, offset: float = 0.0) -> FeatureCodec:
    """Width-1 encoding mapped affinely to a scalar feature."""

    def transform(ys: np.ndarray) -> np.ndarray:
        return ys[:, :1] * scale + offset

    return FeatureCodec(1, transform)


def grid_codec(rows: int, cols: int) -> FeatureCodec:
    """Flat cell index -> (row, col) divided by the grid size."""
    div = float(max(rows, cols))

    def transform(ys: np.ndarray) -> np.ndarray:
        idx = ys[:, 0]
        return np.stack([idx // cols, idx % cols], axis=1) / div

    return FeatureCodec(2, transform)


def tuple_codec(width: int, scale: float) -> FeatureCodec:
    """Integer tuple encodings scaled componentwise."""

    def transform(ys: np.ndarray) -> np.ndarray:
        return ys * scale

    return FeatureCodec(width, transform, scale)
