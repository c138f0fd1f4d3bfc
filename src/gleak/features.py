"""Feature codecs: observable encodings -> integer points -> real features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _require


@dataclass(frozen=True)
class FeatureCodec:
    """Maps (n, width) integer observable encodings to (n, dim) int64
    points, which the k-NN measures, and to (n, dim) float features, which
    the MLP trains on.

    The points are the encodings themselves (width ``dim``) or, for a grid
    (``cols`` set), each flat cell index's (row, col) = divmod(index,
    cols).  The features are (points * scale + offset) / divisor.  A codec
    leaves the operations it does not need at 1 or 0, which change no bit:
    a product or quotient by 1 is exact, and adding 0 only turns -0.0 into
    0.0, which no positive scale produces.
    """

    dim: int
    scale: float = 1.0
    offset: float = 0.0
    divisor: float = 1.0
    cols: int = 0

    def points(self, ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=np.int64)
        width = 1 if self.cols else self.dim
        _require(
            ys.ndim == 2 and ys.shape[1] == width,
            f"observable encodings must be (n, {width}) integer rows",
        )
        if self.cols:
            return np.stack(np.divmod(ys[:, 0], self.cols), axis=1)
        return ys

    def encode(self, ys: np.ndarray) -> np.ndarray:
        return (self.points(ys) * self.scale + self.offset) / self.divisor


def scalar_codec(scale: float = 1.0, offset: float = 0.0) -> FeatureCodec:
    """Width-1 encoding y, the feature y * scale + offset."""
    return FeatureCodec(1, scale=scale, offset=offset)


def grid_codec(rows: int, cols: int) -> FeatureCodec:
    """Flat cell index -> (row, col), the features divided by the grid size."""
    return FeatureCodec(2, divisor=float(max(rows, cols)), cols=cols)


def tuple_codec(width: int, scale: float) -> FeatureCodec:
    """Integer tuple encodings, the features scaled componentwise."""
    return FeatureCodec(width, scale=scale)
