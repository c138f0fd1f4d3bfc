"""Location-privacy scenario: grid prior, obfuscation channel, diamond gain.

Locations are cells of a rows x cols grid (250 m sides in the reference
setup).  The prior comes from a Gowalla check-in dump restricted to a square
region, or from a synthetic two-hotspot mixture when no dump is supplied.
The obfuscation mechanism is a planar geometric channel on cell distance
(a stand-in: the estimation pipeline is mechanism-agnostic and accepts any
channel matrix file).  The gain rewards guesses near the true cell with the
rounded-exponential "diamond" profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import (
    Alphabet,
    Channel,
    GainFunction,
    Prior,
    ValidationError,
    _require,
    posterior_vulnerability,
)
from ..features import grid_codec
from . import Scenario

KM_PER_DEGREE_LAT = 111.32


@dataclass(frozen=True)
class GridScenarioConfig:
    rows: int = 20
    cols: int = 20
    cell_m: float = 250.0
    gamma: float = 4.0
    alpha: float = 0.95
    mechanism_nu: float = 0.5

    def __post_init__(self) -> None:
        _require(self.rows >= 1 and self.cols >= 1, "grid sizes must be >= 1")
        _require(self.cell_m > 0, "cell size must be positive")
        _require(self.mechanism_nu > 0, "mechanism nu must be positive")


def _cell_centers_m(rows: int, cols: int, cell_m: float) -> np.ndarray:
    r, c = np.divmod(np.arange(rows * cols), cols)
    return np.stack([r, c], axis=1) * cell_m + cell_m / 2.0


def diamond_gain(
    rows: int = 20,
    cols: int = 20,
    gamma: float = 4.0,
    alpha: float = 0.95,
    cell_m: float = 250.0,
) -> GainFunction:
    """g(w, x) = round(gamma * exp(-alpha * d(w, x) / cell_m)).

    d is the Euclidean distance in meters between cell centers.  Rounding is
    half-up (floor(v + 0.5)); no value in the reference configuration lands
    on an exact half, so this matches ordinary rounding and is deterministic.
    """
    centers = _cell_centers_m(rows, cols, cell_m)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    values = np.floor(gamma * np.exp(-alpha * dist / cell_m) + 0.5)
    alphabet = Alphabet.integers(rows * cols)
    return GainFunction(alphabet, alphabet, values, value_range=(0.0, gamma))


def grid_geometric_mechanism(
    rows: int = 20, cols: int = 20, nu: float = 0.5
) -> Channel:
    """C[x, y] proportional to exp(-nu * d(x, y)) with d in cell units."""
    _require(nu > 0, "nu must be positive")
    centers = _cell_centers_m(rows, cols, 1.0)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    rows_mat = np.exp(-nu * dist)
    rows_mat /= rows_mat.sum(axis=1, keepdims=True)
    alphabet = Alphabet.integers(rows * cols)
    return Channel(alphabet, alphabet, rows_mat)


@dataclass(frozen=True)
class GowallaIngest:
    prior: Prior
    in_region: int
    total: int


def gowalla_ingest(
    path: str,
    center: tuple[float, float] = (37.755, -122.440),
    side_km: float = 5.0,
    rows: int = 20,
    cols: int = 20,
    lat_col: int = 2,
    lon_col: int = 3,
) -> GowallaIngest:
    """Count check-ins per grid cell inside a square region.

    The dump has whitespace/tab-separated records (user, timestamp,
    latitude, longitude, location-id by default).  The region is the square
    of side ``side_km`` centered at ``center``; its edges are included.
    Check-ins exactly on an interior cell boundary belong to the lower-index
    cell: index = min(max(ceil(offset_cells) - 1, 0), size - 1) per axis,
    with row 0 at the south edge.
    """
    lat0, lon0 = center
    half = side_km / 2.0
    km_per_lon = KM_PER_DEGREE_LAT * math.cos(math.radians(lat0))
    cell_km = side_km / rows
    counts = np.zeros((rows, cols))
    total = 0
    in_region = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read check-in dump: {exc}") from None
    with fh:
        for line in fh:
            parts = line.split()
            if len(parts) <= max(lat_col, lon_col):
                continue
            total += 1
            try:
                lat = float(parts[lat_col])
                lon = float(parts[lon_col])
            except ValueError:
                continue
            north_km = (lat - lat0) * KM_PER_DEGREE_LAT + half
            east_km = (lon - lon0) * km_per_lon + half
            if not (0.0 <= north_km <= side_km and 0.0 <= east_km <= side_km):
                continue
            in_region += 1
            r = min(max(math.ceil(north_km / cell_km) - 1, 0), rows - 1)
            c = min(max(math.ceil(east_km / (side_km / cols)) - 1, 0), cols - 1)
            counts[r, c] += 1
    if in_region == 0:
        raise ValidationError("no check-ins inside the region")
    prior = Prior(Alphabet.integers(rows * cols), counts.ravel() / in_region)
    return GowallaIngest(prior=prior, in_region=in_region, total=total)


def synthetic_prior(rows: int = 20, cols: int = 20) -> Prior:
    """Two-hotspot Gaussian mixture over the grid; documented stand-in used
    when no check-in dump is available."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    spots = [((0.3 * rows, 0.3 * cols), 0.6), ((0.7 * rows, 0.65 * cols), 0.4)]
    dens = np.zeros(rows * cols)
    for (r0, c0), weight in spots:
        dens += weight * np.exp(-((r - r0) ** 2 + (c - c0) ** 2) / (2 * 2.5**2))
    return Prior(Alphabet.integers(rows * cols), dens / dens.sum())


def build(
    profile: str = "desk", gowalla_path: str | None = None, **overrides
) -> Scenario:
    config = GridScenarioConfig(**overrides)
    if gowalla_path is not None:
        ingest = gowalla_ingest(gowalla_path, rows=config.rows, cols=config.cols)
        prior = ingest.prior
        prior_source = f"gowalla:{ingest.in_region}/{ingest.total}"
    else:
        prior = synthetic_prior(config.rows, config.cols)
        prior_source = "synthetic"
    channel = grid_geometric_mechanism(config.rows, config.cols, config.mechanism_nu)
    gain = diamond_gain(
        config.rows, config.cols, config.gamma, config.alpha, config.cell_m
    )
    exact = posterior_vulnerability(prior, channel, gain)
    return Scenario(
        name="location",
        prior=prior,
        channel=channel,
        gain=gain,
        exact_vg=exact,
        codec=grid_codec(config.rows, config.cols),
        metric_kind="euclidean",
        details={"prior_source": prior_source, "mechanism_nu": config.mechanism_nu},
    )
