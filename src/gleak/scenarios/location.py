"""Location-privacy scenario: grid prior, obfuscation channel, diamond gain.

Locations are the cells of a GRID_SIDE x GRID_SIDE grid of CELL_M-meter
cells; the setup is fixed by the module constants.  The prior comes from a Gowalla check-in dump restricted to a square
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
from ..knn import DistanceMetric
from . import Scenario

KM_PER_DEGREE_LAT = 111.32
GRID_SIDE = 20  # cells per side of the reference grid
CELL_M = 250.0
GAMMA = 4.0  # diamond gain of an exact guess
ALPHA = 0.95  # diamond decay per cell
MECHANISM_NU = 0.5
REGION_CENTER = (37.755, -122.440)  # San Francisco, (lat, lon)
REGION_SIDE_KM = 5.0
LAT_COL, LON_COL = 2, 3  # fields of a Gowalla check-in record


def _offset_distances(rows: int, cols: int, cell_m: float) -> np.ndarray:
    """(rows, cols) table: entry [dr, dc] is the Euclidean distance between
    the centers of two cell_m cells dr rows and dc columns apart.

    Precondition: the cell centers (i * cell_m + cell_m / 2) and their
    differences are exact floats, as they are for cell_m = 250 m or 1 cell
    on any grid in use here.  The distance then depends only on the two
    offsets, and each entry has the bits that the difference of the two
    centers' coordinates gives.
    """
    dr = np.arange(rows) * cell_m
    dc = np.arange(cols) * cell_m
    return np.sqrt(dr[:, None] * dr[:, None] + dc[None, :] * dc[None, :])


def _by_offset(table: np.ndarray) -> np.ndarray:
    """(cells, cells) matrix over the row-major cells of a (rows, cols) grid
    whose entry for cells (r, c) and (r', c') is table[|r - r'|, |c - c'|].

    It is filled one grid row r at a time from the column blocks
    blocks[d, c, c'] = table[d, |c - c'|]: the (cols, cells) rows of cells
    in grid row r are blocks[|r - r'|, c, c'], read in (c, r', c') order.
    """
    rows, cols = table.shape
    dr = np.abs(np.subtract.outer(np.arange(rows), np.arange(rows)))
    dc = np.abs(np.subtract.outer(np.arange(cols), np.arange(cols)))
    blocks = table[:, dc]
    out = np.empty((rows, cols, rows, cols), dtype=table.dtype)
    for r in range(rows):
        out[r] = blocks[dr[r]].transpose(1, 0, 2)
    return out.reshape(rows * cols, rows * cols)


def _cell_alphabet(rows: int, cols: int, cells: Alphabet | None) -> Alphabet:
    """``cells``, or the integer labels of the rows * cols cells when None."""
    return Alphabet.integers(rows * cols) if cells is None else cells


def diamond_gain(
    rows: int = GRID_SIDE, cols: int = GRID_SIDE, cells: Alphabet | None = None
) -> GainFunction:
    """g(w, x) = round(GAMMA * exp(-ALPHA * d(w, x) / CELL_M)), over the
    ``cells`` alphabet as both guesses and secrets (by default, integer
    labels).

    d is the Euclidean distance in meters between cell centers.  Rounding is
    half-up (floor(v + 0.5)); no value in the reference configuration lands
    on an exact half, so this matches ordinary rounding and is deterministic.
    The profile is evaluated once per (row, column) offset.
    """
    dist = _offset_distances(rows, cols, CELL_M)
    values = np.floor(GAMMA * np.exp(-ALPHA * dist / CELL_M) + 0.5)
    alphabet = _cell_alphabet(rows, cols, cells)
    return GainFunction(alphabet, alphabet, _by_offset(values))


def grid_geometric_mechanism(
    rows: int, cols: int, nu: float, cells: Alphabet | None = None
) -> Channel:
    """C[x, y] proportional to exp(-nu * d(x, y)) with d in cell units, over
    the ``cells`` alphabet as input and output (by default, integer labels).

    The weights are evaluated once per (row, column) offset; each row of the
    full matrix is then normalized.
    """
    _require(nu > 0, "nu must be positive")
    dist = _offset_distances(rows, cols, 1.0)
    rows_mat = _by_offset(np.exp(-nu * dist))
    rows_mat /= rows_mat.sum(axis=1, keepdims=True)
    alphabet = _cell_alphabet(rows, cols, cells)
    return Channel(alphabet, alphabet, rows_mat)


@dataclass(frozen=True)
class GowallaIngest:
    prior: Prior
    in_region: int
    total: int


def gowalla_ingest(path: str, cells: Alphabet | None = None) -> GowallaIngest:
    """Count check-ins per cell of the reference grid inside its square
    region; the prior is over ``cells`` (by default, integer labels).

    The dump has whitespace/tab-separated records (user, timestamp,
    latitude, longitude, location-id).  The region is the square of side
    REGION_SIDE_KM centered at REGION_CENTER; its edges are included.
    Check-ins exactly on an interior cell boundary belong to the lower-index
    cell: index = min(max(ceil(offset_cells) - 1, 0), GRID_SIDE - 1) per
    axis, with row 0 at the south edge.
    """
    lat0, lon0 = REGION_CENTER
    side, half = REGION_SIDE_KM, REGION_SIDE_KM / 2.0
    km_per_lon = KM_PER_DEGREE_LAT * math.cos(math.radians(lat0))
    cell_km = side / GRID_SIDE
    last = GRID_SIDE - 1
    counts = np.zeros((GRID_SIDE, GRID_SIDE))
    total = 0
    in_region = 0
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read check-in dump: {exc}") from None
    with fh:
        for line in fh:
            parts = line.split()
            if len(parts) <= max(LAT_COL, LON_COL):
                continue
            total += 1
            try:
                lat = float(parts[LAT_COL])
                lon = float(parts[LON_COL])
            except ValueError:
                continue
            north_km = (lat - lat0) * KM_PER_DEGREE_LAT + half
            east_km = (lon - lon0) * km_per_lon + half
            if not (0.0 <= north_km <= side and 0.0 <= east_km <= side):
                continue
            in_region += 1
            r = min(max(math.ceil(north_km / cell_km) - 1, 0), last)
            c = min(max(math.ceil(east_km / cell_km) - 1, 0), last)
            counts[r, c] += 1
    if in_region == 0:
        raise ValidationError("no check-ins inside the region")
    prior = Prior(_cell_alphabet(GRID_SIDE, GRID_SIDE, cells), counts.ravel() / in_region)
    return GowallaIngest(prior=prior, in_region=in_region, total=total)


def synthetic_prior(rows: int, cols: int, cells: Alphabet | None = None) -> Prior:
    """Two-hotspot Gaussian mixture over the grid's ``cells`` (by default,
    integer labels); documented stand-in used when no check-in dump is
    available."""
    r, c = np.divmod(np.arange(rows * cols), cols)
    spots = [((0.3 * rows, 0.3 * cols), 0.6), ((0.7 * rows, 0.65 * cols), 0.4)]
    dens = np.zeros(rows * cols)
    for (r0, c0), weight in spots:
        dens += weight * np.exp(-((r - r0) ** 2 + (c - c0) ** 2) / (2 * 2.5**2))
    return Prior(_cell_alphabet(rows, cols, cells), dens / dens.sum())


def build(gowalla_path: str | None) -> Scenario:
    """The reference grid with the Gowalla prior when a dump is given, the
    synthetic prior otherwise.  Prior, channel and gain share one cell
    alphabet, so the checks that they match compare one object."""
    cells = Alphabet.integers(GRID_SIDE**2)
    if gowalla_path is not None:
        prior = gowalla_ingest(gowalla_path, cells).prior
    else:
        prior = synthetic_prior(GRID_SIDE, GRID_SIDE, cells)
    channel = grid_geometric_mechanism(GRID_SIDE, GRID_SIDE, MECHANISM_NU, cells)
    gain = diamond_gain(cells=cells)
    return Scenario(
        name="location",
        prior=prior,
        channel=channel,
        gain=gain,
        exact_vg=posterior_vulnerability(prior, channel, gain),
        metric=DistanceMetric("euclidean", grid_codec(GRID_SIDE, GRID_SIDE)),
    )
