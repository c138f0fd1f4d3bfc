"""Text file formats for priors, channels, gains and sample sets.

Channel file: first line ``|X| |Y|``, then |X| lines of |Y| decimals.
Prior file: a single line of |X| decimals.
Gain file: first line ``|W| |X|``, then |W| lines (original, unshifted units).
SampleSet file (read): CSV lines ``x_label,y_encoding``.
Weighted file (written): CSV lines ``w_label,y_encoding,weight``, one per
positive cell of a (guess, observable) table, guess-major, then by row.

Tuple observable encodings are serialized with ``|`` between components.
Floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import Alphabet, Channel, GainFunction, PairTable, Prior, SampleSet, ValidationError

ENCODING_RANGE = range(-(2**63), 2**63)  # an encoding component is an int64


def _fmt_row(row: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in row)


def _parse_floats(line: str, path: Path) -> list[float]:
    try:
        return [float(tok) for tok in line.split()]
    except ValueError as exc:
        raise ValidationError(f"{path}: malformed numeric line: {exc}") from None


def _read_matrix(path: Path, kind: str) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise ValidationError(f"{path}: empty {kind} file")
    header = lines[0].split()
    if len(header) != 2 or not all(tok.isdecimal() and int(tok) > 0 for tok in header):
        raise ValidationError(f"{path}: expected a '<rows> <cols>' header of positive sizes")
    n_rows, n_cols = int(header[0]), int(header[1])
    if len(lines) != 1 + n_rows:
        raise ValidationError(f"{path}: expected {n_rows} matrix rows")
    rows = [_parse_floats(ln, path) for ln in lines[1:]]
    if any(len(row) != n_cols for row in rows):
        raise ValidationError(f"{path}: row width does not match header")
    return np.array(rows)


def write_prior(prior: Prior, path: str | Path) -> None:
    Path(path).write_text(_fmt_row(prior.probs) + "\n")


def read_prior(path: str | Path, alphabet: Alphabet | None = None) -> Prior:
    path = Path(path)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) != 1:
        raise ValidationError(f"{path}: prior file must contain exactly one line")
    probs = _parse_floats(lines[0], path)
    if alphabet is None:
        alphabet = Alphabet.integers(len(probs))
    return Prior(alphabet, np.array(probs))


def write_channel(channel: Channel, path: str | Path) -> None:
    lines = [f"{channel.input.size} {channel.output.size}"]
    lines.extend(_fmt_row(row) for row in channel.rows)
    Path(path).write_text("\n".join(lines) + "\n")


def read_channel(path: str | Path) -> Channel:
    matrix = _read_matrix(Path(path), "channel")
    return Channel(
        Alphabet.integers(matrix.shape[0]), Alphabet.integers(matrix.shape[1]), matrix
    )


def read_gain(path: str | Path, secrets: Alphabet | None = None) -> GainFunction:
    matrix = _read_matrix(Path(path), "gain")
    if secrets is None:
        secrets = Alphabet.integers(matrix.shape[1])
    return GainFunction(Alphabet.integers(matrix.shape[0], prefix="w"), secrets, matrix)


def read_samples(path: str | Path, secrets: Alphabet) -> SampleSet:
    """The ``x_label,y_encoding`` rows of a CSV file; blank rows are skipped."""
    path = Path(path)
    xs: list[int] = []
    ys: list[list[int]] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if len(row) != 2:
                raise ValidationError(f"{path}: expected 'x_label,y_encoding' rows")
            xs.append(secrets.index(row[0]))
            try:
                encoding = [int(part) for part in row[1].split("|")]
                if not all(v in ENCODING_RANGE for v in encoding):
                    raise ValueError("component outside int64")
            except ValueError:
                raise ValidationError(
                    f"{path}: malformed observable encoding {row[1]!r}"
                ) from None
            ys.append(encoding)
    if not xs:
        raise ValidationError(f"{path}: no samples")
    if len({len(y) for y in ys}) != 1:
        raise ValidationError(f"{path}: inconsistent observable widths")
    return SampleSet(secrets, np.array(xs), np.array(ys))


def write_weighted(table: PairTable, path: str | Path) -> int:
    """Write the table's positive cells; returns how many."""
    ws, rows = np.nonzero(table.tallies.T)  # guess-major, then row order
    weights = table.tallies[rows, ws].tolist()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for w, y, wt in zip(ws.tolist(), table.distinct[rows].tolist(), weights):
            writer.writerow([table.guesses.label(w), "|".join(map(str, y)), int(wt)])
    return len(weights)
