"""Text file formats for priors, channels, gains and sample sets.

Channel file: first line ``|X| |Y|``, then |X| lines of |Y| decimals.
Prior file: a single line of |X| decimals.
Gain file: first line ``|W| |X|``, then |W| lines (original, unshifted units).
SampleSet file: CSV lines ``x_label,y_encoding``.
WeightedSampleSet file: CSV lines ``w_label,y_encoding,weight``.

Tuple observable encodings are serialized with ``|`` between components.
Floats are written with repr, which round-trips exactly.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .core import Alphabet, Channel, GainFunction, Prior, SampleSet, ValidationError
from .preprocess import WeightedSampleSet


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
    if len(header) != 2 or not all(tok.isdigit() for tok in header):
        raise ValidationError(f"{path}: expected '<rows> <cols>' header")
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


def read_channel(
    path: str | Path,
    input_alphabet: Alphabet | None = None,
    output_alphabet: Alphabet | None = None,
) -> Channel:
    matrix = _read_matrix(Path(path), "channel")
    if input_alphabet is None:
        input_alphabet = Alphabet.integers(matrix.shape[0])
    if output_alphabet is None:
        output_alphabet = Alphabet.integers(matrix.shape[1])
    return Channel(input_alphabet, output_alphabet, matrix)


def write_gain(gain: GainFunction, path: str | Path) -> None:
    lines = [f"{gain.guesses.size} {gain.secrets.size}"]
    lines.extend(_fmt_row(row) for row in gain.original())
    Path(path).write_text("\n".join(lines) + "\n")


def read_gain(
    path: str | Path,
    guesses: Alphabet | None = None,
    secrets: Alphabet | None = None,
    value_range: tuple[float, float] | None = None,
) -> GainFunction:
    matrix = _read_matrix(Path(path), "gain")
    if guesses is None:
        guesses = Alphabet.integers(matrix.shape[0], prefix="w")
    if secrets is None:
        secrets = Alphabet.integers(matrix.shape[1])
    return GainFunction(guesses, secrets, matrix, value_range)


def _encode_obs(row: np.ndarray) -> str:
    return "|".join(str(int(v)) for v in row)


def _decode_obs(token: str, path: Path) -> list[int]:
    try:
        return [int(part) for part in token.split("|")]
    except ValueError:
        raise ValidationError(f"{path}: malformed observable encoding {token!r}") from None


def write_samples(samples: SampleSet, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for x, y in zip(samples.xs, samples.ys):
            writer.writerow([samples.secrets.label(int(x)), _encode_obs(y)])


def _read_rows(
    path: str | Path, alphabet: Alphabet, header: str, empty: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Label indices, observables and integer weights of ``header`` CSV rows.

    Blank rows are skipped; the weights column is empty unless ``header``
    has a third field.
    """
    path = Path(path)
    labels: list[int] = []
    ys: list[list[int]] = []
    weights: list[int] = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if len(row) != header.count(",") + 1:
                raise ValidationError(f"{path}: expected '{header}' rows")
            labels.append(alphabet.index(row[0]))
            ys.append(_decode_obs(row[1], path))
            try:
                weights.extend(int(tok) for tok in row[2:])
            except ValueError:
                raise ValidationError(f"{path}: weight must be an integer") from None
    if not labels:
        raise ValidationError(f"{path}: no {empty}")
    if len({len(y) for y in ys}) != 1:
        raise ValidationError(f"{path}: inconsistent observable widths")
    return np.array(labels), np.array(ys), np.array(weights)


def read_samples(path: str | Path, secrets: Alphabet) -> SampleSet:
    xs, ys, _ = _read_rows(path, secrets, "x_label,y_encoding", "samples")
    return SampleSet(secrets, xs, ys)


def write_weighted(weighted: WeightedSampleSet, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for w, y, wt in zip(weighted.ws, weighted.ys, weighted.weights):
            writer.writerow(
                [weighted.guesses.label(int(w)), _encode_obs(y), int(wt)]
            )


def read_weighted(path: str | Path, guesses: Alphabet) -> WeightedSampleSet:
    ws, ys, weights = _read_rows(path, guesses, "w_label,y_encoding,weight", "entries")
    return WeightedSampleSet(guesses, ws, ys, weights)
