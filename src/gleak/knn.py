"""Modified k-nearest-neighbors over distinct observables.

Instead of searching neighbors among all training samples, the index holds
the l distinct observables with an (l, W) table of integer guess tallies,
which ``knn_train`` takes as each method counts it (``estimation.fit``);
k = max(1, floor(ln l)).  A query aggregates the tallies of its k nearest
distinct observables (all observables tied at the k-th distance included)
and returns the weighted majority guess, lowest index on ties.

The k-NN measures each observable's integer point (``FeatureCodec.points``)
as an exact float, never the codec's features: integer distances tie
exactly where scaled or divided ones round apart, so every observable at
the k-th distance votes whatever the codec.  ``euclidean`` distances are
kept squared, which ranks them alike and keeps them integers.  The index
checks that every distance it can measure is an exact float, on its points
and on each call's queries (``KnnClassifier._check_exact``).

Three kernels answer queries, all to the same bits:

* under the 1-D ``absolute`` metric, a window of the sorted points around
  each query finds its k-th distance, and two sorted searches for
  q - kth and q + kth find its tied run, with no (q, l) matrix at all;
* under ``manhattan`` over distinct integer rows, each query walks the
  integer L1 shells around it, looking the shells' mixed-radix keys
  (``core._key_frame``) up among the rows' keys, and stops at the first
  radius whose ball holds k rows; all rows of that last shell lie at the
  k-th distance, so they all vote, and no distance is computed.  Most
  candidate keys are misses.  A row table of the rows' hashed keys, 16 or
  more slots per row, holds in each slot the row whose key lies there: one
  gather turns nearly every miss away and names each other key's one
  candidate row, which a key comparison confirms; only the keys of the few
  slots that two rows' keys share go to a sorted search (see
  ``_Lattice.find``).  Each shell's offsets are built once per (dim,
  radius) in lexicographic order, which is their key order in every frame
  the lattice builds;
* every other query, and every query whose k nearest lie beyond the
  lattice's radius (its ball would hold more than l points), is answered in
  blocks of ``QUERY_CHUNK`` against every indexed observable, by the one
  distance kernel ``_distances``.  A block's votes read the tallies of
  only the rows some of its queries include, about k per query, not all l.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import EXACT_INTEGER, _as_counts, _freeze, _key_frame, _KeyFrame, _require
from .features import FeatureCodec

METRIC_KINDS = ("absolute", "euclidean", "manhattan")
QUERY_CHUNK = 32  # queries per (q, l) distance block: 1 MB at l = 4,000, in cache
# shell keys looked up per step of the lattice search: 256 kB of int64
LATTICE_CANDIDATES = 2**15
MAX_RADIUS = 16  # shells walked at most, which bounds a search's numpy calls
# the row table has the least power-of-two number of slots >= this many
# per indexed row; a key's slot is the top bits of key * HASH_MULTIPLIER
# mod 2**64 (Fibonacci hashing: 2**64 over the golden ratio, odd)
OCCUPANCY_SLOTS_PER_ROW = 16
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
EMPTY, SHARED = -1, -2  # row-table entries of a slot with no row's key, and with several


def _distances(kind: str, left, right, shape: tuple[int, ...]) -> np.ndarray:
    """sum_d |left[d] - right[d]| under ``manhattan``, the sum of squares
    under ``euclidean``; ``left[d]`` and ``right[d]`` broadcast to
    ``shape``.

    One buffer is filled a dimension at a time: difference, abs (or
    square), then added to the sum, so no (..., dim) temporary is built.
    The terms are summed left to right.
    """
    out = np.empty(shape)
    term = np.empty_like(out) if len(left) > 1 else out
    magnitude = np.square if kind == "euclidean" else np.abs
    for d, (a, b) in enumerate(zip(left, right)):
        dest = out if d == 0 else term
        np.subtract(a, b, out=dest)
        magnitude(dest, out=dest)
        if d:
            np.add(out, term, out=out)
    return out


@dataclass(frozen=True)
class DistanceMetric:
    """Named metric over codec features: absolute (1-D), euclidean, manhattan."""

    kind: str
    codec: FeatureCodec

    def __post_init__(self) -> None:
        _require(self.kind in METRIC_KINDS, f"unknown metric kind {self.kind!r}")
        if self.kind == "absolute":
            _require(self.codec.dim == 1, "absolute metric needs scalar features")

    def pairwise(self, queries: np.ndarray, points: np.ndarray) -> np.ndarray:
        """(q, dim) x (l, dim) -> (q, l) distances, squared under
        ``euclidean``: the same order as the distances, and exact integers
        between integer points.

        The terms are summed left to right, which is the order of
        ``.sum(axis=2)`` over fewer than eight dimensions; from eight on,
        numpy's pairwise sum groups them differently.
        """
        shape = (queries.shape[0], points.shape[0])
        return _distances(self.kind, queries.T[:, :, None], np.ascontiguousarray(points.T), shape)


def k_for(l: int) -> int:
    """Neighbor count rule: max(1, floor(ln l))."""
    _require(l >= 1, "l must be >= 1")
    return max(1, int(math.floor(math.log(l))))


@dataclass(frozen=True, eq=False)
class _Lattice:
    """An index's integer rows as sorted mixed-radix keys, with a row table
    of their hashed keys.

    The key frame reaches ``2 * radius`` past the rows' box, so it holds
    every point within ``radius`` of a query within ``radius`` of the box.
    A key's slot is the top bits of the key times ``HASH_MULTIPLIER``,
    wrapped mod 2**64 and shifted right by ``shift``.  ``occupied[slot]``
    holds the row whose key lies in that slot, ``EMPTY`` where no row's key
    does and ``SHARED`` where two or more rows' keys do.
    """

    radius: int
    frame: _KeyFrame
    keys: np.ndarray  # sorted, then a sentinel above every key
    order: np.ndarray  # the row of each sorted key
    row_keys: np.ndarray  # the key of each row
    occupied: np.ndarray  # int32, one entry per slot: a row, EMPTY or SHARED
    shift: np.uint64  # 64 less the slot bits

    def slots(self, keys: np.ndarray) -> np.ndarray:
        """The slot of each int64 key, negative ones included."""
        slot = keys.view(np.uint64) * HASH_MULTIPLIER
        slot >>= self.shift
        return slot.view(np.intp)  # below 2**63: indexes without a cast

    def find(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The flat positions in ``wanted`` (ascending) of the keys that are
        rows' keys, and those rows.

        One gather reads each key's slot, and only the keys whose slot is
        not ``EMPTY`` stay: the others cannot be rows' keys, as every row's
        key lies in its slot.  A slot's row is the candidate for its keys;
        the keys of a ``SHARED`` slot find theirs by the sorted search.
        Every candidate is then confirmed by an equality against its row's
        key.  Any int64 key but the sentinel may be asked, also one outside
        the frame.
        """
        flat = wanted.ravel()
        entries = self.occupied[self.slots(flat)]
        maybe = np.flatnonzero(entries != EMPTY)
        rows = entries[maybe].astype(np.intp)
        candidates = flat[maybe]
        shared = np.flatnonzero(rows == SHARED)
        if shared.size:
            pos = np.searchsorted(self.keys, candidates[shared])
            # past the last key the sentinel's position has no row: any row
            # serves there, as the confirmation turns the key away
            rows[shared] = self.order[np.minimum(pos, self.order.size - 1)]
        hit = self.row_keys[rows] == candidates
        return maybe[hit], rows[hit]


def _ball_size(dim: int, r: int) -> int:
    """Integer points within L1 distance r of a point in ``dim`` dimensions."""
    return sum(2**i * math.comb(dim, i) * math.comb(r, i) for i in range(min(dim, r) + 1))


@functools.lru_cache(maxsize=None)
def _shell(dim: int, r: int) -> np.ndarray:
    """The (n, dim) integer offsets of L1 norm exactly r, in lexicographic
    order, as a read-only int8 array (r <= ``MAX_RADIUS``) built once per
    (dim, r): each first coordinate v in [-r, r], followed by the offsets
    of norm r - |v| in dim - 1 dimensions.

    In a key frame whose spans all exceed 2r, lexicographic order is the
    order of the offsets' keys ``_shell(dim, r) @ frame.strides``: two
    offsets first differ at some d by at least one ``strides[d]``, and their
    later coordinates differ by at most 2r in total, each unit worth at most
    ``strides[d + 1]``, which is less than ``strides[d] / 2r``.
    """
    if dim == 1:
        return _freeze(np.array([[-r], [r]] if r else [[0]], dtype=np.int8))
    blocks = []
    for v in range(-r, r + 1):
        rest = _shell(dim - 1, r - abs(v))
        blocks.append(np.column_stack([np.full(rest.shape[0], v, dtype=np.int8), rest]))
    return _freeze(np.concatenate(blocks))


def _lattice_index(points: np.ndarray, metric: DistanceMetric) -> _Lattice | None:
    """The lattice of a ``manhattan`` index over distinct integer rows, or
    None where its search would not be exact or not pay.

    The radius is the largest r (at most ``MAX_RADIUS``) whose ball holds at
    most l points: a farther query costs more to search than the l
    distances of the blocked path.  The blocked path's distances are exact
    (``KnnClassifier`` checks them), so both paths include the same rows.
    Repeated rows, or a key frame reaching ``KEY_LIMIT``, leave the index
    to the blocked path.  The frame's spans are at least 4 * radius
    + 1, so every shell walked is in key order (``_shell``).

    The row table has 2**b slots, 2**b the least power of two at least
    ``OCCUPANCY_SLOTS_PER_ROW`` * l (256 kB of int32 at l = 4,000), so at
    most one slot in 16 holds a row and about 15 in 16 missing keys stop
    there.  The slots that two or more rows' keys share (26 and 370 of
    65,536 in two dp indexes at m = 10,000) are found by sorting the l
    rows' slots, with no temporary the table's size, and marked ``SHARED``.
    The table is exact, not a guess: a row's key always finds its row or
    ``SHARED`` in its slot, so no hit is lost, and every candidate is
    confirmed against its row's key.
    """
    l, dim = points.shape
    if metric.kind != "manhattan":
        return None
    radius = 0
    while radius < MAX_RADIUS and _ball_size(dim, radius + 1) <= l:
        radius += 1
    rows = points.astype(np.int64)
    frame = _key_frame(rows.min(axis=0) - 2 * radius, rows.max(axis=0) + 2 * radius)
    if frame is None:
        return None
    row_keys = frame.keys(rows)
    order = np.argsort(row_keys)
    keys = row_keys[order]
    if (keys[1:] == keys[:-1]).any():
        return None
    bits = (OCCUPANCY_SLOTS_PER_ROW * l - 1).bit_length()
    lattice = _Lattice(
        radius,
        frame,
        np.append(keys, np.iinfo(np.int64).max),
        order,
        row_keys,
        np.full(2**bits, EMPTY, dtype=np.int32),
        np.uint64(64 - bits),
    )
    slots = lattice.slots(row_keys)
    lattice.occupied[slots] = np.arange(l, dtype=np.int32)
    slots.sort()
    lattice.occupied[slots[1:][slots[1:] == slots[:-1]]] = SHARED
    return lattice


class KnnClassifier:
    """Immutable trained model: distinct-observable index + tallies.

    ``features`` are the codec's integer points, as floats.  ``tallies``
    are counts (``core._as_counts``), kept as float64.  Under the 1-D
    ``absolute`` metric the features are also kept sorted, with prefix sums
    of their tallies; under ``manhattan`` over distinct integer rows, their
    lattice keys.
    """

    __slots__ = (
        "features", "tallies", "k", "metric", "n_guesses", "_box", "_sorted", "_cum", "_lattice"
    )

    def __init__(
        self,
        features: np.ndarray,
        tallies: np.ndarray,
        k: int,
        metric: DistanceMetric,
    ) -> None:
        self.features = _freeze(features)
        self.tallies = _freeze(_as_counts(tallies, "k-NN"))
        self.k = k
        self.metric = metric
        self.n_guesses = tallies.shape[1]
        _require(
            bool((self.features == np.trunc(self.features)).all()),
            "k-NN features must be integer points",
        )
        self._box = (np.inf, -np.inf)
        self._box = self._check_exact(self.features)  # the points' own box
        self._sorted = self._cum = None
        if metric.kind == "absolute":
            order = np.argsort(self.features[:, 0], kind="stable")
            self._sorted = self.features[order, 0]
            self._cum = np.zeros((order.size + 1, self.n_guesses))
            np.cumsum(self.tallies[order], axis=0, out=self._cum[1:])
        self._lattice = _lattice_index(self.features, metric)

    @property
    def n_indexed(self) -> int:
        return int(self.features.shape[0])

    def _check_exact(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The box of the points and ``rows``, after checking that every
        distance among them is an exact float: each coordinate below 2**53
        in magnitude (2**53 + 1 reads as 2**53), and the box's spans, summed
        over dimensions (squared under ``euclidean``), at most 2**53, which
        bounds every coordinate difference and partial sum."""
        cols = np.ascontiguousarray(rows.T)  # reduced in one pass per dimension
        lows = np.minimum(self._box[0], cols.min(axis=1, initial=np.inf))
        highs = np.maximum(self._box[1], cols.max(axis=1, initial=-np.inf))
        lo, hi = lows.tolist(), highs.tolist()
        power = 2 if self.metric.kind == "euclidean" else 1
        _require(
            max(-min(lo), max(hi)) < EXACT_INTEGER
            and sum((int(b) - int(a)) ** power for a, b in zip(lo, hi)) <= EXACT_INTEGER,
            f"k-NN {self.metric.kind} distances reach past float64's exact integers",
        )
        return lows, highs

    def predict(self, ys: np.ndarray) -> np.ndarray:
        queries = self.metric.codec.points(ys).astype(np.float64)
        self._check_exact(queries)
        k = min(self.k, self.n_indexed)
        if self._sorted is not None:
            return np.argmax(self._run_votes(queries[:, 0], k), axis=1)
        if self._lattice is None:
            return self._blocked_guesses(queries, k)
        answered, votes = self._lattice_votes(queries, k)
        out = np.argmax(votes, axis=1)
        rest = np.flatnonzero(~answered)
        out[rest] = self._blocked_guesses(queries[rest], k)
        return out

    def _blocked_guesses(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Guesses from every (q, l) distance, ``QUERY_CHUNK`` queries at a time.

        Each block's votes are ``included[:, cols] @ tallies[cols]``, where
        ``cols`` lists the rows some query of the block includes.  They
        equal the dense ``included @ tallies`` bit for bit: ``included``
        holds only 0.0 and 1.0, and the tallies are integer counts whose
        column totals are below 2**53, so every partial sum is exact in any
        order, and the columns dropped add exact zeros.
        """
        out = np.empty(queries.shape[0], dtype=np.int64)
        for start in range(0, queries.shape[0], QUERY_CHUNK):
            block = queries[start : start + QUERY_CHUNK]
            dists = self.metric.pairwise(block, self.features)
            kth = np.partition(dists, k - 1, axis=1)[:, k - 1]
            # 1.0 where a row is within the k-th distance (all ties included),
            # written over the distances
            included = np.less_equal(dists, kth[:, None], out=dists)
            cols = np.flatnonzero(included.any(axis=0))
            votes = included[:, cols] @ self.tallies[cols]
            out[start : start + QUERY_CHUNK] = np.argmax(votes, axis=1)
        return out

    def _lattice_votes(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Which queries the lattice search answers, and the (q, n_guesses)
        votes of those (zero for the rest).

        Radius by radius, the open queries add the shell's key offsets to
        their own key, ``LATTICE_CANDIDATES`` keys per step, and find them
        among the rows' keys (``_Lattice.find``).  Every row found votes:
        it lies at an integer distance no greater than the k-th.  A query
        whose ball now holds k rows is answered, its k-th distance the
        shell's radius.  Queries outside the frame are not searched.
        """
        lat, frame = self._lattice, self._lattice.frame
        n, dim = queries.shape
        near = frame.lows + lat.radius  # the rows' box widened by the radius
        far = frame.lows + frame.spans - 1 - lat.radius
        inside = ((queries >= near) & (queries <= far)).all(axis=1)
        rows = np.tile(frame.lows, (n, 1))  # key 0 for the queries not searched
        rows[inside] = queries[inside]
        centre = frame.keys(rows)
        found = np.zeros(n, dtype=np.int64)  # rows within the radius so far
        votes = np.zeros((n, self.n_guesses))
        pending = np.flatnonzero(inside)
        for r in range(lat.radius + 1):
            if pending.size == 0:
                break
            shell = _shell(dim, r) @ frame.strides  # key offsets, ascending
            step = max(1, LATTICE_CANDIDATES // shell.size)
            for start in range(0, pending.size, step):
                part = pending[start : start + step]
                flat, hit = lat.find(centre[part, None] + shell)
                who = flat // shell.size  # ascending
                if who.size:
                    starts = np.flatnonzero(np.diff(who, prepend=-1))
                    votes[part[who[starts]]] += np.add.reduceat(
                        self.tallies[hit], starts, axis=0
                    )
                found[part] += np.bincount(who, minlength=part.size)
            pending = pending[found[pending] < k]
        return found >= k, votes

    def _run_votes(self, q: np.ndarray, k: int) -> np.ndarray:
        """Votes of 1-D queries without a (q, l) matrix.

        Along the sorted points f, |f_i - q| falls to the insertion point
        of q and rises after it, so the k nearest lie among the k points on
        either side, and {i : |f_i - q| <= kth} is the run [lo, hi) of the
        points in [q - kth, q + kth].  A query past either end is moved to
        that end, which keeps its neighbours.  Each distance is exact
        (``_check_exact``), and so is q -/+ kth up to 2**53 in magnitude;
        past it, it rounds to 2**53 or beyond, still past every point, so
        the two searches find the run exactly.  Its votes are a difference
        of prefix sums, exact for integer counts.
        """
        f = self._sorted
        l = f.size
        q = np.clip(q, f[0], f[-1])
        pos = np.searchsorted(f, q)
        window = pos[:, None] + np.arange(-k, k)
        near = np.abs(f[np.clip(window, 0, l - 1)] - q[:, None])
        near[(window < 0) | (window >= l)] = np.inf
        kth = np.partition(near, k - 1, axis=1)[:, k - 1]
        lo = np.searchsorted(f, q - kth)
        hi = np.searchsorted(f, q + kth, side="right")
        return self._cum[hi] - self._cum[lo]


def knn_train(distinct: np.ndarray, tallies: np.ndarray, metric: DistanceMetric) -> KnnClassifier:
    """The classifier over distinct observable rows and their (l, W) guess tallies."""
    points = metric.codec.points(distinct).astype(np.float64)
    return KnnClassifier(points, tallies, k_for(distinct.shape[0]), metric)
