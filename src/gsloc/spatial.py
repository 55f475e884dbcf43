"""Cell-list search for GPS fixes within a fixed radius of each other.

Each fix becomes its 3-D unit vector (``geodesy.unit_vectors``), and the
vectors are binned into cubes whose side is the chord that ``cell_m`` meters
of great circle subtend. Two fixes at most ``cell_m`` apart are at most that
chord apart on every axis, so they lie in the same or adjacent cubes, wherever
they are on the sphere: the poles and the antimeridian need no special case.
This is the cell list for fixed-radius near neighbors (Bentley, Stanat &
Williams, IPL 1977) laid over n-vectors (Gade, J. Navigation 2010). Candidate
pairs are then verified with exact haversine distances by the caller.

The index is a sorted cell index rather than a dict of cells: points are
argsorted by cube key, and neighbor cubes are found with ``searchsorted``, so
both scans are array operations with Python loops only over chunks.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .geodesy import EARTH_RADIUS_M, haversine_m_vectorized, unit_vectors

# Bound on the working set of one chunk of candidate pairs, from the index
# expansion that yields it through the caller's exact-distance step on it
# (coordinate gathers and haversine temporaries, in graph.distance_pairs and
# in min_distance_within_reach_m alike). A chunk holds _PAIR_CHUNK_BYTES //
# _PAIR_BYTES pairs: tracemalloc puts the step's peak near 80 bytes a pair in
# the query filter and 50 in the distance kernel. The size was picked by
# paired fresh-process runs, since the heap that the chunks leave resident is
# what later stages build on: 4 MiB chunks took the benchmark's `city` peak
# RSS 3 MB below 16 MiB ones and left `localize` no higher, and 2 MiB chunks
# raised the `localize` peak again.
_PAIR_CHUNK_BYTES = 4 << 20
_PAIR_BYTES = 160

# Smallest cube side on the unit sphere, about 12 m. With a cube of padding on
# each side an axis has at most 2**20 + 3 cubes, so cube keys fit in int64.
_MIN_SIDE = 2.0 ** -19


def index_dtype(count: int) -> type[np.signedinteger]:
    """int32 when every index below ``count`` fits it, else int64: the
    width that scipy keeps for sparse indices, and that point indices are
    held at from the cell list to the graph's coordinates."""
    return np.int32 if count <= np.iinfo(np.int32).max else np.int64


def _spans(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions first[s] .. first[s] + length[s] - 1, concatenated over
    s, and the s each one came from."""
    seg = np.repeat(np.arange(length.size), length)
    before = np.cumsum(length) - length
    return seg, np.arange(seg.size) - before[seg] + first[seg]


class LatLonGrid:
    """Cell list of GPS fixes in cubes over their unit vectors.

    The index is one sorted array: points are argsorted by the cube key
    ``(x * n + y) * n + z``, so each occupied cube is a run of that order,
    and so are the three cubes z - 1 .. z + 1 at one (x, y). A neighbor scan
    therefore needs one ``searchsorted`` run per (x, y) offset, nine in all,
    for all cubes or queries at once.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray, cell_m: float):
        if cell_m <= 0.0:
            raise ValueError(f"cell size must be positive, got {cell_m}")
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lons = np.asarray(lons, dtype=np.float64)
        self.cell_m = float(cell_m)
        # The slack keeps rounding in the unit vectors from splitting a pair
        # that the exact distance keeps.
        half_angle = min(self.cell_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0)
        self._side = max(2.0 * math.sin(half_angle) + 1e-12, _MIN_SIDE)
        self._n = int(2.0 / self._side) + 3
        keys = self._cube_keys(self.lats, self.lons)
        # Stable, so members of a cube stay in ascending point order.
        self._order = np.argsort(keys, kind="stable").astype(index_dtype(keys.size))
        self._keys, start = np.unique(keys[self._order], return_index=True)
        # Occupied cube c holds the sorted points _bounds[c] .. _bounds[c+1]-1.
        self._bounds = np.append(start, self._order.size)

    def _cube_keys(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        x, y, z = (np.floor((axis + 1.0) / self._side).astype(np.int64) + 1
                   for axis in unit_vectors(lats, lons))
        return (x * self._n + y) * self._n + z

    def _runs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-point runs (first, length) of the cubes z - 1 .. z + 1 at
        each (x, y) offset around each key's cube: nine per key, offset-major.
        Cube coordinates run from 1 to n - 2, so no offset spills over into
        another (x, y)."""
        n = self._n
        shifts = np.array([(dx * n + dy) * n for dx in (-1, 0, 1) for dy in (-1, 0, 1)])
        around = (shifts[:, None] + keys).ravel()
        first = self._bounds[np.searchsorted(self._keys, around - 1, side="left")]
        end = self._bounds[np.searchsorted(self._keys, around + 1, side="right")]
        return first, end - first

    def _expand(self, left: np.ndarray, first: np.ndarray,
                length: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (left, point) chunks pairing each ``left[s]`` with the points
        at sorted positions ``first[s] .. first[s] + length[s] - 1``.

        A chunk holds about ``_PAIR_CHUNK_BYTES // _PAIR_BYTES`` pairs; a run
        is never split, so a chunk may overshoot by one run.
        """
        keep = length > 0
        left, first, length = left[keep], first[keep], length[keep]
        if not left.size:
            return
        ends = np.cumsum(length)
        budget = max(1, _PAIR_CHUNK_BYTES // _PAIR_BYTES)
        cuts = np.searchsorted(ends, np.arange(budget, int(ends[-1]), budget), side="right")
        bounds = np.unique(np.concatenate([[0], cuts, [left.size]]))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            seg, pos = _spans(first[lo:hi], length[lo:hi])
            chunk = left[lo:hi][seg], self._order[pos]
            del seg, pos  # not held while the caller works on the chunk
            yield chunk

    def pair_chunks(self, reach_m: float) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield (i, j) index-array chunks covering every pair within reach_m, i < j.

        Pairs may be farther than reach_m (candidates only, never missed);
        no pair is emitted twice: each point is joined with every point of
        the 27 cubes around its own, and of each pair only (i < j) is kept.
        """
        if reach_m > self.cell_m:
            raise ValueError(f"reach {reach_m} m exceeds the cell size {self.cell_m} m")
        first, length = self._runs(self._keys)
        # Every member of a cube gets that cube's nine runs.
        cube = np.tile(np.arange(self._keys.size), 9)
        count = np.diff(self._bounds)
        seg, member = _spans(self._bounds[cube], count[cube])
        for i, j in self._expand(self._order[member], first[seg], length[seg]):
            keep = i < j
            yield i[keep], j[keep]

    def min_distance_within_reach_m(self, qlats, qlons) -> np.ndarray:
        """Per query point, min haversine distance to any indexed point within
        the grid's cell reach; +inf when no indexed point is that close.

        Exact for threshold decisions at radius <= cell_m.
        """
        qlats = np.asarray(qlats, dtype=np.float64)
        qlons = np.asarray(qlons, dtype=np.float64)
        out = np.full(qlats.shape[0], np.inf)
        first, length = self._runs(self._cube_keys(qlats, qlons))
        n_query = qlats.shape[0]
        queries = np.tile(np.arange(n_query, dtype=index_dtype(n_query)), 9)
        for qi, pj in self._expand(queries, first, length):
            d = haversine_m_vectorized(qlats[qi], qlons[qi], self.lats[pj], self.lons[pj])
            np.minimum.at(out, qi, d)
        return out
