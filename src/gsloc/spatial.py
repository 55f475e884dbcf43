"""Spatial hash grid over latitude/longitude for radius-bounded neighbor search.

Cells are sized so that any two points within ``reach_m`` meters of each other
land in nearby cells; candidate pairs are then verified with exact haversine
distances by the caller. The column count wraps around the antimeridian, and
the per-axis scan reach is derived from exact spherical bounds, so candidate
generation never misses a qualifying pair regardless of where the points sit.

The index is a sorted cell index rather than a dict of cells: points are
argsorted by cell key, and neighbor cells are found with ``searchsorted``, so
both scans are array operations with Python loops only over row offsets.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .geodesy import EARTH_RADIUS_M, METERS_PER_DEGREE, haversine_m_vectorized

# Bound on the working set of one chunk of candidate pairs, from the index
# expansion that yields it through the caller's exact-distance step on it
# (coordinate gathers and haversine temporaries, in graph.distance_pairs and
# in min_distance_within_reach_m alike). A chunk holds _PAIR_CHUNK_BYTES //
# _PAIR_BYTES pairs: tracemalloc puts the step's peak near 128 bytes a pair.
_PAIR_CHUNK_BYTES = 16 << 20
_PAIR_BYTES = 160


def _lon_span_deg(reach_m: float, max_abs_lat_deg: float) -> float:
    """Max longitude difference (degrees, wrapped) between points within reach_m.

    Exact bound from the haversine identity: for a pair at most reach_m apart
    with both latitudes at most max_abs_lat_deg in magnitude,
    |sin(dlon/2)| <= sin(reach/2R) / cos(max_abs_lat).
    """
    c = math.cos(math.radians(min(max_abs_lat_deg, 90.0)))
    s = math.sin(min(reach_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0))
    if c <= 0.0 or s / c >= 1.0:
        return 360.0
    return 2.0 * math.degrees(math.asin(s / c))


def _spans(first: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions first[s] .. first[s] + length[s] - 1, concatenated over
    s, and the s each one came from."""
    seg = np.repeat(np.arange(length.size), length)
    before = np.cumsum(length) - length
    return seg, np.arange(seg.size) - before[seg] + first[seg]


class LatLonGrid:
    """Hash grid keyed by (lat cell, lon cell) with wrap-aware neighbor scans.

    The index is one sorted array: points are argsorted by the cell key
    ``row * n_cols + col``, so each occupied cell is a run of that order, and
    so is any span of adjacent cells in one row. A neighbor scan therefore
    needs one ``searchsorted`` per row offset, for all cells or queries at
    once, and never loops over column offsets.
    """

    def __init__(self, lats: np.ndarray, lons: np.ndarray, cell_m: float):
        if cell_m <= 0.0:
            raise ValueError(f"cell size must be positive, got {cell_m}")
        self.lats = np.asarray(lats, dtype=np.float64)
        self.lons = np.asarray(lons, dtype=np.float64)
        self.cell_m = float(cell_m)
        self.cell_lat_deg = self.cell_m / METERS_PER_DEGREE
        self.max_abs_lat = float(np.max(np.abs(self.lats))) if self.lats.size else 0.0
        self.cell_lon_deg = min(_lon_span_deg(self.cell_m, self.max_abs_lat), 360.0)
        self.n_cols = max(1, math.ceil(360.0 / self.cell_lon_deg))
        rows, cols = self._cells(self.lats, self.lons)
        keys = rows * self.n_cols + cols
        # Stable, so members of a cell stay in ascending point order.
        self._order = np.argsort(keys, kind="stable")
        self._keys, start = np.unique(keys[self._order], return_index=True)
        # Occupied cell c holds the sorted points _bounds[c] .. _bounds[c+1]-1.
        self._bounds = np.append(start, self._order.size)

    def _cells(self, lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = np.floor((lats + 90.0) / self.cell_lat_deg).astype(np.int64)
        cols = np.floor((lons + 180.0) / self.cell_lon_deg).astype(np.int64) % self.n_cols
        return rows, cols

    def _reach_cells(self, reach_m: float, max_abs_lat_deg: float) -> tuple[int, int]:
        # +1 absorbs cell-boundary straddling; _col_range caps the column
        # reach at the whole ring.
        d_lat = int((reach_m / METERS_PER_DEGREE) / self.cell_lat_deg) + 1
        d_lon = int(_lon_span_deg(reach_m, max_abs_lat_deg) / self.cell_lon_deg) + 1
        return d_lat, d_lon

    def _col_range(self, cols: np.ndarray, d_lon: int) -> tuple[np.ndarray, np.ndarray]:
        """Columns lo .. hi (read around the antimeridian) that can hold a
        point within d_lon column widths of a point in column ``cols``.

        360 degrees is rarely a whole number of columns, so the last column
        is narrower than the others, and a range that crosses the
        antimeridian reaches one column further on that side (only one side
        can cross unless the stencil covers the ring, and then the range is
        the whole row).
        """
        if 2 * d_lon + 1 >= self.n_cols:
            return np.zeros_like(cols), np.full_like(cols, self.n_cols - 1)
        lo, hi = cols - d_lon, cols + d_lon
        return lo - (lo < 0), hi + (hi >= self.n_cols - 1)

    def _runs(self, rows: np.ndarray, lo: np.ndarray,
              hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sorted-point runs (first, length) of the occupied cells in row
        ``rows[i]`` with column lo[i] .. hi[i], read around the antimeridian
        (hi - lo < n_cols). Each entry gives two runs, the in-range part and
        the wrapped remainder, in two halves of the returned arrays; empty
        runs have length 0."""
        n = self.n_cols
        base = np.tile(rows * n, 2)
        col_lo = np.concatenate([np.maximum(lo, 0), np.where(lo < 0, lo + n, 0)])
        col_hi = np.concatenate([np.minimum(hi, n - 1), np.where(lo < 0, n - 1, hi - n)])
        first = self._bounds[np.searchsorted(self._keys, base + col_lo, side="left")]
        end = self._bounds[np.searchsorted(self._keys, base + col_hi, side="right")]
        return first, np.maximum(end - first, 0)

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
        no pair is emitted twice: each occupied cell is joined with the cells
        after it in its own row and with the cells within the column reach in
        the d_lat rows above, and within a cell each member with the members
        after it.
        """
        d_lat, d_lon = self._reach_cells(reach_m, self.max_abs_lat)
        rows, cols = np.divmod(self._keys, self.n_cols)
        # In its own row a cell looks only rightward (to the row's end when
        # the range is the whole ring), so each cell pair is joined once.
        lo, hi = self._col_range(cols, d_lon)
        runs = [self._runs(rows + dr, cols + 1 if dr == 0 else lo, hi)
                for dr in range(d_lat + 1)]
        first = np.concatenate([f for f, _ in runs])
        length = np.concatenate([n for _, n in runs])
        cell = np.tile(np.arange(self._keys.size), 2 * (d_lat + 1))
        keep = length > 0
        cell, first, length = cell[keep], first[keep], length[keep]
        # Every member of a cell gets that cell's runs of other cells ...
        count = np.diff(self._bounds)
        seg, member = _spans(self._bounds[cell], count[cell])
        # ... and the members after it in its own cell.
        own = np.arange(self._order.size)
        own_end = np.repeat(self._bounds[1:], count)
        left = self._order[np.concatenate([member, own])]
        seg_first = np.concatenate([first[seg], own + 1])
        seg_len = np.concatenate([length[seg], own_end - own - 1])
        for i, j in self._expand(left, seg_first, seg_len):
            high = np.maximum(i, j)
            yield np.minimum(i, j, out=i), high

    def min_distance_within_reach_m(self, qlats, qlons) -> np.ndarray:
        """Per query point, min haversine distance to any indexed point within
        the grid's cell reach; +inf when no indexed point is that close.

        Exact for threshold decisions at radius <= cell_m.
        """
        qlats = np.asarray(qlats, dtype=np.float64)
        qlons = np.asarray(qlons, dtype=np.float64)
        out = np.full(qlats.shape[0], np.inf)
        if not self._keys.size:
            return out
        max_abs = max(self.max_abs_lat, float(np.max(np.abs(qlats))) if qlats.size else 0.0)
        d_lat, d_lon = self._reach_cells(self.cell_m, max_abs)
        rows, cols = self._cells(qlats, qlons)
        lo, hi = self._col_range(cols, d_lon)
        queries = np.arange(qlats.shape[0])
        for dr in range(-d_lat, d_lat + 1):
            first, length = self._runs(rows + dr, lo, hi)
            for qi, pj in self._expand(np.concatenate([queries, queries]), first, length):
                d = haversine_m_vectorized(qlats[qi], qlons[qi], self.lats[pj], self.lons[pj])
                np.minimum.at(out, qi, d)
        return out
