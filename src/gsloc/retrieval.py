"""Exact cosine nearest-neighbor search and position estimates.

Search is brute force rather than approximate: the support sets this
pipeline targets stay tractable, and exactness keeps evaluation
deterministic. Results are two (n_query, k) arrays, row i for query i, best
first: support indices (int64) and cosines (float64). ``estimate_positions``
turns them into one position per query, and ``write_matches`` exports them.

A score is the float64 cosine of one fixed route that does not go through
BLAS: both rows of the pair are cast to float64 and divided by their
``features.row_norms`` norm (a zero row stays zero, and scores 0 against
everything), and the two unit rows meet in ``np.einsum("ij,ij->i")``. That
norm is ``np.linalg.norm``'s, bit for bit. A score depends on its two rows
alone, so identical rows score bitwise alike wherever they sit. Queries and
support must both be float32 (``dataset.check_float32``).
Each query's neighbors are a stable sort of its scores on (-score, support
index), cut at k: equal scores rank the lower support index first.

Only candidates are scored so. A screen finds them: a shortlist re-ranked
exactly, as in Jegou, Douze and Schmid, "Product quantization for nearest
neighbor search" (TPAMI 2011), except that this shortlist is proven
complete. Each block of queries meets the support one chunk at a time in one
matrix product of the stored rows, in their dtype T = float32. Each tile
column is then multiplied by its support row's inverse screening norm,
1/sqrt(s.s) with s.s from one ``np.einsum`` pass over the support in T, so
that the entry of query x and support row y approximates ||x|| cos(x, y).
No float64 copy of the support is made; only candidate rows are cast to
float64 and normalized.

The bound. Let u be T's unit roundoff, n = d + 2 and g = nu / (1 - nu).
In any summation order, with FMA or without, a product of d terms in T is
off by at most g sum |x_i y_i| <= g ||x|| ||y|| (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.1); n also
covers a row's squared norm. A row is screened when its squared norm in T
lies in [2^-E, 2^E], E = half T's largest binary exponent (64): no partial
sum can overflow, and the underflow of at most n products of size below eta
(half T's smallest subnormal) adds nu = n eta 2^(E+1) relative to
||x|| ||y||. With a = g + nu, the screening norm of y is off by the factor
(1 + a/2 + a^2) at most, and each tile entry v satisfies
|v - ||x|| cos| <= beta ||x||, where
    rho = (1 + 3u/(1 - 3u)) (1 + a/2 + a^2) - 1  (norm, square root,
          reciprocal and the scaling of the tile), and
    beta = rho + a (1 + rho).
The float64 route, with g64 = d 2^-53 / (1 - d 2^-53) and
rho64 = (1 + 2^-52/(1 - 2^-52)) (1 + g64/2 + g64^2) - 1, is off the exact
cosine by at most E64 = (1 + rho64)^2 (1 + g64) - 1. Let B = beta + E64
(3.7e-4 at d = 4,096).

The candidates. Let t be a query row's k-th largest screened entry. The k
columns that reach t score at least t/||x|| - B on the float64 route, so its
k-th best score is at least that; any column that reaches it has
cos >= t/||x|| - B - E64 and a screened entry of at least t - 2B ||x||.
So every column at or above t - 2B (1 + a/2 + a^2) ||x~|| / (1 - u), with
||x~|| the query's screening norm, is a candidate: the set holds every
column whose float64 score reaches the k-th best, ties included, for every
BLAS, thread count and tile shape. The cut is rounded down to T. Rows whose
squared norm lies outside the screened range (or is not finite) are scored
on the float64 route against everything; zero query rows take the first k
support rows at score 0, which is what that route gives them.

Each tile is cut against its row's running k-th screened entry, which only
grows as chunks are added, so each chunk's candidates hold those of the
final cut. They are scored in batches of at most ``_RESCORE_BYTES`` and
merged into the block's running top k by the stable sort. For k = 1, a
row's single candidate is its ``argmax``; only rows with more are gathered.
A support of near-identical rows makes every column a candidate: slower,
but exact, and held by the same budgets.
"""

from __future__ import annotations

import csv
import logging
import math
from pathlib import Path

import numpy as np

from .dataset import ImageRecord, check_float32
from .errors import InputError
from .features import row_norms
from .geodesy import atan2_each, unit_vectors

logger = logging.getLogger(__name__)

# Memory cap for one score tile in the screen's dtype, with the selection's
# working set beside it (a k > 1 partition's copy of the tile, or a one-byte
# candidate mask): two scores' bytes per score. It also bounds a query
# block cast to that dtype. The tile comes on top of everything a run holds
# by then: with 16 MiB tiles and 8 MiB smoothing blocks the screen set the
# benchmark's city peak (201.9 MB in a fresh process, against 197.7 MB with
# 8 MiB tiles). At the city shape (256 x 8,000 x 4,096, k = 1) cosine_knn
# took 135 ms at 16 MiB, 137 ms at 8 MiB, 154 ms at 4 MiB and 176 ms at
# 2 MiB, with the same indices and score bytes (in-process medians of 5
# alternating rounds, 2-vCPU VM).
_SCORE_TILE_BYTES = 8 << 20
# Memory cap for one batch of candidate pairs on the float64 route: per pair,
# both rows gathered, their float64 unit copies and the norm's temporary.
_RESCORE_BYTES = 4 << 20

STRATEGIES = ("top1", "weighted_topk")


def cosine_knn(queries: np.ndarray, support: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine similarity for every query row: (indices,
    scores), two (n_query, k) arrays whose row i lists query i's neighbors
    best first. Both arrays must be float32.

    Zero rows (on either side) score 0 against everything and are counted in
    a log warning. Equal scores rank the smaller support index first.
    """
    q = np.asarray(queries)
    s = np.asarray(support)
    if q.ndim != 2 or s.ndim != 2:
        raise InputError("queries and support must be 2-D arrays")
    check_float32(q)
    check_float32(s)
    if q.shape[1] != s.shape[1]:
        raise InputError(f"dim mismatch: queries {q.shape[1]} vs support {s.shape[1]}")
    if not (1 <= k <= s.shape[0]):
        raise InputError(f"k={k} must be in [1, {s.shape[0]}]")
    dtype, (n_support, dim) = s.dtype, s.shape
    blocks, chunks = _tile_shape(q.shape[0], n_support, dim, dtype.itemsize)
    tallest = max((hi - lo for lo, hi in blocks), default=0)
    tile_buffer = np.empty(tallest * max(hi - lo for lo, hi in chunks), dtype)
    width = 2 * _screen_bound(dim, dtype)
    batch = max(1, _RESCORE_BYTES
                // ((16 + 2 * q.itemsize + 2 * s.itemsize) * max(1, dim)))
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    top = np.empty((q.shape[0], k))
    q_zero = 0
    # The screen meets non-finite and out-of-range norms by design.
    with np.errstate(over="ignore", under="ignore", invalid="ignore",
                     divide="ignore"):
        squares, screened, s_zero = _screen_squares(s)
        inverse = 1 / np.sqrt(squares)
        inverse[~screened | s_zero] = 1
        unscreened = np.flatnonzero(~screened)
        for start, stop in blocks:
            rows = stop - start
            x = q[start:stop]
            x_squares, x_screened, zero = _screen_squares(x)
            q_zero += int(np.count_nonzero(zero))
            # Unscreened query rows take every column, zero rows none.
            open_rows, zero_rows = np.flatnonzero(~x_screened), np.flatnonzero(zero)
            # The cut's half-width in tile units.
            reach = width * np.sqrt(x_squares, dtype=np.float64)
            kth = np.full((rows, k), -np.inf, dtype)
            found, size = [], 0
            for lo, hi in chunks:
                tile = tile_buffer[:rows * (hi - lo)].reshape(rows, hi - lo)
                np.matmul(x, s[lo:hi].T, out=tile)
                tile *= inverse[lo:hi]
                wild = unscreened[np.searchsorted(unscreened, lo):
                                  np.searchsorted(unscreened, hi)] - lo
                if wild.size:
                    tile[:, wild] = -np.inf
                top_col = None
                if k == 1:
                    top_col = np.argmax(tile, axis=1)
                    np.maximum(kth[:, 0], tile[np.arange(rows), top_col],
                               out=kth[:, 0])
                else:
                    kth = _running_kth(kth, tile, k)
                mask = tile >= _cut(kth[:, 0], reach, dtype)[:, None]
                if wild.size:
                    mask[:, wild] = True
                if open_rows.size:
                    mask[open_rows] = True
                if zero_rows.size:
                    mask[zero_rows] = False
                for pair_rows, pair_cols in _candidate_batches(mask, top_col, batch):
                    pair_cols += lo
                    found.append((pair_rows, pair_cols, _pair_scores(
                        q, s, pair_rows + start, pair_cols)))
                    size += pair_rows.size
                    if size > rows * k + batch:
                        found = [_merge_top_k(found, k)]
                        size = found[0][0].size
            if found:
                _, cols, scores = _merge_top_k(found, k)
                live = np.flatnonzero(~zero) + start
                indices[live], top[live] = cols.reshape(-1, k), scores.reshape(-1, k)
            indices[zero_rows + start], top[zero_rows + start] = np.arange(k), 0.0
    s_zero = int(np.count_nonzero(s_zero))
    if q_zero:
        logger.warning("cosine_knn: %d zero query rows score 0 everywhere", q_zero)
    if s_zero:
        logger.warning("cosine_knn: %d zero support rows score 0 everywhere", s_zero)
    return indices, top


def _screen_squares(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(squared row norms of x, whether each row is screened, whether it is
    zero). A row is screened when its squared norm lies in [2^-E, 2^E] (see
    the module docstring) or when it is zero; the squares of a nonzero row
    can all underflow, so a zero sum is checked on the row itself."""
    squares = np.einsum("ij,ij->i", x, x)
    limit = 2.0 ** (np.finfo(x.dtype).maxexp // 2)
    zero = squares == 0
    if zero.any():
        zero[zero] = ~x[zero].any(axis=1)
    return squares, ((squares >= 1 / limit) & (squares <= limit)) | zero, zero


def _screen_bound(dim: int, dtype: np.dtype) -> float:
    """B (1 + a/2 + a^2) / (1 - u) of the module docstring: the screen's
    bound in cosine units, widened by the error of the query's screening
    norm, or inf when the screen admits every column (a > 1/4)."""
    info = np.finfo(dtype)
    u, n = float(info.eps) / 2, dim + 2
    g = n * u / (1 - n * u) if n * u < 1 else np.inf
    a = g + n * float(info.smallest_subnormal) * 2.0 ** (info.maxexp // 2)
    if not a <= 0.25:
        return np.inf
    norm = 1 + a / 2 + a * a
    rho = (1 + 3 * u / (1 - 3 * u)) * norm - 1
    u64 = 2.0 ** -53
    g64 = dim * u64 / (1 - dim * u64)
    rho64 = (1 + 2 * u64 / (1 - 2 * u64)) * (1 + g64 / 2 + g64 * g64) - 1
    e64 = (1 + rho64) ** 2 * (1 + g64) - 1
    # 1 + 2^-40 covers the float64 rounding of this sum and of the cut.
    return (rho + a * (1 + rho) + e64) * norm / (1 - u) * (1 + 2.0 ** -40)


def _cut(kth: np.ndarray, reach: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Each row's candidate cut, kth - reach, rounded down to dtype."""
    cut = np.nextafter(kth.astype(np.float64) - reach, -np.inf)
    low = cut.astype(dtype)
    return np.where(low > cut, np.nextafter(low, dtype.type(-np.inf)), low)


def _running_kth(kth: np.ndarray, tile: np.ndarray, k: int) -> np.ndarray:
    """Each row's k largest screened entries, the k-th first, over the
    running ones and a new tile's."""
    cols = tile.shape[1]
    part = tile if cols <= k else np.partition(tile, cols - k, axis=1)[:, cols - k:]
    merged = np.concatenate([kth, part], axis=1)
    return np.partition(merged, merged.shape[1] - k, axis=1)[:, -k:]


def _tile_shape(n_query: int, n_support: int, dim: int,
                itemsize: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(lo, hi) edges of cosine_knn's query blocks and support chunks. A
    block is as tall as a tile of the whole support allows, and at least as
    tall as a square tile, within _SCORE_TILE_BYTES both as a tile's scores
    and as a block of rows; chunks are as wide as the tile allows."""
    scores = max(1, _SCORE_TILE_BYTES // (2 * itemsize))
    rows = max(1, min(n_query, max(math.isqrt(scores), scores // max(1, n_support)),
                      _SCORE_TILE_BYTES // (itemsize * max(1, dim))))
    cols = max(1, min(n_support, scores // rows))
    return _edges(n_query, rows), _edges(n_support, cols)


def _edges(n: int, step: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _candidate_batches(mask: np.ndarray, top_col: np.ndarray | None,
                       batch: int):
    """(rows, cols) of a tile's candidates in batches of at most `batch`
    pairs. With top_col (k = 1), a row whose one candidate is its top
    column takes it without a scan of the row."""
    single = np.zeros(mask.shape[0], dtype=bool)
    if top_col is not None:
        single = mask[np.arange(mask.shape[0]), top_col]
    rest = counts = np.empty(0, np.intp)
    if np.count_nonzero(mask) > np.count_nonzero(single):
        counts = np.count_nonzero(mask, axis=1)
        single &= counts == 1
        rest = np.flatnonzero(counts > single)
        counts = counts[rest]
    rows = np.flatnonzero(single)
    for at in range(0, rows.size, batch):
        yield rows[at:at + batch], top_col[rows[at:at + batch]]
    # Groups of whole rows with at most `batch` candidates, or one row.
    ends = np.cumsum(counts)
    lo = 0
    while lo < rest.size:
        done = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, done + batch, side="right")))
        local, cols = np.nonzero(mask[rest[lo:hi]])
        group_rows = rest[lo:hi][local]
        for at in range(0, cols.size, batch):
            yield group_rows[at:at + batch], cols[at:at + batch]
        lo = hi


def _pair_scores(q: np.ndarray, s: np.ndarray, rows: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """The float64 cosine of each (query row, support row) pair by the one
    route every score takes (see the module docstring)."""
    return np.einsum("ij,ij->i", _unit_rows(q[rows]), _unit_rows(s[cols]))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Gathered rows as float64 unit rows; zero rows stay zero."""
    unit = rows.astype(np.float64)
    unit /= row_norms(unit, unit.nbytes)[0][:, None]
    return unit


def _merge_top_k(found: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scored (rows, cols, scores) pairs cut to each row's k best: sorted by
    row, then by -score, then by support index."""
    rows, cols, scores = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((cols, -scores, rows))
    rows, cols, scores = rows[order], cols[order], scores[order]
    keep = np.empty(rows.size, dtype=bool)
    keep[:1] = True
    np.not_equal(rows[1:], rows[:-1], out=keep[1:])
    if k > 1:
        at = np.arange(rows.size)
        keep = at - np.maximum.accumulate(np.where(keep, at, 0)) < k
    return rows[keep], cols[keep], scores[keep]


def estimate_positions(indices: np.ndarray, scores: np.ndarray,
                       lats: np.ndarray, lons: np.ndarray,
                       strategy: str = "top1") -> tuple[np.ndarray, np.ndarray]:
    """Each query's (lat, lon) estimate from its neighbors' GPS fixes, given
    as support-indexed arrays of degrees.

    top1 copies the best neighbor's fix. weighted_topk averages the fixes on
    the sphere: each becomes a 3-D unit vector, the vectors are summed with
    the scores clamped at zero as weights, adding the k columns left to
    right, and the sum's direction is the estimate (math.atan2 per query,
    through atan2_each). A query whose weights all clamp, or whose weighted
    sum is the zero vector, falls back to top1.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown pose strategy {strategy!r}")
    indices, scores = np.asarray(indices), np.asarray(scores, dtype=np.float64)
    if indices.ndim != 2 or indices.shape != scores.shape:
        raise InputError(f"indices {indices.shape} and scores {scores.shape} "
                         "must be (n_query, k) arrays of one shape")
    if indices.shape[1] == 0:
        raise InputError("cannot infer a pose from an empty neighbor list")
    best_lat, best_lon = lats[indices[:, 0]], lons[indices[:, 0]]
    if strategy == "top1":
        return best_lat, best_lon
    units = unit_vectors(lats[indices], lons[indices])
    weights = np.maximum(scores, 0.0)
    x, y, z = (np.zeros(indices.shape[0]) for _ in range(3))
    for col in range(indices.shape[1]):
        for total, unit in zip((x, y, z), units):
            total += weights[:, col] * unit[:, col]
    lat = np.degrees(atan2_each(z, np.sqrt(x * x + y * y)))
    lon = np.degrees(atan2_each(y, x))
    fallback = (x == 0.0) & (y == 0.0) & (z == 0.0)
    return (np.where(fallback, best_lat, lat), np.where(fallback, best_lon, lon))


def write_matches(path: str | Path, indices: np.ndarray, scores: np.ndarray,
                  query_records: list[ImageRecord],
                  support_records: list[ImageRecord]) -> None:
    """CSV export of cosine_knn's arrays, one row of them per query record:
    query_id,rank,support_id,score with 1-based ranks and LF line endings;
    an id is quoted when it holds a comma, a quote or a line break."""
    rows = [[record.image_id, rank, support_records[sidx].image_id, repr(score)]
            for record, row, row_scores in zip(query_records, indices.tolist(),
                                               scores.tolist(), strict=True)
            for rank, (sidx, score) in enumerate(zip(row, row_scores), start=1)]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["query_id", "rank", "support_id", "score"])
        writer.writerows(rows)
