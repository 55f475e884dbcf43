"""Exact cosine nearest-neighbor search and position estimates.

Search is brute-force (blocked dense dot products) rather than approximate:
the support sets this pipeline targets stay tractable, and exactness keeps
evaluation deterministic. Ties are broken toward the lower support index.

Results are two (n_query, k) arrays, row i for query i, best first: support
indices (int64) and cosines (float64). ``estimate_positions`` turns them
into one position per query, and ``write_matches`` exports them.

No score row is held whole. As in a flat index (Johnson, Douze and Jegou,
"Billion-scale similarity search with GPUs", 2017), each block of queries,
cast to float64 and normalized, meets the support one chunk at a time in a
score tile, one buffer reused for every tile. Each tile is reduced to its
own top k, which is merged into the block's running top k by a stable sort
on descending score of the running k followed by the tile's. Every running
index is lower than every index of the tile, so a tie keeps the running
entry, and the result is a stable sort of the whole score row cut at k. A
tile's top k come from selection, not a full sort: ``argmax`` for k = 1,
and for larger k an ``np.argpartition`` of the k best, then a sort of only
those k; where a tie straddles place k, its lowest columns are kept.

``_SCORE_TILE_BYTES`` sizes the walk. A query block's float64 copy fits in
it, and so does the block's tile against one 64-row support chunk: the
tile's float64 scores and the int64 partition that a k > 1 selection
holds, 16 bytes per score whatever k, so that the tile shapes, and
with them the score bits, do not depend on k. Chunks are then as wide as
the tile allows, and at most ``_SUPPORT_CHUNK_BYTES`` as float64 rows.

No unit-normalized copy of the whole support set is made. The support rows
are cast to float64 and normalized one chunk at a time, in one reused
buffer. The norms are taken from those float64 copies, in
``features._NORM_BLOCK_BYTES`` sub-blocks, on the first query block, and
kept for the others; no pass over the support is made for them alone.

Block and chunk edges fall on multiples of 64 rows, so the BLAS kernels
tile the product as they would one product of the whole normalized query
and support sets, and the scores are bitwise equal to that product for the
shapes measured (1,200 x 4,800 x 128 and 256 x 8,000 x 4,096 among them).
Two exceptions were seen under OpenBLAS 0.3.31 (shapes are queries x
support x dimension). When the support count is not a multiple of 8, the
last (count mod 8) columns can move in their last bits, by up to 3e-16
(1,100 x 700 x 4,096, and 3,000 x 1,100 x 64 when the tile splits the
support into four chunks). And products small enough for BLAS's
small-matrix kernels round differently in most columns (150 x 300 x 8
against 64-row chunks).
"""

from __future__ import annotations

import csv
import logging
from pathlib import Path

import numpy as np

from .dataset import ImageRecord
from .errors import InputError
from . import features
from .features import aligned_row_blocks, row_norms
from .geodesy import atan2_each, unit_vectors

logger = logging.getLogger(__name__)

# Memory cap for one score tile: its float64 scores and the int64 partition
# that a k > 1 selection holds, together (16 bytes per score); and,
# apart from the tile, for the float64 copy of one block of query rows.
# Chunk edges come from features.aligned_row_blocks, so the last tile of a
# block may hold up to 63 columns more.
_SCORE_TILE_BYTES = 16 << 20
# Memory cap for one float64 chunk of unit support rows. Chunk edges come
# from features.aligned_row_blocks, so the last chunk may hold up to 63 rows
# more.
_SUPPORT_CHUNK_BYTES = 8 << 20

STRATEGIES = ("top1", "weighted_topk")


def cosine_knn(queries: np.ndarray, support: np.ndarray,
               k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k by cosine similarity for every query row: (indices,
    scores), two (n_query, k) arrays whose row i lists query i's neighbors
    best first.

    Zero rows (on either side) score 0 against everything and are counted in
    a log warning. Equal scores rank the smaller support index first.
    """
    q = np.asarray(queries)
    s = np.asarray(support)
    if q.ndim != 2 or s.ndim != 2:
        raise InputError("queries and support must be 2-D arrays")
    if q.shape[1] != s.shape[1]:
        raise InputError(f"dim mismatch: queries {q.shape[1]} vs support {s.shape[1]}")
    if not (1 <= k <= s.shape[0]):
        raise InputError(f"k={k} must be in [1, {s.shape[0]}]")
    n_support, dim = s.shape
    blocks, chunks = _tile_shape(q.shape[0], n_support, dim)
    # One float64 buffer each for the query block, the support chunk and the
    # score tile, reused for every block, chunk and tile.
    tallest = max((hi - lo for lo, hi in blocks), default=0)
    widest = max(hi - lo for lo, hi in chunks)
    q_buffer = np.empty((tallest, dim))
    s_buffer = np.empty((widest, dim))
    tile_buffer = np.empty(tallest * widest)
    # Each float64 row copy yields its own norms, in sub-blocks of
    # features._NORM_BLOCK_BYTES: the support's on the first query block,
    # kept for the others.
    norm_bytes = features._NORM_BLOCK_BYTES
    s_norms, s_zero, q_zero = None, 0, 0
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    top = np.empty((q.shape[0], k))
    for start, stop in blocks:
        q_hat = q_buffer[:stop - start]
        np.copyto(q_hat, q[start:stop], casting="unsafe")
        q_norms, zero = row_norms(q_hat, norm_bytes)
        q_zero += zero
        q_hat /= q_norms[:, None]
        rows, best = q_hat.shape[0], None
        first = s_norms is None
        if first:
            s_norms = np.empty(n_support)
        for lo, hi in chunks:
            s_hat = s_buffer[:hi - lo]
            np.copyto(s_hat, s[lo:hi], casting="unsafe")
            if first:
                s_norms[lo:hi], zero = row_norms(s_hat, norm_bytes)
                s_zero += zero
            s_hat /= s_norms[lo:hi, None]
            tile = tile_buffer[:rows * (hi - lo)].reshape(rows, hi - lo)
            np.matmul(q_hat, s_hat.T, out=tile)
            picks = _tile_top_k(tile, k)
            found = (picks + lo, np.take_along_axis(tile, picks, axis=1))
            best = found if best is None else _merge_top_k(best, found, k)
        indices[start:stop], top[start:stop] = best
    if q_zero:
        logger.warning("cosine_knn: %d zero query rows score 0 everywhere", q_zero)
    if s_zero:
        logger.warning("cosine_knn: %d zero support rows score 0 everywhere", s_zero)
    return indices, top


def _tile_shape(n_query: int, n_support: int,
                dim: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(lo, hi) edges of cosine_knn's query blocks and of its support
    chunks. A block's float64 copy fits in _SCORE_TILE_BYTES, and so does a
    tile of its scores against one 64-row chunk; chunks are as wide as the
    widest block's tile then allows, and at most _SUPPORT_CHUNK_BYTES as
    float64. Both come from features.aligned_row_blocks: a block or chunk
    of a few rows goes through BLAS kernels that round differently."""
    blocks = aligned_row_blocks(
        n_query, _SCORE_TILE_BYTES // max(8 * dim, 16 * features._ROW_ALIGN))
    rows = max(1, *(hi - lo for lo, hi in blocks))
    chunks = aligned_row_blocks(
        n_support, min(_SUPPORT_CHUNK_BYTES // (8 * max(1, dim)),
                       _SCORE_TILE_BYTES // (16 * rows)))
    return (blocks if n_query else []), chunks


def _tile_top_k(tile: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each tile row's min(k, columns) best scores,
    descending, ties to the lower column; the same order as a stable argsort
    of -tile cut at k. Beside its result, the selection holds at most one
    float64 or int64 copy of the tile, or a few one-byte masks and an int32
    count of it."""
    n_rows, n_cols = tile.shape
    if k == 1:
        # argmax returns the first maximum: the lowest-index tie rule.
        return np.argmax(tile, axis=1)[:, None]
    if k >= n_cols:
        return np.argsort(-tile, axis=1, kind="stable")
    # k columns of each row that reach its k-th best score, the first of
    # them holding that score; which of a tie at it they are is arbitrary.
    cols = np.argpartition(tile, n_cols - k, axis=1)[:, n_cols - k:].copy()
    kth = np.take_along_axis(tile, cols[:, :1], axis=1)
    if np.count_nonzero(tile >= kth) > n_rows * k:
        # A tie straddles place k in some row. Fewer than k columns beat
        # the k-th best score there; the rest of the k are the lowest
        # columns that equal it.
        keep = tile > kth
        tied = tile == kth
        room = k - np.count_nonzero(keep, axis=1, keepdims=True)
        tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= room
        keep |= tied
        cols = np.nonzero(keep)[1].reshape(n_rows, k)
    else:
        cols.sort(axis=1)
    # Columns in ascending order and a stable sort: equal scores keep the
    # lower column first.
    order = np.argsort(-np.take_along_axis(tile, cols, axis=1), axis=1,
                       kind="stable")
    return np.take_along_axis(cols, order, axis=1)


def _merge_top_k(running: tuple[np.ndarray, np.ndarray],
                 tile: tuple[np.ndarray, np.ndarray],
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """The best k of a block's running (indices, scores) and a later tile's,
    both ordered best first: a stable sort of the two side by side, so that
    a tie keeps the running entry, whose support index is the lower."""
    indices = np.concatenate([running[0], tile[0]], axis=1)
    scores = np.concatenate([running[1], tile[1]], axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return (np.take_along_axis(indices, order, axis=1),
            np.take_along_axis(scores, order, axis=1))


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
