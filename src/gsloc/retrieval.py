"""Exact cosine nearest-neighbor search and position estimates.

Search is brute-force (blocked dense dot products) rather than approximate:
the support sets this pipeline targets stay tractable, and exactness keeps
evaluation deterministic. Ties are broken toward the lower support index.
The top k of each score row come from selection, not a full sort: ``argmax``
for k = 1, and for larger k an ``np.partition`` threshold followed by a sort
of only the columns that reach it, taken a slice of score rows at a time so
that selection holds at most ``_SELECT_SLICE_BYTES`` beside the score block.

Results are two (n_query, k) arrays, row i for query i, best first: support
indices (int64) and cosines (float64). ``estimate_positions`` turns them
into one position per query, and ``write_matches`` exports them.

No unit-normalized copy of the whole support set is made. For each block of
queries (its float64 score block bounded by ``_SCORE_BLOCK_BYTES``), the
support rows are normalized in float64 chunks of about
``_SUPPORT_CHUNK_BYTES`` each, and every chunk's scores are written straight
into the score block. The norms are taken from those float64 copies, in
``features._NORM_BLOCK_BYTES`` sub-blocks, on the first query block, and
kept for the others; no pass over the support is made for them alone.
Chunk edges fall on multiples of 64 support rows, so
the BLAS kernels tile the columns as they would in one product against the
whole normalized support, and the scores are bitwise equal to that product
for the shapes measured (8,000 x 4,096 support among them). The exception
seen: when the last chunk is short and the support count is not a multiple
of 8, the last (count mod 8) columns can move by one ulp (1,100 x 700 x
4,096 under OpenBLAS 0.3.31).
"""

from __future__ import annotations

import logging
from pathlib import Path

import numpy as np

from .dataset import ImageRecord
from .errors import InputError
from . import features
from .features import aligned_row_blocks, row_norms
from .geodesy import atan2_each, unit_vectors

logger = logging.getLogger(__name__)

# Memory cap for one block of the query x support score matrix.
_SCORE_BLOCK_BYTES = 256 << 20
# Memory cap for one float64 chunk of unit support rows. Chunk edges come
# from features.aligned_row_blocks, so the last chunk may hold up to 63 rows
# more.
_SUPPORT_CHUNK_BYTES = 8 << 20
# Memory cap for the k > 1 selection working set of one row slice of a score
# block: the float64 partition copy (8 bytes per score), then the contender
# indices, their sort keys and lexsort's buffers, 48 bytes per score when
# every score of a row ties. The worst case sizes the slice.
_SELECT_SLICE_BYTES = 16 << 20
_SELECT_BYTES_PER_SCORE = 48

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
    n_support = s.shape[0]
    block = max(1, int(_SCORE_BLOCK_BYTES // (8 * n_support)))
    chunks = aligned_row_blocks(
        n_support, _SUPPORT_CHUNK_BYTES // (8 * max(1, s.shape[1])))
    # Each float64 row copy yields its own norms, in sub-blocks of
    # features._NORM_BLOCK_BYTES: the support's on the first query block,
    # kept for the others.
    norm_bytes = features._NORM_BLOCK_BYTES
    s_norms, s_zero, q_zero = None, 0, 0
    indices = np.empty((q.shape[0], k), dtype=np.int64)
    top = np.empty((q.shape[0], k))
    for start in range(0, q.shape[0], block):
        q_hat = q[start:start + block].astype(np.float64)
        q_norms, zero = row_norms(q_hat, norm_bytes)
        q_zero += zero
        q_hat /= q_norms[:, None]
        scores = np.empty((q_hat.shape[0], n_support))
        first = s_norms is None
        if first:
            s_norms = np.empty(n_support)
        for lo, hi in chunks:
            s_hat = s[lo:hi].astype(np.float64)
            if first:
                s_norms[lo:hi], zero = row_norms(s_hat, norm_bytes)
                s_zero += zero
            s_hat /= s_norms[lo:hi, None]
            np.matmul(q_hat, s_hat.T, out=scores[:, lo:hi])
        picks = _top_k(scores, k)
        indices[start:start + block] = picks
        top[start:start + block] = np.take_along_axis(scores, picks, axis=1)
    if q_zero:
        logger.warning("cosine_knn: %d zero query rows score 0 everywhere", q_zero)
    if s_zero:
        logger.warning("cosine_knn: %d zero support rows score 0 everywhere", s_zero)
    return indices, top


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k best scores, descending, ties to the
    lower column; the same order as a stable argsort of -scores cut at k."""
    n_rows, n_cols = scores.shape
    if k == 1:
        # argmax returns the first maximum: the lowest-index tie rule.
        return np.argmax(scores, axis=1)[:, None]
    picks = np.empty((n_rows, k), dtype=np.int64)
    rows = max(1, _SELECT_SLICE_BYTES // (_SELECT_BYTES_PER_SCORE * n_cols))
    for lo in range(0, n_rows, rows):
        picks[lo:lo + rows] = _top_k_rows(scores[lo:lo + rows], k)
    return picks


def _top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """_top_k for k > 1 on a slice of rows, each row handled on its own."""
    n_rows, n_cols = scores.shape
    if k == n_cols:
        return np.argsort(-scores, axis=1, kind="stable")
    # Every column scoring at least the row's k-th best value is a contender,
    # so ties straddling the k-th place are all kept before the ordering sort.
    kth = np.partition(scores, n_cols - k, axis=1)[:, n_cols - k].copy()
    rows, cols = np.nonzero(scores >= kth[:, None])
    # nonzero lists columns in ascending order, and lexsort is stable, so
    # equal scores keep the lower column first.
    order = np.lexsort((-scores[rows, cols], rows))
    first = np.searchsorted(rows, np.arange(n_rows))
    take = first[:, None] + np.arange(k)
    return cols[order[take]]


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
    query_id,rank,support_id,score with 1-based ranks."""
    lines = ["query_id,rank,support_id,score"]
    for record, row, row_scores in zip(query_records, indices.tolist(),
                                       scores.tolist(), strict=True):
        for rank, (sidx, score) in enumerate(zip(row, row_scores), start=1):
            lines.append(f"{record.image_id},{rank},"
                         f"{support_records[sidx].image_id},{score!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
