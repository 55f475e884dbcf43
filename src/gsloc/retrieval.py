"""Exact cosine nearest-neighbor search and pose inference.

Search is brute-force (blocked dense dot products) rather than approximate:
the support sets this pipeline targets stay tractable, and exactness keeps
evaluation deterministic. Ties are broken toward the lower support index.
The top k of each score row come from selection, not a full sort: ``argmax``
for k = 1, and for larger k an ``np.partition`` threshold followed by a sort
of only the columns that reach it, taken a slice of score rows at a time so
that selection holds at most ``_SELECT_SLICE_BYTES`` beside the score block.

No unit-normalized copy of the whole support set is made. For each block of
queries (its float64 score block bounded by ``_SCORE_BLOCK_BYTES``), the
support rows are normalized in float64 chunks of about
``_SUPPORT_CHUNK_BYTES`` each, and every chunk's scores are written straight
into the score block. Chunk edges fall on multiples of 64 support rows, so
the BLAS kernels tile the columns as they would in one product against the
whole normalized support, and the scores are bitwise equal to that product
for the shapes measured (8,000 x 4,096 support among them). The exception
seen: when the last chunk is short and the support count is not a multiple
of 8, the last (count mod 8) columns can move by one ulp (1,100 x 700 x
4,096 under OpenBLAS 0.3.31).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import ImageRecord
from .errors import InputError

logger = logging.getLogger(__name__)

# Memory cap for one block of the query x support score matrix.
_SCORE_BLOCK_BYTES = 256 << 20
# Memory cap for one float64 chunk of unit support rows (taking the norms of
# a chunk holds two). Chunks are whole multiples of _CHUNK_ALIGN rows (at
# least one multiple), apart from the last, which may hold up to
# _CHUNK_ALIGN - 1 rows more.
_SUPPORT_CHUNK_BYTES = 8 << 20
_CHUNK_ALIGN = 64
# Memory cap for the k > 1 selection working set of one row slice of a score
# block: the float64 partition copy (8 bytes per score), then the contender
# indices, their sort keys and lexsort's buffers, 48 bytes per score when
# every score of a row ties. The worst case sizes the slice.
_SELECT_SLICE_BYTES = 16 << 20
_SELECT_BYTES_PER_SCORE = 48


@dataclass
class Match:
    """Top-k neighbors of one query: (support_index, cosine) descending."""

    query_index: int
    neighbors: list[tuple[int, float]]


@dataclass(frozen=True)
class PoseEstimate:
    query_index: int
    lat: float
    lon: float


def _row_norms(x: np.ndarray, chunk: int) -> tuple[np.ndarray, int]:
    """Float64 Euclidean norm of each row of x as an (n, 1) column, taken
    `chunk` rows at a time, with zero norms replaced by 1 so that dividing
    leaves zero rows zero; and the number of zero rows."""
    norms = np.empty((x.shape[0], 1))
    for lo in range(0, x.shape[0], chunk):
        norms[lo:lo + chunk] = np.linalg.norm(x[lo:lo + chunk].astype(np.float64),
                                              axis=1, keepdims=True)
    zero = norms[:, 0] == 0.0
    norms[zero] = 1.0
    return norms, int(np.count_nonzero(zero))


def cosine_knn(queries: np.ndarray, support: np.ndarray, k: int) -> list[Match]:
    """Exact top-k by cosine similarity for every query row.

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
    chunk = _SUPPORT_CHUNK_BYTES // (8 * max(1, s.shape[1]))
    chunk = max(_CHUNK_ALIGN, chunk - chunk % _CHUNK_ALIGN)
    # A remainder shorter than _CHUNK_ALIGN joins the last chunk: a one-row
    # chunk would go through a matrix-vector product, which rounds an exact
    # copy of a row differently from the matrix product.
    starts = range(0, max(1, n_support - _CHUNK_ALIGN + 1), chunk)
    # Norms come first, so that their temporaries are gone before a score
    # block is allocated; each chunk then holds one float64 copy at a time.
    q_norms, q_zero = _row_norms(q, chunk)
    s_norms, s_zero = _row_norms(s, chunk)
    if q_zero:
        logger.warning("cosine_knn: %d zero query rows score 0 everywhere", q_zero)
    if s_zero:
        logger.warning("cosine_knn: %d zero support rows score 0 everywhere", s_zero)
    matches: list[Match] = []
    for start in range(0, q.shape[0], block):
        q_hat = q[start:start + block].astype(np.float64)
        q_hat /= q_norms[start:start + block]
        scores = np.empty((q_hat.shape[0], n_support))
        for lo, hi in zip(starts, [*starts[1:], n_support]):
            s_hat = s[lo:hi].astype(np.float64)
            s_hat /= s_norms[lo:hi]
            np.matmul(q_hat, s_hat.T, out=scores[:, lo:hi])
        picks = _top_k(scores, k)
        top = np.take_along_axis(scores, picks, axis=1)
        for row, (idx, val) in enumerate(zip(picks.tolist(), top.tolist())):
            matches.append(Match(query_index=start + row,
                                 neighbors=list(zip(idx, val))))
    return matches


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


def infer_pose(match: Match, support_records: list[ImageRecord],
               strategy: str = "top1") -> PoseEstimate:
    """Turn retrieved neighbors into a position.

    top1 copies the best neighbor's GPS; weighted_topk takes the
    similarity-weighted mean of neighbor lat/lon (negative weights clamped to
    zero; if every weight clamps, falls back to top1). The weighted mean
    averages raw degrees, which is fine at city scale but wrong across the
    antimeridian.
    """
    if not match.neighbors:
        raise InputError("cannot infer a pose from an empty neighbor list")
    if strategy not in ("top1", "weighted_topk"):
        raise InputError(f"unknown pose strategy {strategy!r}")
    if strategy == "top1":
        best = support_records[match.neighbors[0][0]]
        return PoseEstimate(query_index=match.query_index, lat=best.lat, lon=best.lon)
    weights = np.array([max(0.0, score) for _, score in match.neighbors])
    total = weights.sum()
    if total == 0.0:
        best = support_records[match.neighbors[0][0]]
        return PoseEstimate(query_index=match.query_index, lat=best.lat, lon=best.lon)
    lats = np.array([support_records[i].lat for i, _ in match.neighbors])
    lons = np.array([support_records[i].lon for i, _ in match.neighbors])
    weights /= total
    return PoseEstimate(query_index=match.query_index,
                        lat=float(weights @ lats), lon=float(weights @ lons))


def write_matches(path: str | Path, matches: list[Match],
                  query_records: list[ImageRecord],
                  support_records: list[ImageRecord]) -> None:
    """CSV export: query_id,rank,support_id,score with 1-based ranks."""
    lines = ["query_id,rank,support_id,score"]
    for match in matches:
        qid = query_records[match.query_index].image_id
        for rank, (sidx, score) in enumerate(match.neighbors, start=1):
            lines.append(f"{qid},{rank},{support_records[sidx].image_id},{score!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
