"""Similarity-graph construction.

Three kernels contribute edges between images:

* distance — exp(decay_sign * alpha * d) for pairs strictly closer than
  ``max_distance_m`` (candidates come from a spatial hash, never an all-pairs
  scan);
* sequence — beta_k for pairs in the same sequence exactly k frames apart,
  k = 1..len(betas);
* latent — gamma * max(0, cosine) restricted to pairs that already have a
  distance or sequence edge (negative cosines are dropped, keeping W
  nonnegative).

The combined W is symmetric with strictly positive weights and an empty
diagonal; ``include_self_edges`` instead adds a unit self-weight during
normalization. Normalizing divides each row by its degree, giving a
row-stochastic operator whose eigenvalues lie in [-1, 1]; vertices with no
edges at all fall back to an identity row and are reported.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .dataset import ImageRecord
from .errors import InputError
from .geodesy import haversine_m_vectorized
from .spatial import LatLonGrid

ADJ1_MAGIC = b"ADJ1"
_ADJ1_HEADER = struct.Struct("<4sIQ")

# Cosine evaluation for the latent kernel walks the gated pairs in chunks;
# this bounds the temporary row-gather buffers (two of chunk x dim, in the
# descriptors' own dtype; einsum accumulates the dot products in float64).
# Small blocks stay in cache, and freeing them leaves no large heap region
# resident for the rest of the run.
_COSINE_CHUNK_BYTES = 4 << 20


@dataclass
class GraphParams:
    """Kernel weights and switches for graph construction.

    ``betas[k-1]`` is the weight for a frame gap of exactly k, for
    k = 1..len(betas).
    ``decay_sign`` selects exp(-alpha*d) (``"negative"``, the default) or the
    growing exp(+alpha*d) variant.
    """

    alpha: float = 0.25
    max_distance_m: float = 25.0
    betas: tuple[float, ...] = (0.75, 0.0625, 0.0625)
    gamma: float = 0.33
    include_dist: bool = True
    include_seq: bool = True
    include_latent: bool = True
    decay_sign: str = "negative"
    include_self_edges: bool = False

    def __post_init__(self) -> None:
        self.betas = tuple(float(b) for b in self.betas)
        if self.alpha <= 0:
            raise InputError(f"alpha must be positive, got {self.alpha}")
        if self.max_distance_m <= 0:
            raise InputError(f"max_distance_m must be positive, got {self.max_distance_m}")
        if any(b <= 0 or not np.isfinite(b) for b in self.betas):
            raise InputError(f"betas must all be positive, got {self.betas}")
        if self.gamma < 0:
            raise InputError(f"gamma must be nonnegative, got {self.gamma}")
        if self.decay_sign not in ("negative", "positive"):
            raise InputError(f"decay_sign must be 'negative' or 'positive', got {self.decay_sign!r}")

    @property
    def decay_factor(self) -> float:
        return -1.0 if self.decay_sign == "negative" else 1.0


class WeightedGraph:
    """Symmetric weighted graph stored as CSR; diagonal always empty."""

    def __init__(self, matrix: sparse.csr_matrix):
        self.matrix = matrix

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.matrix.nnz) // 2

    @classmethod
    def empty(cls, n: int) -> "WeightedGraph":
        return cls(sparse.csr_matrix((n, n), dtype=np.float64))

    @classmethod
    def from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray,
                   w: np.ndarray) -> "WeightedGraph":
        """Build from unordered unique pairs; both (i,j) and (j,i) are stored
        with the same weight so symmetry is exact."""
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (i.shape == j.shape == w.shape):
            raise InputError("pair arrays must have equal length")
        if i.size:
            if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
                raise InputError("vertex index out of range")
            if np.any(i == j):
                raise InputError("self edges are not allowed in W")
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise InputError("edge weights must be positive and finite")
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        data = np.concatenate([w, w])
        mat = sparse.csr_matrix((data, (rows, cols)), shape=(n, n), dtype=np.float64)
        # CSR construction sums duplicate entries, so a repeated pair, in
        # either orientation, shows up as a missing stored entry.
        if mat.nnz != 2 * i.size:
            raise InputError("duplicate edges in pair list")
        return cls(mat)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper-triangle entries as (i, j, w) arrays with i < j."""
        coo = self.matrix.tocoo()
        keep = coo.row < coo.col
        i, j, w = coo.row[keep], coo.col[keep], coo.data[keep]
        order = np.lexsort((j, i))
        return i[order].astype(np.int64), j[order].astype(np.int64), w[order]

    def edge_set(self) -> set[tuple[int, int]]:
        i, j, _ = self.edges()
        return set(zip(i.tolist(), j.tolist()))


@dataclass
class SmoothingOperator:
    """Row-stochastic operator A = D^-1 W (rows sum to 1, entries >= 0)."""

    matrix: sparse.csr_matrix
    isolated_vertices: np.ndarray

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


def build_w_dist(records: list[ImageRecord], params: GraphParams) -> WeightedGraph:
    """Distance kernel: exp(decay * alpha * d) for pairs with d strictly below
    max_distance_m. Candidate pairs come from a spatial hash grid with cell
    size max_distance_m."""
    n = len(records)
    if n < 2:
        return WeightedGraph.empty(n)
    lats = np.array([r.lat for r in records])
    lons = np.array([r.lon for r in records])
    grid = LatLonGrid(lats, lons, cell_m=params.max_distance_m)
    factor = params.decay_factor * params.alpha
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    for ci, cj in grid.pair_chunks(reach_m=params.max_distance_m):
        d = haversine_m_vectorized(lats[ci], lons[ci], lats[cj], lons[cj])
        keep = d < params.max_distance_m
        if not keep.any():
            continue
        out_i.append(ci[keep])
        out_j.append(cj[keep])
        out_w.append(np.exp(factor * d[keep]))
    if not out_i:
        return WeightedGraph.empty(n)
    return WeightedGraph.from_pairs(
        n, np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


def build_w_seq(records: list[ImageRecord], params: GraphParams) -> WeightedGraph:
    """Sequence kernel: beta_k between same-sequence images exactly k frame
    indices apart, k = 1..len(betas). Never crosses sequence boundaries."""
    n = len(records)
    by_seq: dict[str, list[int]] = {}
    for idx, rec in enumerate(records):
        by_seq.setdefault(rec.sequence_id, []).append(idx)
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    for members in by_seq.values():
        idx = np.asarray(members, dtype=np.int64)
        frames = np.array([records[m].frame_index for m in members], dtype=np.int64)
        for k, beta in enumerate(params.betas, start=1):
            # frames are strictly increasing within a sequence, so a pair at
            # gap exactly k can be located by binary search.
            pos = np.searchsorted(frames, frames + k)
            ok = pos < frames.size
            ok[ok] &= frames[pos[ok]] == frames[np.flatnonzero(ok)] + k
            src = np.flatnonzero(ok)
            if src.size:
                out_i.append(idx[src])
                out_j.append(idx[pos[src]])
                out_w.append(np.full(src.size, beta, dtype=np.float64))
    if not out_i:
        return WeightedGraph.empty(n)
    return WeightedGraph.from_pairs(
        n, np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


def build_w_latent(descriptors: np.ndarray, gate: WeightedGraph,
                   params: GraphParams) -> WeightedGraph:
    """Latent kernel: gamma * max(0, cosine) on exactly the gated pairs.

    The gate must be the union support of the structural kernels; pairs whose
    cosine clamps to zero are dropped rather than stored."""
    x = np.asarray(descriptors)
    if x.ndim != 2 or x.shape[0] != gate.n:
        raise InputError(f"descriptors must be 2-D with {gate.n} rows")
    gi, gj, _ = gate.edges()
    if gi.size == 0 or params.gamma == 0.0:
        return WeightedGraph.empty(gate.n)
    norms = np.empty(x.shape[0], dtype=np.float64)
    norm_chunk = max(1, int(_COSINE_CHUNK_BYTES // (8 * max(1, x.shape[1]))))
    for start in range(0, x.shape[0], norm_chunk):
        block = x[start:start + norm_chunk].astype(np.float64)
        norms[start:start + norm_chunk] = np.linalg.norm(block, axis=1)
    norms[norms == 0.0] = 1.0
    chunk = max(1, int(_COSINE_CHUNK_BYTES // (2 * x.itemsize * max(1, x.shape[1]))))
    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []
    out_w: list[np.ndarray] = []
    for start in range(0, gi.size, chunk):
        ci = gi[start:start + chunk]
        cj = gj[start:start + chunk]
        dots = np.einsum("ij,ij->i", x[ci], x[cj], dtype=np.float64)
        cos = dots / (norms[ci] * norms[cj])
        keep = cos > 0.0
        if keep.any():
            out_i.append(ci[keep])
            out_j.append(cj[keep])
            out_w.append(params.gamma * cos[keep])
    if not out_i:
        return WeightedGraph.empty(gate.n)
    return WeightedGraph.from_pairs(
        gate.n, np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_w))


def combine(parts: list[WeightedGraph]) -> WeightedGraph:
    """Entrywise sum of weight graphs over the same vertex set."""
    if not parts:
        raise InputError("combine needs at least one graph")
    n = parts[0].n
    for p in parts[1:]:
        if p.n != n:
            raise InputError(f"vertex count mismatch: {p.n} != {n}")
    total = parts[0].matrix
    for p in parts[1:]:
        total = total + p.matrix
    total = total.tocsr()
    total.sort_indices()
    return WeightedGraph(total)


def normalize(w: WeightedGraph, params: GraphParams) -> SmoothingOperator:
    """Divide each row by its degree (plus a unit self-weight when
    include_self_edges). Vertices with no incident W edges get an identity
    row and are listed in isolated_vertices."""
    n = w.n
    w_degree = np.asarray(w.matrix.sum(axis=1)).ravel()
    isolated = np.flatnonzero(w_degree == 0.0).astype(np.int64)
    mat = w.matrix.astype(np.float64)
    if params.include_self_edges:
        mat = (mat + sparse.identity(n, format="csr", dtype=np.float64)).tocsr()
    mat.sort_indices()
    degree = np.asarray(mat.sum(axis=1)).ravel()
    fallback = np.flatnonzero(degree == 0.0)
    inv = np.ones_like(degree)
    np.divide(1.0, degree, out=inv, where=degree > 0.0)
    mat = mat.copy()
    mat.data *= np.repeat(inv, np.diff(mat.indptr))
    if fallback.size:
        eye = sparse.csr_matrix(
            (np.ones(fallback.size), (fallback, fallback)), shape=(n, n))
        mat = (mat + eye).tocsr()
        mat.sort_indices()
    return SmoothingOperator(matrix=mat, isolated_vertices=isolated)


def build_graph(records: list[ImageRecord], descriptors: np.ndarray | None,
                params: GraphParams) -> WeightedGraph:
    """Assemble W from the kernels enabled in params.

    The latent kernel is gated to pairs connected by the *enabled* structural
    kernels, so with both of those off it contributes nothing. Descriptors are
    only required when the latent kernel is on.
    """
    n = len(records)
    parts: list[WeightedGraph] = []
    if params.include_dist:
        parts.append(build_w_dist(records, params))
    if params.include_seq:
        parts.append(build_w_seq(records, params))
    if params.include_latent:
        if descriptors is None:
            raise InputError("latent kernel enabled but no descriptors given")
        if descriptors.shape[0] != n:
            raise InputError(f"descriptor rows {descriptors.shape[0]} != {n} records")
        gate = combine(parts) if parts else WeightedGraph.empty(n)
        parts.append(build_w_latent(descriptors, gate, params))
    if not parts:
        return WeightedGraph.empty(n)
    return combine(parts)


def build_operator(records: list[ImageRecord], descriptors: np.ndarray | None,
                   params: GraphParams) -> SmoothingOperator:
    return normalize(build_graph(records, descriptors, params), params)


def save_operator(path: str | Path, op: SmoothingOperator) -> None:
    """Persist as ADJ1: magic, u32 n, u64 nnz, then CSR row offsets (u64),
    column indices (u32), values (f64), all little-endian."""
    mat = op.matrix.tocsr()
    mat.sort_indices()
    with Path(path).open("wb") as fh:
        fh.write(_ADJ1_HEADER.pack(ADJ1_MAGIC, mat.shape[0], mat.nnz))
        fh.write(mat.indptr.astype("<u8").tobytes())
        fh.write(mat.indices.astype("<u4").tobytes())
        fh.write(mat.data.astype("<f8").tobytes())


def load_operator(path: str | Path) -> SmoothingOperator:
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_ADJ1_HEADER.size)
        if len(header) < _ADJ1_HEADER.size:
            raise InputError(f"{path}: file too short for an ADJ1 header")
        magic, n, nnz = _ADJ1_HEADER.unpack(header)
        if magic != ADJ1_MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}, expected {ADJ1_MAGIC!r}")
        expected = (n + 1) * 8 + nnz * 4 + nnz * 8
        payload_bytes = os.fstat(fh.fileno()).st_size - _ADJ1_HEADER.size
        if payload_bytes != expected:
            raise InputError(f"{path}: payload is {payload_bytes} bytes, expected {expected}")
        indptr = np.fromfile(fh, dtype="<u8", count=n + 1).astype(np.int64)
        indices = np.fromfile(fh, dtype="<u4", count=nnz).astype(np.int32)
        values = np.fromfile(fh, dtype="<f8", count=nnz).astype(np.float64, copy=False)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise InputError(f"{path}: corrupt row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise InputError(f"{path}: column index out of range")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise InputError(f"{path}: operator values must be finite and nonnegative")
    mat = sparse.csr_matrix((values, indices, indptr), shape=(n, n))
    row_sums = np.asarray(mat.sum(axis=1)).ravel()
    if n and np.abs(row_sums - 1.0).max() > 1e-9:
        raise InputError(f"{path}: operator rows do not sum to 1")
    # Isolated vertices are recoverable: their rows are exactly [v -> 1.0].
    counts = np.diff(indptr)
    single = np.flatnonzero(counts == 1)
    diag_one = single[(indices[indptr[single]] == single)
                      & (values[indptr[single]] == 1.0)]
    return SmoothingOperator(matrix=mat, isolated_vertices=diag_one.astype(np.int64))
