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
diagonal. Normalizing gives A = D^-1 (W + S), row-stochastic with
eigenvalues in [-1, 1]: S is a unit diagonal on every vertex under
``include_self_edges``, else only on the vertices with no edge at all (an
identity row; they are reported), and D holds the row sums of W + S.

A graph is one weight per pair of a symmetric CSR pair structure, zero
where it has no edge. One ``kernel_geometry`` serves a list of cells: a
cell's gate is the pairs its structural kernels connect, and the geometry
holds one structure over the union of its cells' gates, shared by every
cell. Distance pairs are found once at the largest radius, sequence pairs
once up to the longest betas, and cosines once on the union of the latent
gates. Each structural kernel takes the geometry, which refuses a cell
whose gate it was not built for (``KernelGeometry.check``). A cell's kernels
and their sum are weight arrays on that structure, zero outside its gate,
and its operator is the one CSR matrix it builds, without the zeros; each
is bitwise the one the kernels would give as separate sparse matrices
summed in turn.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .codec import ADJ1
from .dataset import ImageRecord, check_float32
from .errors import InputError
from . import features
from .geodesy import haversine_m_vectorized
from .spatial import LatLonGrid, index_dtype

# Cosine evaluation for the latent kernel groups the gated pairs by source
# row and walks them in blocks of at most `chunk` pairs; this bounds one
# block's two row gathers (its neighbour rows, and its source rows, each read
# once however many neighbours they have), each at most chunk x dim float32
# values; einsum accumulates the dot products in float64.
# Both gathers together fit a 2 MiB per-core L2 cache (1 MiB measured faster
# than 4 MiB on the `city` support, and no slower on small ones), and freeing
# them leaves no large heap region resident for the rest of the run. The norm
# pass before them casts rows in features._NORM_BLOCK_BYTES blocks.
_COSINE_CHUNK_BYTES = 1 << 20

DECAY_SIGNS = ("negative", "positive")


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
        # Each check is written so that a NaN fails it.
        if not 0 < self.alpha < np.inf:
            raise InputError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0 < self.max_distance_m < np.inf:
            raise InputError("max_distance_m must be positive and finite, "
                             f"got {self.max_distance_m}")
        if not self.betas or not all(0 < b < np.inf for b in self.betas):
            raise InputError(f"betas must be one or more positive finite weights, "
                             f"got {self.betas}")
        if not 0 <= self.gamma < np.inf:
            raise InputError(f"gamma must be nonnegative and finite, got {self.gamma}")
        if self.decay_sign not in DECAY_SIGNS:
            raise InputError(f"decay_sign must be {' or '.join(map(repr, DECAY_SIGNS))}, "
                             f"got {self.decay_sign!r}")

    @property
    def decay_factor(self) -> float:
        return -1.0 if self.decay_sign == "negative" else 1.0


@dataclass(eq=False)
class WeightedGraph:
    """Symmetric weighted graph with an empty diagonal: one float64 weight
    per pair of a PairStructure, zero for a pair it does not connect. Graphs
    on one structure add by adding their weight arrays, and ``matrix`` is
    made from the structure only when it is read."""

    structure: PairStructure
    weights: np.ndarray

    @property
    def matrix(self) -> sparse.csr_matrix:
        return self.structure.matrix(self.weights)

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def n_edges(self) -> int:
        """Pairs with a nonzero weight. Kept as API for
        ``benchmarks/tracer.py``, whose edge counts read it."""
        return int(np.count_nonzero(self.weights))

    @classmethod
    def empty(cls, n: int) -> "WeightedGraph":
        none = np.empty(0, dtype=index_dtype(n))
        return cls(_symmetric_structure(n, none, none), np.empty(0))

    @classmethod
    def from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray,
                   w: np.ndarray) -> "WeightedGraph":
        """Build from unordered unique pairs; both (i,j) and (j,i) are stored
        with the same weight so symmetry is exact. Each pair is turned to
        i < j and sorted into (i, j) order, where a repeated pair, in either
        orientation, lies next to its twin. No gsloc code calls it; it is
        kept as API for ``benchmarks/tracer.py``, which wraps it by name."""
        # Integer indices keep their width; others are read as int64.
        i, j = (a if a.dtype.kind == "i" else a.astype(np.int64)
                for a in map(np.asarray, (i, j)))
        w = np.asarray(w, dtype=np.float64)
        if not (i.shape == j.shape == w.shape):
            raise InputError("pair arrays must have equal length")
        if i.size:
            if i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n:
                raise InputError("vertex index out of range")
            if np.any(i == j):
                raise InputError("self edges are not allowed in W")
        _check_weights(w)
        i, j = np.minimum(i, j), np.maximum(i, j)
        order = np.lexsort((j, i))
        i, j, w = i[order], j[order], w[order]
        if np.any((i[1:] == i[:-1]) & (j[1:] == j[:-1])):
            raise InputError("duplicate edges in pair list")
        return cls(_symmetric_structure(n, i, j), w)


@dataclass(frozen=True)
class PairStructure:
    """The symmetric CSR structure of a list of pairs (i < j, in (i, j)
    order): each row lists its columns sorted, and ``entry_pair`` names the
    pair of each stored entry."""

    indptr: np.ndarray
    indices: np.ndarray
    entry_pair: np.ndarray

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def matrix(self, weights: np.ndarray) -> sparse.csr_matrix:
        """Canonical CSR matrix of one weight per pair. With no zero weight
        it shares the structure's index arrays, which must not be written;
        otherwise the zeros are dropped from a copy."""
        data = weights.take(self.entry_pair)
        shape = (self.n, self.n)
        if np.all(weights):
            mat = sparse.csr_matrix((data, self.indices, self.indptr), shape=shape)
            mat.has_canonical_format = True
            return mat
        mat = sparse.csr_matrix((data, self.indices.copy(), self.indptr.copy()),
                                shape=shape)
        mat.eliminate_zeros()
        return mat


@dataclass
class SmoothingOperator:
    """Row-stochastic operator A = D^-1 (W + S) (rows sum to 1, entries >= 0)."""

    matrix: sparse.csr_matrix
    isolated_vertices: np.ndarray

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class DistancePairs:
    """Every pair (i < j) strictly closer than the reach it was found at,
    with its haversine distance. It serves any radius up to that reach: a
    smaller one keeps the pairs with ``d`` below it. The indices have the
    width of the cell list's (``spatial.index_dtype``)."""

    i: np.ndarray
    j: np.ndarray
    d: np.ndarray


def distance_pairs(records: list[ImageRecord], reach_m: float) -> DistancePairs:
    """Candidates from a spatial hash grid with cell size reach_m, kept when
    their exact distance is below reach_m."""
    lats = np.array([r.lat for r in records])
    lons = np.array([r.lon for r in records])
    idx = index_dtype(len(records))
    out_i: list[np.ndarray] = [np.empty(0, dtype=idx)]
    out_j: list[np.ndarray] = [np.empty(0, dtype=idx)]
    out_d: list[np.ndarray] = [np.empty(0)]
    if len(records) >= 2:
        grid = LatLonGrid(lats, lons, cell_m=reach_m)
        for ci, cj in grid.pair_chunks(reach_m=reach_m):
            d = haversine_m_vectorized(lats[ci], lons[ci], lats[cj], lons[cj])
            keep = d < reach_m
            out_i.append(ci[keep])
            out_j.append(cj[keep])
            out_d.append(d[keep])
    return DistancePairs(np.concatenate(out_i), np.concatenate(out_j),
                         np.concatenate(out_d))


def sequence_pairs(records: list[ImageRecord],
                   max_gap: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(i, j) arrays, i < j, of the same-sequence pairs exactly k frame
    indices apart, for k = 1..max_gap in that order, at
    ``spatial.index_dtype`` width. Each sequence's frame indices must be
    strictly increasing in record order."""
    by_seq: dict[str, list[int]] = {}
    for idx, rec in enumerate(records):
        by_seq.setdefault(rec.sequence_id, []).append(idx)
    width = index_dtype(len(records))
    out: list[tuple[list[np.ndarray], list[np.ndarray]]] = [
        ([np.empty(0, dtype=width)], [np.empty(0, dtype=width)])
        for _ in range(max_gap)]
    for seq_id, members in by_seq.items():
        idx = np.asarray(members, dtype=width)
        frames = np.array([records[m].frame_index for m in members], dtype=np.int64)
        if np.any(np.diff(frames) <= 0):
            raise InputError(f"sequence {seq_id!r}: frame indices are not "
                             "strictly increasing in record order")
        for k, (out_i, out_j) in enumerate(out, start=1):
            # frames are strictly increasing, so a pair at gap exactly k can
            # be located by binary search.
            pos = np.searchsorted(frames, frames + k)
            ok = pos < frames.size
            ok[ok] &= frames[pos[ok]] == frames[np.flatnonzero(ok)] + k
            src = np.flatnonzero(ok)
            out_i.append(idx[src])
            out_j.append(idx[pos[src]])
    return [(np.concatenate(i), np.concatenate(j)) for i, j in out]


def _row_pieces(i: np.ndarray, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """(start, length) of each piece of the pair list: the runs of equal
    i[k], each cut every ``chunk`` pairs."""
    first = np.flatnonzero(np.concatenate(([True], i[1:] != i[:-1])))
    run = np.diff(np.append(first, i.size))
    pieces = -(-run // chunk)
    # The number of each piece within its run.
    nth = np.arange(pieces.sum()) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    start = np.repeat(first, pieces) + chunk * nth
    return start, np.minimum(chunk, np.repeat(first + run, pieces) - start)


def pair_cosines(descriptors: np.ndarray, i: np.ndarray,
                 j: np.ndarray) -> np.ndarray:
    """Cosine of each pair (i[k], j[k]) of descriptor rows, in float64.

    Pairs are grouped by source row: each run of equal i[k] reads row i once
    and dots it with the gathered rows of its neighbours, instead of
    gathering it once per pair. Callers pass pairs sorted by i, so each row
    is one run. A run longer than one chunk is split into chunk-sized
    pieces, and pieces of equal length D are stacked, as many as fit a
    chunk, into one (R, D, dim) gather against their (R, dim) source rows.
    Each dot product accumulates along dim as a pair-by-pair einsum does, so
    every cosine is bitwise the same whatever the grouping (the property
    tests pin this against the pair-by-pair route). The descriptors must be
    float32 (``dataset.check_float32``).
    """
    x = np.asarray(descriptors)
    check_float32(x)
    norms, _ = features.row_norms(x, features._NORM_BLOCK_BYTES)
    chunk = max(1, int(_COSINE_CHUNK_BYTES // (2 * x.itemsize * max(1, x.shape[1]))))
    cos = np.empty(i.size)
    if not i.size:
        return cos
    start, length = _row_pieces(i, chunk)
    order = np.argsort(length, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(length[order])) + 1):
        degree = int(length[group[0]])
        per_block = chunk // degree
        for lo in range(0, group.size, per_block):
            s = start[group[lo:lo + per_block]]
            pairs = s[:, None] + np.arange(degree)
            rows, cols = i[s], j[pairs]
            dots = np.einsum("rkj,rj->rk", x[cols], x[rows], dtype=np.float64)
            cos[pairs] = dots / (norms[rows][:, None] * norms[cols])
    return cos


def _gate_key(params: GraphParams) -> tuple[float | None, int | None]:
    """What a cell's structural kernels connect: its radius if the distance
    kernel is on, and its number of gaps if the sequence kernel is on."""
    return (params.max_distance_m if params.include_dist else None,
            len(params.betas) if params.include_seq else None)


@dataclass(frozen=True)
class KernelGeometry:
    """What one split's graphs share across kernel weights: one
    PairStructure over every pair that a gate in ``gates`` connects, and
    each pair's distance (inf unless it is a distance pair), frame gap (0
    unless it is a sequence pair) and cosine. A cell's kernels are weights
    on that structure, zero outside its gate. ``cos`` is computed on the
    union of the ``latent`` gates and is zero elsewhere; it is None when the
    geometry has no latent gate."""

    structure: PairStructure
    d: np.ndarray
    gap: np.ndarray
    cos: np.ndarray | None
    gates: frozenset[tuple[float | None, int | None]]
    latent: frozenset[tuple[float | None, int | None]]

    def check(self, params: GraphParams) -> None:
        """Refuse params whose gate this geometry was not built for; no
        geometry holds the gate of a cell with no structural kernel on."""
        key = _gate_key(params)
        if key not in self.gates:
            raise InputError(f"no gate pattern for radius {key[0]} and "
                             f"{key[1]} gaps in this geometry")


def _pair_table(n: int, dist: DistancePairs | None,
                seq: list[tuple[np.ndarray, np.ndarray]]):
    """(i, j, d, gap) of every pair that dist or seq names, once, in (i, j)
    order: d is inf unless it is a distance pair, gap 0 unless it is a
    sequence pair. The pairs are sorted and merged by scipy's COO to CSR
    conversion, each carrying its distance pair's number in the high 32
    bits of an int64 and its gap in the low ones."""
    width = index_dtype(n)
    rows, cols = [np.empty(0, dtype=width)], [np.empty(0, dtype=width)]
    codes = [np.empty(0, dtype=np.int64)]
    if dist is not None:
        rows.append(dist.i)
        cols.append(dist.j)
        codes.append(np.arange(1, dist.d.size + 1, dtype=np.int64) << 32)
    for k, (gi, gj) in enumerate(seq, start=1):
        rows.append(gi)
        cols.append(gj)
        codes.append(np.full(gi.size, k, dtype=np.int64))
    n_dist = dist.d.size if dist is not None else 0
    n_seq = sum(gi.size for gi, _ in seq)
    table = sparse.csr_matrix(
        (np.concatenate(codes), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))
    del rows, cols, codes
    dist_id = (table.data >> 32) - 1
    gap = (table.data & 0xFFFFFFFF).astype(np.min_scalar_type(len(seq)))
    is_dist = dist_id >= 0
    # Each pair is named at most once by each list; a repeat would merge
    # two names into one stored pair.
    if np.count_nonzero(is_dist) != n_dist or np.count_nonzero(gap) != n_seq:
        raise InputError("duplicate edges in pair list")
    d = np.full(gap.size, np.inf)
    if dist is not None:
        d[is_dist] = dist.d[dist_id[is_dist]]
    i = np.repeat(np.arange(n, dtype=table.indices.dtype), np.diff(table.indptr))
    return i, table.indices, d, gap


def _symmetric_structure(n: int, i: np.ndarray, j: np.ndarray) -> PairStructure:
    """The PairStructure of the pairs (i[k], j[k]), i < j, in (i, j) order:
    the upper triangle is laid out as given and added to its transpose,
    which scipy sorts by counting, so each row lists its columns sorted."""
    width = index_dtype(n)
    indptr = np.zeros(n + 1, dtype=width)
    np.cumsum(np.bincount(i, minlength=n), out=indptr[1:])
    # Pair numbers start at 1, since the sum drops zeros.
    once = sparse.csr_matrix(
        (np.arange(1, i.size + 1, dtype=index_dtype(i.size + 1)), j, indptr),
        shape=(n, n))
    both = (once + once.T).tocsr()
    both.data -= 1
    return PairStructure(both.indptr, both.indices, both.data)


def kernel_geometry(records: list[ImageRecord], descriptors: np.ndarray | None,
                    cells: list[GraphParams]) -> KernelGeometry:
    """The one pair structure of the cells' gates, computed once: distance
    pairs are found once at the largest radius, sequence pairs once up to
    the longest betas, and both are merged into one sorted table of pairs,
    which is the union of the gates. Cosines are computed once on the union
    of the latent gates."""
    n = len(records)
    gates = {_gate_key(p) for p in cells} - {(None, None)}
    latent = {_gate_key(p) for p in cells
              if p.include_latent and p.gamma != 0.0} & gates
    radii = [r for r, _ in gates if r is not None]
    gaps = [g for _, g in gates if g is not None]
    dist = distance_pairs(records, max(radii)) if radii else None
    seq = sequence_pairs(records, max(gaps)) if gaps else []
    i, j, d, gap = _pair_table(n, dist, seq)
    del dist, seq
    cos = None
    if latent:
        x = np.asarray(descriptors)
        if x.ndim != 2 or x.shape[0] != n:
            raise InputError(f"descriptors must be 2-D with {n} rows")
        # A gate holds the pairs below its radius or within its gaps, so the
        # latent gates' union holds those below the largest radius or within
        # the most gaps.
        radius = max((r for r, _ in latent if r is not None), default=0.0)
        n_gaps = max((g for _, g in latent if g is not None), default=0)
        union = (d < radius) | ((gap != 0) & (gap <= n_gaps))
        cos = np.zeros(d.size)
        cos[union] = pair_cosines(x, i[union], j[union])
    return KernelGeometry(_symmetric_structure(n, i, j), d, gap, cos,
                          frozenset(gates), frozenset(latent))


def _check_weights(w: np.ndarray) -> None:
    # A NaN fails both comparisons.
    if w.size and not (w.min() > 0.0 and w.max() < np.inf):
        raise InputError("edge weights must be positive and finite")


def build_w_dist(geometry: KernelGeometry, params: GraphParams) -> WeightedGraph:
    """Distance kernel: exp(decay * alpha * d) for pairs with d strictly below
    max_distance_m, as weights on the structure of ``geometry``, which must
    hold params' gate."""
    geometry.check(params)
    keep = geometry.d < params.max_distance_m
    x = geometry.d[keep]
    x *= params.decay_factor * params.alpha
    with np.errstate(over="ignore"):  # _check_weights refuses the inf
        np.exp(x, out=x)
    _check_weights(x)
    w = np.zeros(keep.size)
    w[keep] = x
    return WeightedGraph(geometry.structure, w)


def build_w_seq(geometry: KernelGeometry, params: GraphParams) -> WeightedGraph:
    """Sequence kernel: beta_k between same-sequence images exactly k frame
    indices apart, k = 1..len(betas), as weights on the structure of
    ``geometry``, which must hold params' gate. Never crosses sequence
    boundaries."""
    geometry.check(params)
    betas = np.array((0.0,) + params.betas + (0.0,))
    _check_weights(betas[1:-1])
    # Gaps beyond the betas clip to the trailing zero.
    return WeightedGraph(geometry.structure,
                         np.take(betas, geometry.gap, mode="clip"))


def build_w_latent(descriptors: np.ndarray, gate: WeightedGraph,
                   params: GraphParams,
                   cosines: np.ndarray | None = None) -> WeightedGraph:
    """Latent kernel: gamma * max(0, cosine) on exactly the gated pairs.

    The kernel is weights on the gate's structure, zero where the gate's
    weight is zero or the cosine clamps to zero. ``cosines`` are one per pair
    of that structure, as ``kernel_geometry(...).cos`` holds them
    (``pair_cosines`` of the pairs, for a gate built by hand); they are read
    where the gate's weight is nonzero, and not at all when gamma is 0."""
    x = np.asarray(descriptors)
    if x.ndim != 2 or x.shape[0] != gate.n:
        raise InputError(f"descriptors must be 2-D with {gate.n} rows")
    w = np.zeros(gate.weights.size)
    if params.gamma == 0.0:
        return WeightedGraph(gate.structure, w)
    if cosines is None or np.shape(cosines) != w.shape:
        raise InputError("build_w_latent needs one cosine per pair of its "
                         "gate, as kernel_geometry(...).cos holds them")
    keep = (gate.weights != 0.0) & (cosines > 0.0)
    x = cosines[keep]
    x *= params.gamma
    _check_weights(x)
    w[keep] = x
    return WeightedGraph(gate.structure, w)


def combine(parts: list[WeightedGraph]) -> WeightedGraph:
    """Entrywise sum of weight graphs on one pair structure, in the order
    given: the sum of their weight arrays."""
    if not parts:
        raise InputError("combine needs at least one graph")
    structure = parts[0].structure
    if any(p.structure is not structure for p in parts[1:]):
        raise InputError("combine needs graphs on one pair structure")
    weights = parts[0].weights
    for p in parts[1:]:
        weights = weights + p.weights
    return WeightedGraph(structure, weights)


def normalize(w: WeightedGraph, params: GraphParams) -> SmoothingOperator:
    """A = D^-1 (W + S), where S is a unit diagonal on every vertex under
    include_self_edges and otherwise on the vertices with no W edge, which
    are listed in isolated_vertices either way. Each row of A depends only
    on its own row of W, which is not changed."""
    n = w.n
    mat = w.matrix
    # A degree that overflows, or whose reciprocal does, is met below.
    with np.errstate(over="ignore"):
        degree = _row_sums(mat)
        isolated = np.flatnonzero(degree == 0.0)
        diagonal = np.arange(n) if params.include_self_edges else isolated
        if diagonal.size:
            mat = (mat + sparse.csr_matrix(
                (np.ones(diagonal.size), (diagonal, diagonal)), shape=(n, n))).tocsr()
            # A row's degree sums its entries in column order.
            mat.sort_indices()
            degree = _row_sums(mat)
        inv = 1.0 / degree
    # A row whose 1/degree is inf or 0 is first divided by its largest
    # weight, which puts its degree in [1, row length]; mat.data is a copy.
    for row in np.flatnonzero((inv == 0.0) | (inv == np.inf)):
        part = mat.data[mat.indptr[row]:mat.indptr[row + 1]]
        part /= part.max()
        inv[row] = 1.0 / part.sum()
    # The scaled values are written to a new array, so W keeps its own; the
    # index arrays, which nothing writes, are shared with W.
    data = np.repeat(inv, np.diff(mat.indptr))
    data *= mat.data
    mat = sparse.csr_matrix((data, mat.indices, mat.indptr), shape=(n, n))
    return SmoothingOperator(matrix=mat, isolated_vertices=isolated.astype(np.int64))


def _row_sums(mat: sparse.csr_matrix) -> np.ndarray:
    """Each row's sum of its stored values, in stored order: the
    np.add.reduceat that scipy's CSR sum(axis=1) runs, without its matrix
    wrapping."""
    sums = np.zeros(mat.shape[0])
    rows = np.flatnonzero(np.diff(mat.indptr))
    sums[rows] = np.add.reduceat(mat.data, mat.indptr[rows])
    return sums


def build_graph(records: list[ImageRecord], descriptors: np.ndarray | None,
                params: GraphParams,
                geometry: KernelGeometry | None = None) -> WeightedGraph:
    """Assemble W from the kernels enabled in params, as weights on the
    structure of ``geometry`` (a kernel_geometry holding params' gate;
    without it one is computed for this cell alone).

    The latent kernel is gated to pairs connected by the *enabled* structural
    kernels, so with both of those off it contributes nothing. Descriptors are
    only required when the latent kernel is on and has a gate.
    """
    key = _gate_key(params)
    if key == (None, None):
        return WeightedGraph.empty(len(records))
    geometry = geometry or kernel_geometry(records, descriptors, [params])
    parts: list[WeightedGraph] = []
    if params.include_dist:
        parts.append(build_w_dist(geometry, params))
    if params.include_seq:
        parts.append(build_w_seq(geometry, params))
    # The gate holds the structural kernels' sum, and they are freed before
    # the latent kernel is built.
    gate = combine(parts)
    del parts
    if not params.include_latent:
        return gate
    cosines = geometry.cos if key in geometry.latent else None
    return combine([gate, build_w_latent(descriptors, gate, params, cosines)])


def build_operator(records: list[ImageRecord], descriptors: np.ndarray | None,
                   params: GraphParams,
                   geometry: KernelGeometry | None = None) -> SmoothingOperator:
    return normalize(build_graph(records, descriptors, params, geometry), params)


def save_operator(path: str | Path, op: SmoothingOperator) -> None:
    """Persist as ADJ1 (``codec.ADJ1``), with each row's columns sorted. An
    operator with unsorted rows is sorted in a copy; op is not changed."""
    mat = op.matrix.tocsr()
    if not mat.has_sorted_indices:
        mat = mat.sorted_indices()
    ADJ1.write(path, (mat.shape[0], mat.nnz), [mat.indptr, mat.indices, mat.data])


def load_operator(path: str | Path) -> SmoothingOperator:
    (n, nnz), (indptr, indices, values) = ADJ1.read(path)
    indptr = indptr.astype(np.int64)
    indices = indices.astype(np.int32)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise InputError(f"{path}: corrupt row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= n):
        raise InputError(f"{path}: column index out of range")
    if not np.all(np.isfinite(values)) or np.any(values < 0):
        raise InputError(f"{path}: operator values must be finite and nonnegative")
    mat = sparse.csr_matrix((values, indices, indptr), shape=(n, n))
    if n and np.abs(_row_sums(mat) - 1.0).max() > 1e-9:
        raise InputError(f"{path}: operator rows do not sum to 1")
    # Isolated vertices are recoverable: their rows are exactly [v -> 1.0].
    counts = np.diff(indptr)
    single = np.flatnonzero(counts == 1)
    diag_one = single[(indices[indptr[single]] == single)
                      & (values[indptr[single]] == 1.0)]
    return SmoothingOperator(matrix=mat, isolated_vertices=diag_one.astype(np.int64))
