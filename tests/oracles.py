"""Independent reference implementations used to cross-check the library.

Everything here is derived from the mathematical definitions through a
*different* algorithmic route than the production code takes — chord-based
great circles instead of the haversine identity, all-pairs scans instead of
spatial hashing, python sorts instead of argsort, dense numpy instead of CSR —
so agreement between the two is evidence, not tautology.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


# ---------------------------------------------------------------------------
# Great circles via 3-D chords


def chord_distance_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance from the 3-D chord between unit vectors.

    central angle = 2 * asin(chord / 2); no haversine identity involved.
    """
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = (math.cos(p1) * math.cos(l1), math.cos(p1) * math.sin(l1), math.sin(p1))
    b = (math.cos(p2) * math.cos(l2), math.cos(p2) * math.sin(l2), math.sin(p2))
    chord = math.dist(a, b)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, chord / 2.0))


def _unit_vectors(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    return np.stack([np.cos(phi) * np.cos(lam),
                     np.cos(phi) * np.sin(lam),
                     np.sin(phi)], axis=1)


def chord_distance_matrix_m(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """All-pairs great-circle distances (n x n), chord route, vectorized.

    Chords come from coordinate *differences* (not the gram identity
    2 - 2 v.v', which cancels catastrophically for near-coincident points).
    """
    v = _unit_vectors(lats, lons)
    n = v.shape[0]
    out = np.empty((n, n))
    block = max(1, 2_000_000 // max(1, n))
    for start in range(0, n, block):
        diff = v[start:start + block, None, :] - v[None, :, :]
        half = np.clip(np.linalg.norm(diff, axis=-1) / 2.0, 0.0, 1.0)
        out[start:start + block] = 2.0 * EARTH_RADIUS_M * np.arcsin(half)
    return out


def all_pairs_dist_edges(lats, lons, max_distance_m: float, alpha: float,
                         decay_factor: float) -> dict[tuple[int, int], float]:
    """O(n^2) distance-kernel oracle: {(i, j): weight} with i < j and the
    pair strictly closer than the cutoff."""
    d = chord_distance_matrix_m(lats, lons)
    n = d.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    keep = d[iu, ju] < max_distance_m
    weights = np.exp(decay_factor * alpha * d[iu, ju][keep])
    return {(int(i), int(j)): float(w)
            for i, j, w in zip(iu[keep], ju[keep], weights)}


# ---------------------------------------------------------------------------
# Retrieval


def _power_of_two_rows(x: np.ndarray) -> np.ndarray:
    """A float64 copy of x, each row scaled by the power of two that takes
    its largest |entry| into [0.5, 1): no cosine changes, and no square of a
    row's large entries overflows or underflows. Zero and non-finite rows
    are left as they are."""
    x = np.array(x, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        peak = np.abs(x).max(axis=1, initial=0.0)
    _, exponent = np.frexp(np.where(np.isfinite(peak), peak, 0.0))
    return np.ldexp(x, -exponent[:, None])


def quadratic_knn(queries: np.ndarray, support: np.ndarray,
                  k: int) -> list[list[tuple[int, float]]]:
    """Exact cosine top-k by python sort; ties go to the lower support index.

    Zero rows keep their zeros (cosine 0 against everything), mirroring the
    convention under test.
    """
    q, s = _power_of_two_rows(queries), _power_of_two_rows(support)
    for mat in (q, s):
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0.0] = 1.0
        mat /= norms[:, None]
    out: list[list[tuple[int, float]]] = []
    for qi in range(q.shape[0]):
        scores = s @ q[qi]
        order = sorted(range(s.shape[0]), key=lambda j: (-scores[j], j))[:k]
        out.append([(j, float(scores[j])) for j in order])
    return out


def fsum_cosines(queries: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Every (query, support) cosine, pair by pair in float64 with no BLAS:
    each dot product and squared norm is a ``math.fsum`` of the float64
    products of the entries, which are exact for float32 rows, so that each
    cosine is within a few ulps of the exact one. Rows are scaled by powers
    of two first, so that no sum overflows. Zero rows score 0."""
    q, s = _power_of_two_rows(queries), _power_of_two_rows(support)
    q_norms = [math.sqrt(math.fsum(row)) for row in (q * q).tolist()]
    s_norms = [math.sqrt(math.fsum(row)) for row in (s * s).tolist()]
    out = np.zeros((q.shape[0], s.shape[0]))
    for i, x in enumerate(q):
        if q_norms[i] == 0.0:
            continue
        dots = [math.fsum(row) for row in (x * s).tolist()]
        for j, (dot, norm) in enumerate(zip(dots, s_norms)):
            if norm != 0.0:
                out[i, j] = dot / q_norms[i] / norm
    return out


def route_cosines(queries: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Every (query, support) cosine by the route retrieval scores each
    candidate pair with: float64 rows divided by their norm (zero rows left
    zero), the two unit rows of each pair gathered, and
    ``np.einsum("ij,ij->i")``; here all pairs at once. A norm is the square
    root of the row's sum of squares, as ``np.linalg.norm`` takes it."""
    units = []
    for x in (queries, support):
        x = np.array(x, dtype=np.float64)
        norms = np.sqrt((x * x).sum(axis=1))
        norms[norms == 0.0] = 1.0
        units.append(x / norms[:, None])
    rows, cols = np.indices((units[0].shape[0], units[1].shape[0]))
    return np.einsum("ij,ij->i", units[0][rows.ravel()],
                     units[1][cols.ravel()]).reshape(rows.shape)


def stable_top_k(scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, scores) of each row's k best by a stable sort on -score:
    equal scores keep the lower column first."""
    picks = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    return picks, np.take_along_axis(scores, picks, axis=1)


# ---------------------------------------------------------------------------
# Graph normalization


def dense_normalize(w_dense: np.ndarray,
                    include_self_edges: bool) -> tuple[np.ndarray, list[int]]:
    """Row-normalize a dense symmetric weight matrix the slow obvious way.

    Returns (operator, isolated) where isolated lists vertices with no
    incident weight at all; rows that still have zero degree become identity
    rows.
    """
    w = np.asarray(w_dense, dtype=np.float64).copy()
    isolated = [i for i in range(w.shape[0]) if not w[i].any()]
    if include_self_edges:
        w = w + np.eye(w.shape[0])
    out = np.zeros_like(w)
    for i in range(w.shape[0]):
        degree = w[i].sum()
        if degree > 0.0:
            out[i] = w[i] / degree
        else:
            out[i, i] = 1.0
    return out, isolated


# ---------------------------------------------------------------------------
# Row normalization and projections


def unit_rows(x: np.ndarray) -> np.ndarray:
    """L2-normalize every row of a new float64 copy of the whole array at
    once, leaving zero rows zero, and cast back to x's dtype; the input is
    not touched."""
    rows = np.array(x, dtype=np.float64)
    norms = np.sqrt((rows * rows).sum(axis=1, keepdims=True))
    norms[norms == 0.0] = 1.0
    return (rows / norms).astype(x.dtype)


def svd_projection(descriptors: np.ndarray, d_out: int,
                   eps: float | None = None):
    """PCA + whitening by a thin SVD of the whole centered support, the
    library's fit before it went through the Gram matrix, kept verbatim: the
    fit's SVD fallback must equal it bit for bit."""
    from gsloc.errors import InputError
    from gsloc.features import _EIGENVALUE_FLOOR, Projection
    if eps is not None and not (np.isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be finite and nonnegative, got {eps}")
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    n, d_in = x.shape
    if n < 2:
        raise InputError(f"need at least 2 rows to fit a projection, got {n}")
    if not (1 <= d_out <= min(n - 1, d_in)):
        raise InputError(f"d_out={d_out} must be in [1, min(rows-1={n - 1}, dim={d_in})]")

    mean = x.mean(axis=0)
    centered = x - mean
    # Thin SVD of the centered data: right singular vectors are the principal
    # directions, singular values give eigenvalues of the 1/(n-1) covariance.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (svals ** 2) / (n - 1)
    total = float(eigenvalues.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InputError("zero-variance descriptors: nothing to project")
    kept = eigenvalues[:d_out]
    if kept[-1] <= _EIGENVALUE_FLOOR * total:
        raise InputError(
            f"eigenvalue {d_out} is {kept[-1]:.3g}, effectively zero next to "
            f"total variance {total:.3g}; reduce d_out")
    if eps is None:
        eps = 1e-9 * total / len(eigenvalues)
    basis = vt[:d_out].T.copy()
    # Deterministic sign: largest-magnitude component of each column positive.
    anchor = np.argmax(np.abs(basis), axis=0)
    flip = basis[anchor, np.arange(d_out)] < 0
    basis[:, flip] *= -1.0
    scale = 1.0 / np.sqrt(kept + eps)
    return Projection(mean=mean, basis=basis, scale=scale)


def quantized(projection):
    """The projection with its parameters rounded through float32, the PRJ1
    storage precision: what a saved and reloaded projection holds."""
    from gsloc.features import Projection
    return Projection(
        mean=projection.mean.astype(np.float32).astype(np.float64),
        basis=projection.basis.astype(np.float32).astype(np.float64),
        scale=projection.scale.astype(np.float32).astype(np.float64),
    )


# ---------------------------------------------------------------------------
# Smoothing by a dense matrix power

_DENSE_ORACLE_MAX_N = 2000


def smooth_dense_oracle(op, signal: np.ndarray, cfg) -> np.ndarray:
    """Apply op.matrix**cfg.m as one dense matrix power instead of m sparse
    products; refuses operators too large to densify."""
    from gsloc.errors import InputError
    if op.n > _DENSE_ORACLE_MAX_N:
        raise InputError(f"dense oracle refuses n={op.n} > {_DENSE_ORACLE_MAX_N}")
    s = np.asarray(signal)
    if s.ndim != 2 or s.shape[0] != op.n:
        raise InputError("signal shape does not match operator")
    if cfg.m == 0:
        return s
    dense = op.matrix.toarray()
    power = np.linalg.matrix_power(dense, cfg.m)
    return (power @ s.astype(np.float64)).astype(s.dtype)


def random_weighted_graph(rng: np.random.Generator, n: int,
                          density: float = 0.08,
                          n_isolated: int = 0):
    """Random symmetric weight matrix as (WeightedGraph, dense ndarray).

    Both views are built from the same raw pair list, so the dense array is
    not derived from the CSR under test. The last ``n_isolated`` vertices are
    excluded from every pair.
    """
    from gsloc.graph import WeightedGraph

    live = n - n_isolated
    pairs: list[tuple[int, int]] = []
    if live >= 2:
        iu, ju = np.triu_indices(live, k=1)
        mask = rng.random(iu.size) < density
        pairs = list(zip(iu[mask].tolist(), ju[mask].tolist()))
        if not pairs:  # keep at least one edge among the live vertices
            pairs = [(0, 1)]
    weights = rng.uniform(0.1, 2.0, size=len(pairs))
    dense = np.zeros((n, n))
    for (i, j), w in zip(pairs, weights):
        dense[i, j] = dense[j, i] = w
    if pairs:
        i_arr = np.array([p[0] for p in pairs])
        j_arr = np.array([p[1] for p in pairs])
        graph = WeightedGraph.from_pairs(n, i_arr, j_arr, weights)
    else:
        graph = WeightedGraph.empty(n)
    return graph, dense


def coo_from_pairs(n, i, j, w):
    """WeightedGraph.from_pairs by the route the library took before it
    built one triangle and added its transpose: both orientations
    concatenated as int64 coordinates and handed to scipy's COO
    constructor, which copies them down to its own index width. Kept
    verbatim, but for the SparseGraph it returns, to pin its bits."""
    from scipy import sparse
    from gsloc.errors import InputError
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
    if mat.nnz != 2 * i.size:
        raise InputError("duplicate edges in pair list")
    return SparseGraph(mat)


def copying_normalize(w, params):
    """graph.normalize by the route the library took before it wrote the
    scaled values to a new array: W cast (which copies it) and then copied
    again, and the copy scaled in place. Kept verbatim to pin its bits."""
    from scipy import sparse
    from gsloc.graph import SmoothingOperator
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


def coo_edges(graph):
    """Upper-triangle (i, j, w) arrays of a WeightedGraph by the COO route:
    every stored entry with row < col, lexsorted into (i, j) order."""
    coo = graph.matrix.tocoo()
    keep = coo.row < coo.col
    i, j, w = coo.row[keep], coo.col[keep], coo.data[keep]
    order = np.lexsort((j, i))
    return i[order].astype(np.int64), j[order].astype(np.int64), w[order]


def edge_set(graph) -> set[tuple[int, int]]:
    """The (i, j), i < j, pairs a WeightedGraph connects."""
    i, j, _ = coo_edges(graph)
    return set(zip(i.tolist(), j.tolist()))


def localization_error(lat: float, lon: float, truth) -> float:
    """Great-circle distance in meters between an estimated fix and a
    GeoPoint."""
    from gsloc.geodesy import GeoPoint, haversine_m
    return haversine_m(GeoPoint(lat, lon), truth)


# ---------------------------------------------------------------------------
# Graphs built cell by cell, one sparse matrix per kernel


class SparseGraph:
    """graph.WeightedGraph as the library had it before a cell's kernels
    became weight arrays on a shared pair structure: every kernel its own CSR
    matrix, built from its pairs and added to its transpose. The class body
    is kept verbatim, as are sparse_combine and sparse_normalize below, to
    pin the bits of that route."""

    def __init__(self, matrix):
        self.matrix = matrix

    @property
    def n(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.matrix.nnz) // 2

    @classmethod
    def empty(cls, n: int) -> "SparseGraph":
        from scipy import sparse
        return cls(sparse.csr_matrix((n, n), dtype=np.float64))

    @classmethod
    def from_pairs(cls, n: int, i: np.ndarray, j: np.ndarray,
                   w: np.ndarray) -> "SparseGraph":
        from scipy import sparse
        from gsloc.errors import InputError
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
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise InputError("edge weights must be positive and finite")
        once = sparse.csr_matrix((w, (i, j)), shape=(n, n), dtype=np.float64)
        # For unique pairs the two orientations share no entry, so every
        # stored value is a weight as given. Both the construction and the
        # sum add up duplicate entries, so a repeated pair, in either
        # orientation, shows up as a missing stored entry.
        mat = (once + once.T).tocsr()
        if mat.nnz != 2 * i.size:
            raise InputError("duplicate edges in pair list")
        return cls(mat)

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        mat = self.matrix
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        i = np.repeat(np.arange(self.n, dtype=mat.indices.dtype), np.diff(mat.indptr))
        keep = i < mat.indices
        return (i[keep].astype(np.int64, copy=False),
                mat.indices[keep].astype(np.int64, copy=False), mat.data[keep])


def sparse_combine(parts: list[SparseGraph]) -> SparseGraph:
    """Entrywise sum of weight graphs over the same vertex set."""
    from gsloc.errors import InputError
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
    return SparseGraph(total)


def sparse_normalize(w: SparseGraph, params):
    """Divide each row by its degree (plus a unit self-weight when
    include_self_edges). Vertices with no incident W edges get an identity
    row and are listed in isolated_vertices. W itself is not changed."""
    from scipy import sparse
    from gsloc.graph import SmoothingOperator
    n = w.n
    w_degree = np.asarray(w.matrix.sum(axis=1)).ravel()
    isolated = np.flatnonzero(w_degree == 0.0).astype(np.int64)
    mat = w.matrix
    if params.include_self_edges:
        mat = (mat + sparse.identity(n, format="csr", dtype=np.float64)).tocsr()
    elif not mat.has_sorted_indices:
        mat = mat.copy()
    # A row's degree sums its entries in column order.
    mat.sort_indices()
    degree = np.asarray(mat.sum(axis=1)).ravel()
    fallback = np.flatnonzero(degree == 0.0)
    inv = np.ones_like(degree)
    np.divide(1.0, degree, out=inv, where=degree > 0.0)
    # The scaled values are written to a new array, so W keeps its own.
    data = np.repeat(inv, np.diff(mat.indptr))
    data *= mat.data
    mat = sparse.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()),
                            shape=(n, n))
    if fallback.size:
        eye = sparse.csr_matrix(
            (np.ones(fallback.size), (fallback, fallback)), shape=(n, n))
        mat = (mat + eye).tocsr()
        mat.sort_indices()
    return SmoothingOperator(matrix=mat, isolated_vertices=isolated)


def reference_operator(records, descriptors, params):
    """The smoothing operator for one parameter cell, built the way the
    library did before its kernels shared geometry across cells: distance
    pairs from an all-pairs scan at this cell's own radius, sequence pairs
    for this cell's betas, and cosines on this cell's own gate, each kernel a
    separate sparse matrix summed in dist, seq, latent order."""
    n = len(records)
    parts = []
    if params.include_dist:
        parts.append(_reference_w_dist(records, params))
    if params.include_seq:
        parts.append(_reference_w_seq(records, params))
    if params.include_latent:
        gate = sparse_combine(parts) if parts else SparseGraph.empty(n)
        parts.append(_reference_w_latent(descriptors, gate, params))
    w = sparse_combine(parts) if parts else SparseGraph.empty(n)
    return sparse_normalize(w, params)


def _graph(n, out_i, out_j, out_w):
    if not out_i:
        return SparseGraph.empty(n)
    return SparseGraph.from_pairs(n, np.concatenate(out_i),
                                  np.concatenate(out_j), np.concatenate(out_w))


def _reference_w_dist(records, params):
    """Every pair i < j of np.triu_indices, kept when its haversine distance
    is below the radius. No cell list is used, so a pair that the library's
    cell list drops shows as a difference."""
    from gsloc.geodesy import haversine_m_vectorized
    n = len(records)
    lats = np.array([r.lat for r in records])
    lons = np.array([r.lon for r in records])
    i, j = np.triu_indices(n, k=1)
    d = haversine_m_vectorized(lats[i], lons[i], lats[j], lons[j])
    keep = d < params.max_distance_m
    factor = params.decay_factor * params.alpha
    return _graph(n, [i[keep]], [j[keep]], [np.exp(factor * d[keep])])


def _reference_w_seq(records, params):
    """Pairs by a python scan over each sequence's frame numbers."""
    by_seq: dict[str, dict[int, int]] = {}
    for idx, rec in enumerate(records):
        by_seq.setdefault(rec.sequence_id, {})[rec.frame_index] = idx
    out_i, out_j, out_w = [], [], []
    for frames in by_seq.values():
        for frame, idx in frames.items():
            for k, beta in enumerate(params.betas, start=1):
                if frame + k in frames:
                    out_i.append(np.array([idx]))
                    out_j.append(np.array([frames[frame + k]]))
                    out_w.append(np.array([beta]))
    return _graph(len(records), out_i, out_j, out_w)


def _reference_w_latent(descriptors, gate, params):
    """Cosines of the gate's own pairs, one row pair at a time
    (``pair_by_pair_cosines``)."""
    gi, gj, _ = coo_edges(gate)
    out_i, out_j, out_w = [], [], []
    if gi.size and params.gamma != 0.0:
        cosines = pair_by_pair_cosines(np.asarray(descriptors), gi, gj)
        for i, j, cos in zip(gi.tolist(), gj.tolist(), cosines.tolist()):
            if cos > 0.0:
                out_i.append(np.array([i]))
                out_j.append(np.array([j]))
                out_w.append(params.gamma * np.array([cos]))
    return _graph(gate.n, out_i, out_j, out_w)


def gate_cosines(descriptors, gate) -> np.ndarray:
    """One cosine per pair of a gate graph's structure, as build_w_latent
    takes them: pair_cosines of the upper-triangle entries (i < j), each
    placed at the pair its entry names."""
    from gsloc.graph import pair_cosines
    structure = gate.structure
    i = np.repeat(np.arange(structure.n), np.diff(structure.indptr))
    upper = i < structure.indices
    cos = np.zeros(gate.weights.size)
    cos[structure.entry_pair[upper]] = pair_cosines(
        np.asarray(descriptors), i[upper], structure.indices[upper])
    return cos


def pair_by_pair_cosines(descriptors: np.ndarray, i: np.ndarray,
                         j: np.ndarray) -> np.ndarray:
    """The latent kernel's cosines in float32, one pair at a time. Each
    nonzero row is scaled by the power of two that takes its largest |entry|
    into [0.5, 1), which changes no cosine and keeps the squares in range;
    the pair's two (1, dim) rows meet in ``np.einsum("ij,ij->i")`` with no
    dtype, so the dot product is float32, and it is divided in float64 by
    the product of the scaled rows' float64 norms (``np.linalg.norm`` along
    the row), a zero row's norm taken as 1."""
    x = np.asarray(descriptors)
    _, exponent = np.frexp(np.abs(x).max(axis=1, initial=0))
    scaled = np.ldexp(x, -exponent[:, None])
    cos = np.empty(len(i))
    for k, (a, b) in enumerate(zip(np.asarray(i).tolist(), np.asarray(j).tolist())):
        rows = scaled[[a, b]]
        norm_a, norm_b = (float(v) or 1.0 for v in
                          np.linalg.norm(rows.astype(np.float64), axis=1))
        dot = np.einsum("ij,ij->i", rows[:1], rows[1:])
        cos[k] = float(dot[0]) / (norm_a * norm_b)
    return cos


def chunked_pair_cosines(descriptors: np.ndarray, i: np.ndarray,
                         j: np.ndarray, chunk_bytes: int = 4 << 20) -> np.ndarray:
    """The latent kernel's cosines by the route that gathers both rows of
    every pair, in chunks of pairs taken in list order (the library's route
    before it grouped pairs by source row), kept verbatim to pin its bits."""
    from gsloc.features import row_norms
    x = np.asarray(descriptors)
    norms, _ = row_norms(x, chunk_bytes)
    chunk = max(1, int(chunk_bytes // (2 * x.itemsize * max(1, x.shape[1]))))
    cos = np.empty(i.size)
    for start in range(0, i.size, chunk):
        ci = i[start:start + chunk]
        cj = j[start:start + chunk]
        dots = np.einsum("ij,ij->i", x[ci], x[cj], dtype=np.float64)
        cos[start:start + chunk] = dots / (norms[ci] * norms[cj])
    return cos


# ---------------------------------------------------------------------------
# Scoring one query at a time


def scalar_positions(indices, scores, lats, lons,
                     strategy) -> list[tuple[float, float]]:
    """Each query's (lat, lon) estimate, one query and one neighbor at a
    time through the math module, in the operation order of
    retrieval.estimate_positions: the clamped weights times unit vectors
    summed from 0.0 neighbor by neighbor, then math.atan2 of the sum."""
    out = []
    for row, row_scores in zip(np.asarray(indices).tolist(),
                               np.asarray(scores).tolist()):
        best = (float(lats[row[0]]), float(lons[row[0]]))
        x = y = z = 0.0
        for i, score in zip(row, row_scores):
            weight = max(score, 0.0)
            phi, lam = math.radians(lats[i]), math.radians(lons[i])
            cos_phi = math.cos(phi)
            x += weight * (cos_phi * math.cos(lam))
            y += weight * (cos_phi * math.sin(lam))
            z += weight * math.sin(phi)
        if strategy == "top1" or x == y == z == 0.0:
            out.append(best)
        else:
            out.append((math.degrees(math.atan2(z, math.sqrt(x * x + y * y))),
                        math.degrees(math.atan2(y, x))))
    return out


def scalar_errors_m(indices, scores, support, query, strategy) -> list[float]:
    """Localization errors through scalar_positions, GeoPoint and the scalar
    haversine_m, one query at a time; row i of the arrays is query i."""
    from gsloc.geodesy import GeoPoint, haversine_m
    lats, lons = support.positions
    positions = scalar_positions(indices, scores, lats, lons, strategy)
    return [haversine_m(GeoPoint(lat, lon), GeoPoint(rec.lat, rec.lon))
            for (lat, lon), rec in zip(positions, query.records)]
