"""Property-based checks of the screened top-k and the sorted-cell spatial
join against brute force, on inputs built to hit their edge cases: exact
score ties (duplicated rows, zero rows, ties straddling the k-th place, and
copies in different support chunks), points near the poles and across the
antimeridian, and cells from 5 m to 2 km. The evaluation engine's shortcuts
are checked bit for bit against the routes they replace: the m-ladder against
a fresh smooth, operators built on shared kernel geometry against a build for
the cell alone, and array scoring against one scalar haversine per query.
Retrieval, which screens each tile in float32, scores its candidates on
one float64 route and merges them into a running top k, is checked bit for
bit against a stable sort of every pair's route score, at any tile and batch
size and at float32 magnitudes from subnormal to 1e30, on both sides of the
screen's 2^-64 and 2^64 edges, and within the route's bound against per-pair
cosines summed with math.fsum. The
latent cosines, grouped by source row, are checked bit for bit against the
route that gathers both rows of every pair, and the graph stages (pairs to
W, its edges, the sum of kernels and the normalization) against the COO
route and the copying normalization they replace. The projection fit through the
Gram matrix is checked against a thin SVD of the whole support, and a
damaged PRJ1, EMB1 or ADJ1 file either loads or is refused, naming the file,
without a warning. A damaged metadata CSV is refused naming the file, or
loads; a cut one that loads holds the original's first records.

Examples are derandomized so a run is reproducible; raise ``max_examples``
locally to search wider.
"""

from __future__ import annotations

import logging
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import gsloc.features as features_mod
import gsloc.graph as graph_mod
import gsloc.retrieval as retrieval
import gsloc.spatial as spatial
from gsloc.dataset import (Dataset, ImageRecord, load_descriptors,
                           load_metadata, write_descriptors, write_metadata)
from gsloc.errors import InputError
from gsloc.evaluation import _memo_smoother, compute_report
from gsloc.features import Projection, load_projection, save_projection
from gsloc.geodesy import METERS_PER_DEGREE, haversine_m_vectorized
from gsloc.graph import (GraphParams, SmoothingOperator, WeightedGraph,
                         build_operator, combine, kernel_geometry,
                         load_operator, normalize, pair_cosines,
                         save_operator)
from gsloc.retrieval import cosine_knn, estimate_positions
from gsloc.smoothing import SmoothConfig, smooth
from gsloc.spatial import LatLonGrid
from oracles import (SparseGraph, coo_edges, coo_from_pairs,
                     copying_normalize, quadratic_knn, fsum_cosines,
                     pair_by_pair_cosines, reference_operator, route_cosines,
                     scalar_errors_m, scalar_positions, stable_top_k,
                     svd_projection)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None)

# Scores of rows that tie in exact arithmetic but differ in their entries
# (e.g. permutations of each other) may round differently in the library's
# matrix product and in the oracle's; comparisons allow this much slack.
SCORE_EPS = 1e-12


# ---------------------------------------------------------------------------
# Top-k retrieval


_values = st.one_of(st.integers(-3, 3).map(float),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def _tied_sets(draw):
    """Float32 (queries, support) with duplicated, zero and query-copied
    rows."""
    dim = draw(st.integers(1, 6))
    n_support = draw(st.integers(1, 24))
    n_query = draw(st.integers(1, 4))
    support = np.array(draw(st.lists(_values, min_size=n_support * dim,
                                     max_size=n_support * dim))).reshape(n_support, dim)
    queries = np.array(draw(st.lists(_values, min_size=n_query * dim,
                                     max_size=n_query * dim))).reshape(n_query, dim)
    index = st.integers(0, n_support - 1)
    for dst, src in draw(st.lists(st.tuples(index, index), max_size=n_support)):
        support[dst] = support[src]
    for row in draw(st.lists(index, max_size=3)):
        support[row] = 0.0
    for qi in range(n_query):
        copy_of = draw(st.one_of(st.none(), index))
        if copy_of is not None:
            queries[qi] = support[copy_of] * draw(st.sampled_from([1.0, 0.5, 3.0]))
    return queries.astype(np.float32), support.astype(np.float32)


def _copy_groups(support: np.ndarray) -> tuple[list[int], list[list[int]]]:
    """(group of each support row, ascending row indices of each group), where
    a group holds the rows equal to each other."""
    # + 0.0 turns -0.0 into 0.0, which compares equal to it.
    _, labels = np.unique(support + 0.0, axis=0, return_inverse=True)
    labels = labels.ravel()
    groups = [np.flatnonzero(labels == g).tolist() for g in range(labels.max() + 1)]
    return labels.tolist(), groups


def _assert_topk(queries: np.ndarray, support: np.ndarray,
                 ks) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Check cosine_knn at each k against the oracles; return its arrays."""
    n = support.shape[0]
    results = {}
    logging.disable(logging.WARNING)
    try:
        # The full stable sort is the library's own reference order.
        full_idx, full_scores = cosine_knn(queries, support, k=n)
        oracle_full = quadratic_knn(queries, support, k=n)
        reference = fsum_cosines(queries, support)
        group_of, groups = _copy_groups(support)
        for k in ks:
            got_idx, got_scores = results[k] = cosine_knn(queries, support, k=k)
            want = quadratic_knn(queries, support, k=k)
            # Row i of both arrays is query i.
            assert got_idx.shape == got_scores.shape == (queries.shape[0], k)
            assert got_idx.dtype == np.int64 and got_scores.dtype == np.float64
            for qi, oracle in enumerate(want):
                idx = got_idx[qi].tolist()
                scores = got_scores[qi].tolist()
                # The top k are exactly the stable sort's first k, including
                # which of a tie group straddling place k is kept.
                assert idx == full_idx[qi, :k].tolist()
                assert scores == full_scores[qi, :k].tolist()
                assert len(set(idx)) == k
                oracle_score = dict(oracle_full[qi])
                for r, (i, s) in enumerate(zip(idx, scores)):
                    assert abs(s - oracle[r][1]) <= SCORE_EPS
                    assert abs(s - oracle_score[i]) <= SCORE_EPS
                    assert abs(s - reference[qi, i]) <= SCORE_EPS
                # Nothing left out beats anything kept, by either oracle.
                kept = set(idx)
                for score_of in (oracle_score, reference[qi]):
                    left_out = [score_of[j] for j in range(n) if j not in kept]
                    if left_out:
                        assert (min(score_of[i] for i in idx)
                                >= max(left_out) - SCORE_EPS)
                # Identical support rows tie exactly: the lower index wins, so
                # the kept copies of a row are its lowest-index ones, in order.
                kept_by_group: dict[int, list[int]] = {}
                for i in idx:
                    kept_by_group.setdefault(group_of[i], []).append(i)
                for g, rows in kept_by_group.items():
                    assert rows == groups[g][:len(rows)]
                assert all(a >= b for a, b in zip(scores, scores[1:]))
    finally:
        logging.disable(logging.NOTSET)
    return results


@PROPERTY
@given(_tied_sets())
def test_topk_matches_quadratic_oracle_with_exact_ties(case):
    queries, support = case
    _assert_topk(queries, support, range(1, support.shape[0] + 1))


@st.composite
def _multi_chunk_sets(draw):
    """(queries, support) whose support spans several small tiles: a tied
    set's rows repeat down the support, so exact copies and zero rows fall
    in different tiles, and the size often sits next to a tile edge."""
    queries, base = draw(_tied_sets())
    n = draw(st.one_of(st.sampled_from([64, 65, 127, 128, 129, 192, 193]),
                       st.integers(1, 260)))
    support = base[np.arange(n) % base.shape[0]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moved = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))
    support[moved] += rng.integers(-2, 3, (int(moved.sum()), base.shape[1]))
    return queries, support


# A score tile budget of 4,096 float32 scores (tiles of 64 x 64), so a few
# hundred rows on each side make many tiles.
_SMALL_TILE_BYTES = 8 * 64 * 64
# A rescoring budget of a few candidate pairs per batch (3 to 21 at these
# dimensions), so that a row's candidates span several batches and merges.
_SMALL_RESCORE_BYTES = 1 << 10


@PROPERTY
@given(_multi_chunk_sets())
def test_topk_does_not_depend_on_the_support_chunks(case):
    queries, support = case
    n = support.shape[0]
    ks = sorted({k for k in (1, 2, 3, n // 2, n - 1, n) if 1 <= k <= n})
    whole = _assert_topk(queries, support, ks)
    with pytest.MonkeyPatch.context() as mp:
        # Small tiles, and candidates scored a few pairs at a time.
        mp.setattr(retrieval, "_SCORE_TILE_BYTES", _SMALL_TILE_BYTES)
        mp.setattr(retrieval, "_RESCORE_BYTES", _SMALL_RESCORE_BYTES)
        chunked = _assert_topk(queries, support, ks)
    for k in ks:
        (a_idx, a_scores), (b_idx, b_scores) = chunked[k], whole[k]
        assert np.array_equal(a_idx, b_idx)
        assert a_scores.tobytes() == b_scores.tobytes()


def _more_queries(queries: np.ndarray, support: np.ndarray, n_query: int,
                  seed: int) -> np.ndarray:
    """queries, then exact and scaled copies of support rows, then the
    queries again, up to n_query rows (the queries alone if fewer)."""
    if n_query <= queries.shape[0]:
        return queries
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, support.shape[0], n_query)
    extra = support[picks] * rng.choice([1.0, 0.5, 3.0], (n_query, 1))
    extra[1::3] = queries[np.arange(1, n_query, 3) % queries.shape[0]]
    return np.vstack([queries, extra])[:n_query].astype(queries.dtype)


def _route_tolerance(dim: int) -> float:
    """How far a float64 route score and an fsum cosine may differ: the
    route's bound E64 of the retrieval docstring, (2d + 4) 2^-53 to first
    order, plus a few ulps of the fsum cosine's own roundings."""
    return (2 * dim + 12) * 2.0 ** -53


@PROPERTY
@given(_multi_chunk_sets(), st.sampled_from([1, 130]),
       st.sampled_from([_SMALL_RESCORE_BYTES, 1 << 20]))
def test_topk_scores_match_the_fsum_reference(case, n_query, rescore_bytes):
    # Several query blocks and support chunks, and candidates scored a few
    # pairs at a time or all together: every score is within the float64
    # route's bound of the per-pair fsum cosine, and nothing left out beats
    # a kept neighbor by more than twice that.
    queries, support = case
    queries = _more_queries(queries, support, n_query, n_query)
    n = support.shape[0]
    reference = fsum_cosines(queries, support)
    tolerance = _route_tolerance(support.shape[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "_SCORE_TILE_BYTES", _SMALL_TILE_BYTES)
        mp.setattr(retrieval, "_RESCORE_BYTES", rescore_bytes)
        logging.disable(logging.WARNING)
        try:
            for k in sorted({k for k in (1, 2, 3, n) if k <= n}):
                got_idx, got = cosine_knn(queries, support, k)
                want = np.take_along_axis(reference, got_idx, axis=1)
                assert np.all(np.abs(got - want) <= tolerance)
                left_out = reference.copy()
                np.put_along_axis(left_out, got_idx, -np.inf, axis=1)
                assert np.all(want[:, -1] >= left_out.max(axis=1) - 2 * tolerance)
        finally:
            logging.disable(logging.NOTSET)


def _straddled_places(scores: np.ndarray, limit: int) -> list[int]:
    """Up to `limit` places k of a row of sorted scores where a tie group
    straddles place k: the k-th and (k+1)-th best scores are equal."""
    return (np.flatnonzero(scores[:-1] == scores[1:])[:limit] + 1).tolist()


@PROPERTY
@given(_multi_chunk_sets(), st.sampled_from([1, 2, 3, 64, 65, 127, 200]),
       st.integers(0, 2**32 - 1))
@example(case=(np.ones((1, 2), np.float32), np.ones((200, 2), np.float32)),
         n_query=130, seed=0)
def test_tile_walk_equals_a_stable_sort_of_the_whole_product(case, n_query,
                                                              seed):
    # Small tiles: a query's copies, the zero rows and the rows a tied set
    # repeats down the support fall in different tiles, and k is also set
    # where such a tie straddles place k, so the running top k meets ties
    # from later tiles at its last place. The screen's candidates, scored
    # and merged tile by tile, give the stable sort of every pair's route
    # score, bit for bit.
    queries, support = case
    queries = _more_queries(queries, support, n_query, seed)
    n = support.shape[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retrieval, "_SCORE_TILE_BYTES", _SMALL_TILE_BYTES)
        logging.disable(logging.WARNING)
        try:
            itemsize = support.dtype.itemsize
            blocks, chunks = retrieval._tile_shape(
                *queries.shape[:1], *support.shape, itemsize)
            assert all((b1 - b0) * (c1 - c0) * 2 * itemsize <= _SMALL_TILE_BYTES
                       for b0, b1 in blocks for c0, c1 in chunks)
            # The whole product's rows, stably sorted: the oracle at k = n.
            whole_idx, whole = stable_top_k(route_cosines(queries, support), n)
            ks = {1, 2, 3, 63, 64, 65, n // 2, n - 1, n}
            for row in whole[:: max(1, queries.shape[0] // 4)]:
                ks.update(_straddled_places(row, 3))
            for k in sorted(k for k in ks if 1 <= k <= n):
                got_idx, got = cosine_knn(queries, support, k)
                assert np.array_equal(got_idx, whole_idx[:, :k])
                assert got.tobytes() == np.ascontiguousarray(whole[:, :k]).tobytes()
        finally:
            logging.disable(logging.NOTSET)


@pytest.mark.parametrize("n_support", [64 + 1, 3 * 64 + 1, 4 * 64])
def test_topk_with_a_short_last_support_chunk(monkeypatch, n_support):
    # 64-column support chunks, so the support ends one row past a chunk
    # edge (or on one); its last row copies the first. A one-row chunk
    # scores that copy by the route every pair takes, so it ties the first
    # bit for bit and ranks after it.
    rng = np.random.default_rng(n_support)
    support = rng.integers(-3, 4, (n_support, 6)).astype(np.float32)
    support[0] = support[-1] = [0.0, 0.0, 0.0, 0.0, 2.0, 3.0]
    queries = np.vstack([support[[0, 5]],
                         rng.standard_normal((2, 6), dtype=np.float32)])
    whole_idx, whole = cosine_knn(queries, support, k=3)
    # Four query rows: a tile budget of 2 x 4 bytes x 4 rows x 64.
    monkeypatch.setattr(retrieval, "_SCORE_TILE_BYTES", 8 * 4 * 64)
    assert retrieval._tile_shape(4, n_support, 6, 4)[1] == retrieval._edges(
        n_support, 64)
    chunked_idx, chunked = cosine_knn(queries, support, k=3)
    oracle = quadratic_knn(queries, support, k=3)
    assert np.array_equal(chunked_idx, whole_idx)
    assert chunked.tobytes() == whole.tobytes()
    assert chunked_idx[0, :2].tolist() == [0, n_support - 1]
    assert chunked[0, 0] == chunked[0, 1]
    for row, x_row, want in zip(chunked_idx.tolist(), chunked.tolist(), oracle):
        assert row == [i for i, _ in want]
        for x, (_, z) in zip(x_row, want):
            assert abs(x - z) <= SCORE_EPS


@pytest.mark.parametrize("seed", range(6))
def test_exact_copies_tie_wherever_they_sit(seed):
    # Six copies of support row 0 at random rows in 1-511, and one more at
    # row 512, past the last 64-row edge; row 0 is query 0. All eight score
    # alike, bit for bit, so the lowest index wins. (Scored in BLAS tiles,
    # the copies differed by up to 4e-16 at seeds 1-4, and the copy at 512
    # won top-1 at seeds 3 and 4.)
    rng = np.random.default_rng(seed)
    support = rng.standard_normal((513, 1024), dtype=np.float32)
    copies = rng.choice(np.arange(1, 512), 6, replace=False)
    support[copies] = support[0]
    support[512] = support[0]
    queries = np.vstack([support[:1],
                         rng.standard_normal((36, 1024), dtype=np.float32)])
    indices, scores = cosine_knn(queries, support, k=8)
    assert indices[0].tolist() == sorted([0, *copies.tolist(), 512])
    assert len(set(scores[0].tolist())) == 1
    top_idx, _ = cosine_knn(queries, support, k=1)
    assert top_idx[0, 0] == 0


# Rows whose squared norms straddle the screen's 2^-64 and 2^64 edges (2^-32
# and 2^32 times entries of about 1 to 1,000), whose float32 squares
# underflow (1e-30) or overflow (1e30), and of subnormal entries (1e-40).
_magnitudes = st.sampled_from([1.0, 2.0 ** -32, 2.0 ** 32, 1e-30, 1e30, 1e-40])


@st.composite
def _screen_sets(draw):
    """(queries, support): rows of a tied set at the magnitudes above, with
    exact copies, zero rows, and near-copies one ulp away in one entry, so
    that the screen's cut meets ties and near-ties at every scale."""
    queries, support = draw(_tied_sets())
    n, dim = support.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.vstack([support, support[rng.integers(0, n, n)]])
    near = rng.random(rows.shape[0]) < 0.5
    cols = rng.integers(0, dim, rows.shape[0])
    toward = rows.dtype.type(np.inf)
    rows[near, cols[near]] = np.nextafter(rows[near, cols[near]], toward)
    scale = np.array([draw(_magnitudes) for _ in range(rows.shape[0])])
    support = (rows * scale[:, None]).astype(rows.dtype)
    q_scale = np.array([draw(_magnitudes) for _ in range(queries.shape[0])])
    queries = (queries * q_scale[:, None]).astype(queries.dtype)
    for row in draw(st.lists(st.integers(0, support.shape[0] - 1), max_size=2)):
        support[row] = 0.0
    return queries, support


# Query 0, near 1e-30, and query 1, near 2^40, each have their nearest
# neighbour at the other magnitude: the 2^40 support row's squared norm
# (about 2^82) is above 2^64, so it skips the screen, and the 1e-30 row's
# float32 squares underflow to 0.
_EDGE_ROWS = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]],
                      dtype=np.float32)
_EDGE_CASE = (
    _EDGE_ROWS[:2] * np.array([[1e-30], [2.0 ** 40]], np.float32)
    + np.array([[0.0, 0.0, 1e-31], [0.0, 0.0, 2.0 ** 36]], np.float32),
    _EDGE_ROWS * np.array([[2.0 ** 40], [1e-30], [1.0]], np.float32))


@PROPERTY
@given(_screen_sets())
@example(case=_EDGE_CASE)
def test_screen_keeps_every_neighbor_at_any_magnitude(case):
    queries, support = case
    n = support.shape[0]
    route = route_cosines(queries, support)
    reference = fsum_cosines(queries, support)
    tolerance = _route_tolerance(support.shape[1])
    # The route's scores, to within its bound of the fsum cosines.
    assert np.all(np.abs(route - reference) <= tolerance)
    whole_idx, whole = stable_top_k(route, n)
    if queries is _EDGE_CASE[0]:
        assert whole_idx[:, 0].tolist() == [0, 1]
    ks = {1, 2, 3, n}
    for row in whole:
        ks.update(_straddled_places(row, 3))
    _assert_topk(queries, support, sorted(k for k in ks if 1 <= k <= n))
    logging.disable(logging.WARNING)
    try:
        for k in sorted(k for k in ks if 1 <= k <= n):
            # The screen dropped no column that the route ranks in the top
            # k: the result is the route's stable sort, bit for bit.
            got_idx, got = cosine_knn(queries, support, k)
            assert np.array_equal(got_idx, whole_idx[:, :k])
            assert got.tobytes() == np.ascontiguousarray(whole[:, :k]).tobytes()
    finally:
        logging.disable(logging.NOTSET)


def test_near_identical_support_makes_every_column_a_candidate(monkeypatch):
    # Every support row is one base row with float32 noise far inside the
    # screen's bound, so every column is a candidate for every query: the
    # candidates go through the float64 route in budget-sized batches and
    # still give the route's stable sort, bit for bit, in bounded time.
    rng = np.random.default_rng(5)
    base = rng.standard_normal(32, dtype=np.float32)
    support = base + 1e-6 * rng.standard_normal((1500, 32), dtype=np.float32)
    queries = base + 1e-6 * rng.standard_normal((40, 32), dtype=np.float32)
    monkeypatch.setattr(retrieval, "_RESCORE_BYTES", 64 << 10)
    route = route_cosines(queries, support)
    assert np.ptp(route) < retrieval._screen_bound(32, np.dtype(np.float32))
    for k in (1, 5):
        start = time.perf_counter()
        got_idx, got = cosine_knn(queries, support, k)
        elapsed = time.perf_counter() - start
        want_idx, want = stable_top_k(route, k)
        assert np.array_equal(got_idx, want_idx)
        assert got.tobytes() == want.tobytes()
        # 60,000 candidate pairs: about 0.1 s on a 2-core VM.
        assert elapsed < 5.0, f"k={k}: {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Spatial hash


_LAT_CENTERS = [0.0, 45.0, 89.9, 89.999, -89.95, -89.9999, 90.0, -90.0]
_LON_CENTERS = [0.0, 180.0, -180.0, 179.9999, -179.9999]


@st.composite
def _clouds(draw, max_points=60):
    """Points within a few cells of a center near a pole and/or the
    antimeridian, with exact duplicates mixed in."""
    n = draw(st.integers(0, max_points))
    cell_m = draw(st.sampled_from([5.0, 25.0, 40.0, 300.0, 2000.0]))
    spread_m = cell_m * draw(st.sampled_from([0.5, 2.0, 6.0]))
    lat0 = draw(st.sampled_from(_LAT_CENTERS))
    lon0 = draw(st.sampled_from(_LON_CENTERS))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    dlat = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    dlon = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    lats = np.clip(lat0 + dlat * spread_m / METERS_PER_DEGREE, -90.0, 90.0)
    # Near a pole a few meters span many longitude degrees; cover them all.
    lon_scale = METERS_PER_DEGREE * max(np.cos(np.radians(abs(lat0))), 1e-6)
    lons = lon0 + np.clip(dlon * spread_m / lon_scale, -180.0, 180.0)
    lons = (lons + 180.0) % 360.0 - 180.0
    for dst, src in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                            st.integers(0, max(n - 1, 0))),
                                  max_size=n // 4)):
        lats[dst], lons[dst] = lats[src], lons[src]
    return lats, lons, cell_m


def _candidates(grid: LatLonGrid, reach_m: float) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    for ci, cj in grid.pair_chunks(reach_m):
        assert np.all(ci < cj)
        pairs.extend(zip(ci.tolist(), cj.tolist()))
    return pairs


def _bruteforce_pairs(lats, lons, reach_m):
    n = lats.size
    i, j = np.triu_indices(n, k=1)
    d = haversine_m_vectorized(lats[i], lons[i], lats[j], lons[j])
    return set(zip(i[d < reach_m].tolist(), j[d < reach_m].tolist()))


@PROPERTY
@given(_clouds(), st.sampled_from([1.0, 0.5]))
def test_pair_chunks_cover_bruteforce_without_repeats(cloud, reach_frac):
    lats, lons, cell_m = cloud
    reach = cell_m * reach_frac
    grid = LatLonGrid(lats, lons, cell_m=cell_m)
    candidates = _candidates(grid, reach)
    assert len(candidates) == len(set(candidates)), "candidate pair emitted twice"
    assert _bruteforce_pairs(lats, lons, reach) <= set(candidates)


@PROPERTY
@given(_clouds(max_points=30))
def test_pair_chunks_do_not_depend_on_the_chunk_budget(cloud):
    lats, lons, cell_m = cloud
    grid = LatLonGrid(lats, lons, cell_m=cell_m)
    whole = _candidates(grid, cell_m)
    with pytest.MonkeyPatch.context() as mp:
        # A budget of three pairs splits chunks between member runs.
        mp.setattr(spatial, "_PAIR_CHUNK_BYTES", 3 * spatial._PAIR_BYTES)
        assert sorted(_candidates(grid, cell_m)) == sorted(whole)


@PROPERTY
@given(_clouds(), _clouds(max_points=20), st.sampled_from([1.0, 0.5, 0.1]))
def test_min_distance_within_reach_decisions_are_exact(support, query, frac):
    s_lats, s_lons, cell_m = support
    q_lats, q_lons, _ = query
    grid = LatLonGrid(s_lats, s_lons, cell_m=cell_m)
    got = grid.min_distance_within_reach_m(q_lats, q_lons)
    assert got.shape == q_lats.shape
    radius = cell_m * frac
    for qi in range(q_lats.size):
        if s_lats.size:
            true_min = float(np.min(haversine_m_vectorized(
                q_lats[qi], q_lons[qi], s_lats, s_lons)))
        else:
            true_min = np.inf
        assert (got[qi] <= radius) == (true_min <= radius)
        if true_min <= cell_m:
            assert got[qi] == pytest.approx(true_min, rel=1e-12, abs=1e-9)


def test_two_kilometre_cells_around_the_pole():
    # At 89.99 N a 2 km cell spans over 100 longitude degrees, and the cloud
    # circles the pole at every longitude.
    rng = np.random.default_rng(31)
    lats = 89.99 + rng.uniform(-0.0005, 0.0005, 200)
    lons = rng.uniform(-180.0, 180.0, 200)
    grid = LatLonGrid(lats, lons, cell_m=2000.0)
    candidates = _candidates(grid, 2000.0)
    assert len(candidates) == len(set(candidates))
    assert _bruteforce_pairs(lats, lons, 2000.0) <= set(candidates)
    q_lats = lats[:50] + 0.0002
    q_lons = (lons[:50] + 180.5) % 360.0 - 180.0
    got = grid.min_distance_within_reach_m(q_lats, q_lons)
    for qi in range(50):
        true_min = float(np.min(haversine_m_vectorized(
            q_lats[qi], q_lons[qi], lats, lons)))
        assert (got[qi] <= 2000.0) == (true_min <= 2000.0)
        assert got[qi] == pytest.approx(true_min, rel=1e-12, abs=1e-9)


# ---------------------------------------------------------------------------
# Latent cosines grouped by source row


@st.composite
def _pair_lists(draw):
    """(descriptors, i, j, chunk budget): float32 rows of degree 0 to 9 and
    at most one hub of degree up to 3,000, with zero rows, at dim 1 to 4,096
    and at magnitudes whose float32 squares overflow or underflow, or whose
    entries are subnormal. Pairs are sorted by i, as the graph builders pass
    them, or shuffled, so that a row comes back in several runs."""
    dim = draw(st.one_of(st.integers(1, 70), st.integers(71, 4096)))
    scale = draw(st.sampled_from([1.0, 2.0 ** 100, 2.0 ** -100, 1e-40]))
    n = draw(st.integers(1, 12))
    degrees = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    hub = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if hub is not None:
        degrees[hub] = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = (rng.standard_normal((n, dim)) * scale).astype(np.float32)
    x[draw(st.lists(st.integers(0, n - 1), max_size=3))] = 0.0
    i = np.repeat(np.arange(n), degrees)
    j = rng.integers(0, n, i.size)
    if draw(st.booleans()):
        order = rng.permutation(i.size)
        i, j = i[order], j[order]
    # Chunks of 1, 7 or 64 pairs, or the library's own budget.
    pairs = draw(st.sampled_from([1, 7, 64, None]))
    budget = (graph_mod._COSINE_CHUNK_BYTES if pairs is None
              else 2 * x.itemsize * dim * pairs)
    return x, i, j, budget


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_pair_lists())
def test_grouped_cosines_equal_the_pair_by_pair_route(case):
    x, i, j, budget = case
    want = pair_by_pair_cosines(x, i, j)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "_COSINE_CHUNK_BYTES", budget)
        got = pair_cosines(x, i, j)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 2, 17, 256, 4095, 4096, 10000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_grouped_cosines_of_hubs_and_isolated_rows(dim, dtype):
    # Hubs of 3,000 and 257 pairs: from dim 256 up the first is split
    # across chunks, and at 4,095 and up the second too; at 10,000 each dot
    # product spans two slabs of columns. Rows 5 and 6 have no pairs, rows 3
    # and 17 are zero. Float64 rows are refused.
    rng = np.random.default_rng(dim)
    n = 40
    x = rng.standard_normal((n, dim)).astype(dtype)
    x[[3, 17]] = 0.0
    degrees = rng.integers(1, 9, n)
    degrees[[0, 1, 5, 6]] = 3000, 257, 0, 0
    i = np.repeat(np.arange(n), degrees)
    j = rng.integers(0, n, i.size)
    if dtype is np.float64:
        with pytest.raises(InputError, match="float32, got float64"):
            pair_cosines(x, i, j)
        return
    assert np.array_equal(pair_cosines(x, i, j), pair_by_pair_cosines(x, i, j))


# ---------------------------------------------------------------------------
# The evaluation engine against the routes it replaces


@st.composite
def _records(draw, max_points=40):
    """Image records in a few sequences, near a pole and/or the
    antimeridian, with sequence frames that skip numbers and exact position
    duplicates mixed in."""
    n = draw(st.integers(0, max_points))
    spread_m = draw(st.sampled_from([10.0, 40.0, 120.0]))
    lat0 = draw(st.sampled_from(_LAT_CENTERS))
    lon0 = draw(st.sampled_from(_LON_CENTERS))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    lats = lat0 + np.array(draw(st.lists(unit, min_size=n, max_size=n))) \
        * spread_m / METERS_PER_DEGREE
    lats = np.clip(lats, -90.0, 90.0)
    lon_scale = METERS_PER_DEGREE * max(np.cos(np.radians(abs(lat0))), 1e-6)
    lons = lon0 + np.clip(np.array(draw(st.lists(unit, min_size=n, max_size=n)))
                          * spread_m / lon_scale, -180.0, 180.0)
    lons = (lons + 180.0) % 360.0 - 180.0
    for dst, src in draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                            st.integers(0, max(n - 1, 0))),
                                  max_size=n // 4)):
        lats[dst], lons[dst] = lats[src], lons[src]
    seqs = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    frame: dict[int, int] = {}
    records = []
    for idx, (seq, step) in enumerate(zip(seqs, steps)):
        frame[seq] = frame.get(seq, -1) + step
        records.append(ImageRecord(f"i{idx}", f"s{seq}", frame[seq],
                                   float(lats[idx]), float(lons[idx])))
    return records


_params = st.builds(
    GraphParams,
    alpha=st.sampled_from([0.05, 0.25, 1.0]),
    max_distance_m=st.sampled_from([5.0, 15.0, 25.0, 40.0]),
    betas=st.lists(st.sampled_from([0.75, 0.5, 0.0625, 1.5]),
                   min_size=1, max_size=4).map(tuple),
    gamma=st.sampled_from([0.0, 0.33, 1.0]),
    include_dist=st.booleans(), include_seq=st.booleans(),
    include_latent=st.booleans(),
    decay_sign=st.sampled_from(["negative", "positive"]),
    include_self_edges=st.booleans())


def _descriptors(draw, n: int, dim: int = 8) -> np.ndarray:
    seed = draw(st.integers(0, 2**32 - 1))
    x = np.random.default_rng(seed).standard_normal((n, dim), dtype=np.float32)
    if n:
        x[draw(st.integers(0, n - 1))] = 0.0  # a zero row has cosine 0
    return x


def _assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(0, 3),
       st.sampled_from([np.int32, np.int64]), st.booleans())
def test_graph_stages_equal_the_coo_route(seed, live, n_isolated, width,
                                          self_edges):
    """Two kernels on the same vertices, each from unique pairs in random
    orientation and order at either index width; the last n_isolated
    vertices have no pair, and so may some of the others. The kernels are
    summed as weights on the structure of their union."""
    rng = np.random.default_rng(seed)
    n = live + n_isolated
    iu, ju = np.triu_indices(live, k=1)
    want, on_triu = [], []
    for density in (0.2, 0.6):
        pick = rng.random(iu.size) < density
        flip = rng.random(iu.size) < 0.5
        i, j = np.where(flip, ju, iu)[pick], np.where(flip, iu, ju)[pick]
        order = rng.permutation(i.size)
        i, j = i[order].astype(width), j[order].astype(width)
        w = rng.uniform(1e-3, 10.0, i.size)
        graph = WeightedGraph.from_pairs(n, i, j, w)
        reference = coo_from_pairs(n, i, j, w)
        _assert_same_csr(graph.matrix, reference.matrix)
        for g, r in zip(coo_edges(graph), coo_edges(reference)):
            assert g.dtype == r.dtype
            assert g.tobytes() == r.tobytes()
        want.append(reference)
        # The kernel's weight of each upper-triangle pair, zero if unpicked.
        weights = np.zeros(iu.size)
        weights[np.flatnonzero(pick)[order]] = w
        on_triu.append(weights)
    union = np.logical_or(*on_triu)
    structure = WeightedGraph.from_pairs(
        n, iu[union].astype(width), ju[union].astype(width),
        np.ones(np.count_nonzero(union))).structure
    total = combine([WeightedGraph(structure, w[union]) for w in on_triu])
    summed = want[0].matrix + want[1].matrix
    summed.sort_indices()
    _assert_same_csr(total.matrix, summed)
    params = GraphParams(include_self_edges=self_edges)
    before = total.weights.copy()
    op = normalize(total, params)
    reference = copying_normalize(SparseGraph(summed.copy()), params)
    _assert_same_csr(op.matrix, reference.matrix)
    assert np.array_equal(op.isolated_vertices, reference.isolated_vertices)
    # W is left as it was: normalize writes the scaled values elsewhere.
    assert total.weights.tobytes() == before.tobytes()
    assert not np.shares_memory(op.matrix.data, total.weights)


@PROPERTY
@given(st.data())
def test_shared_geometry_operator_equals_the_cell_alone(data):
    # Every drawn cell, built on its gate's pattern both in a geometry that
    # all cells share and in one of its own, is bitwise the operator of the
    # per-kernel sparse route (oracles.reference_operator). A few lone fixes,
    # each kilometres from the rest and the only frame of its sequence, make
    # isolated vertices.
    records = data.draw(_records())
    lat = records[0].lat if records else 0.0
    step = -0.05 if lat > 0.0 else 0.05
    records += [ImageRecord(f"lone{k}", f"lone{k}", 0, lat + (k + 1) * step, 0.0)
                for k in range(data.draw(st.integers(0, 2)))]
    x = _descriptors(data.draw, len(records))
    cells = data.draw(st.lists(_params, min_size=1, max_size=5))
    geometry = kernel_geometry(records, x, cells)
    for cell in cells:
        want = reference_operator(records, x, cell)
        for got in (build_operator(records, x, cell, geometry),
                    build_operator(records, x, cell)):
            _assert_same_csr(got.matrix, want.matrix)
            assert got.isolated_vertices.dtype == want.isolated_vertices.dtype
            assert np.array_equal(got.isolated_vertices, want.isolated_vertices)


@PROPERTY
@given(st.data(), st.lists(st.integers(0, 6), min_size=1, max_size=8))
def test_m_ladder_equals_a_fresh_smooth(data, m_values):
    # Random lists are non-monotone; their sorted copies are ascending.
    records = data.draw(_records(max_points=30))
    x = _descriptors(data.draw, len(records))
    params = data.draw(_params)
    dataset = Dataset(records=records, descriptors=x)
    op = build_operator(records, x, params)
    identity = not (params.include_dist or params.include_seq)
    for order in (sorted(m_values), m_values):
        smoother = _memo_smoother()
        for m in order:
            got = smoother("support", dataset, params, m)
            want = x if identity else smooth(op, x, SmoothConfig(m=m))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (order, m)


@st.composite
def _scored_matches(draw):
    """Support and query fixes anywhere on the globe or within a few km of
    each other, and random top-k lists over them."""
    n_support = draw(st.integers(1, 12))
    n_query = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    span = draw(st.sampled_from([0.01, 1.0, 180.0]))
    lat0 = draw(st.sampled_from([0.0, 45.0, 89.99, -89.99]))
    lon0 = draw(st.sampled_from([0.0, 179.99, -179.99]))

    def split(n, role, prefix):
        lats = np.clip(lat0 + rng.uniform(-span / 2, span / 2, n), -90.0, 90.0)
        lons = (lon0 + rng.uniform(-span, span, n) + 180.0) % 360.0 - 180.0
        records = [ImageRecord(f"{prefix}{i}", prefix, i, float(a), float(b))
                   for i, (a, b) in enumerate(zip(lats, lons))]
        return Dataset(records=records, descriptors=np.ones((n, 2), np.float32),
                       role=role)
    support = split(n_support, "support", "s")
    query = split(n_query, "query", "q")
    k = draw(st.integers(1, n_support))
    indices = np.empty((n_query, k), dtype=np.int64)
    scores = np.empty((n_query, k))
    for qi in range(n_query):
        indices[qi] = rng.choice(n_support, k, replace=False)
        scores[qi] = np.sort(rng.uniform(-1.0, 1.0, k))[::-1]
    return support, query, indices, scores


@PROPERTY
@given(_scored_matches(), st.sampled_from(["top1", "weighted_topk"]))
def test_array_scoring_equals_scalar_haversine(case, strategy):
    support, query, indices, scores = case
    lat, lon = estimate_positions(indices, scores, *support.positions, strategy)
    assert list(zip(lat.tolist(), lon.tolist())) == scalar_positions(
        indices, scores, *support.positions, strategy)
    report = compute_report(indices, scores, support, query, strategy, 25.0,
                            "none", {})
    assert report.per_query_error_m == scalar_errors_m(indices, scores, support,
                                                       query, strategy)


# ---------------------------------------------------------------------------
# The projection fit


@st.composite
def _spectral_supports(draw, d_out_at=None):
    """(descriptors, d_out) whose centered sample Gram has a drawn spectrum,
    with every eigenvalue at least 1.3 times the next, along random
    orthonormal directions, shifted off the origin, in float32 or float64.
    With d_out_at, the d_out-th eigenvalue is that fraction of the largest."""
    n = draw(st.integers(3 if d_out_at else 2, 80))
    d_in = draw(st.integers(2 if d_out_at else 1, 24))
    rank = min(n - 1, d_in)
    d_out = draw(st.integers(2 if d_out_at else 1, rank))
    ratios = draw(st.lists(st.floats(1.3, 30.0), min_size=rank - 1,
                           max_size=rank - 1))
    spectrum = draw(st.floats(1e-3, 1e3)) / np.cumprod([1.0, *ratios])
    if d_out_at:
        spectrum[d_out - 1:] *= d_out_at * spectrum[0] / spectrum[d_out - 1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Orthonormal columns of a centered matrix are centered themselves.
    z = rng.standard_normal((n, rank))
    rows, _ = np.linalg.qr(z - z.mean(axis=0))
    directions, _ = np.linalg.qr(rng.standard_normal((d_in, d_in)))
    x = (rows * np.sqrt(spectrum)) @ directions[:, :rank].T
    x += rng.uniform(-3.0, 3.0, d_in) * np.sqrt(spectrum[0])
    return x.astype(draw(st.sampled_from([np.float32, np.float64]))), d_out


def _fit_and_route(x, d_out):
    """(fit_projection's result or its InputError message, whether it took
    the SVD)."""
    with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        try:
            return features_mod.fit_projection(x, d_out), svd.called
        except InputError as exc:
            return str(exc), svd.called


def _oracle(x, d_out):
    try:
        return svd_projection(x, d_out)
    except InputError as exc:
        return str(exc)


def _bitwise_equal(got, want) -> bool:
    if isinstance(want, str):
        return got == want
    return all(np.array_equal(getattr(got, f), getattr(want, f))
               for f in ("mean", "basis", "scale"))


@PROPERTY
@given(_spectral_supports())
def test_gram_fit_agrees_with_the_svd_fit(case):
    x, d_out = case
    got, took_svd = _fit_and_route(x, d_out)
    want = _oracle(x, d_out)
    if took_svd:
        assert _bitwise_equal(got, want)
        return
    assert np.array_equal(got.mean, want.mean)
    cross = got.basis.T @ want.basis
    # The same directions with the same signs.
    assert np.allclose(cross, np.eye(d_out), rtol=0.0, atol=1e-8)
    assert np.allclose(got.scale, want.scale, rtol=1e-9, atol=0.0)


@PROPERTY
@given(_spectral_supports(d_out_at=1e-10))
def test_ill_conditioned_fit_falls_back_to_the_svd(case):
    x, d_out = case
    got, took_svd = _fit_and_route(x, d_out)
    assert took_svd
    assert _bitwise_equal(got, _oracle(x, d_out))


# ---------------------------------------------------------------------------
# Damaged PRJ1, EMB1 and ADJ1 files


@pytest.fixture(scope="module")
def blobs(tmp_path_factory) -> dict:
    """The bytes of a small saved file of each binary format, by suffix.

    The PRJ1 holds a 5 -> 3 projection whose scales are 1.25 (0x3FA00000):
    flipping bit 6 of a scale's top byte makes the signalling NaN
    0x7FA00000. The EMB1 holds 3 x 4 descriptors of 1.25, for the same flip.
    The ADJ1 holds a 4-vertex operator with an isolated vertex (row 2 is
    [2 -> 1.0]); the same flip of its last value, 0.5, makes it about 9e307,
    and the row no longer sums to 1."""
    root = tmp_path_factory.mktemp("blobs")
    basis, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((5, 3)))
    save_projection(root / "p.prj1", Projection(
        mean=np.linspace(-1.0, 1.0, 5), basis=basis, scale=np.full(3, 1.25)))
    write_descriptors(root / "d.emb1", np.full((3, 4), 1.25, dtype=np.float32))
    matrix = sparse.csr_matrix(np.array([[0.5, 0.5, 0.0, 0.0],
                                         [0.25, 0.75, 0.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0],
                                         [0.0, 0.0, 0.5, 0.5]]))
    save_operator(root / "g.adj1", SmoothingOperator(
        matrix=matrix, isolated_vertices=np.array([2])))
    return {path.suffix: path.read_bytes() for path in root.iterdir()}


_BLOB_SIZES = {".prj1": 12 + 4 * (5 + 15 + 3), ".emb1": 12 + 4 * 12,
               ".adj1": 16 + 8 * 5 + 12 * 7}
_LOADERS = {".prj1": load_projection,
            ".emb1": lambda path: load_descriptors(path, expected_rows=None),
            ".adj1": load_operator}


def _damage_of(suffix: str):
    size = _BLOB_SIZES[suffix]
    return st.tuples(st.just(suffix), st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1), st.just(0)),
        st.tuples(st.just("flip"), st.integers(0, size - 1),
                  st.integers(1, 255))))


@settings(PROPERTY, max_examples=PROPERTY.max_examples * len(_BLOB_SIZES))
@given(damage=st.sampled_from(sorted(_BLOB_SIZES)).flatmap(_damage_of))
@example(damage=(".prj1", ("flip", _BLOB_SIZES[".prj1"] - 1, 0x40)))
@example(damage=(".emb1", ("flip", _BLOB_SIZES[".emb1"] - 1, 0x40)))
@example(damage=(".adj1", ("flip", _BLOB_SIZES[".adj1"] - 1, 0x40)))
def test_damaged_file_loads_or_is_refused_without_warnings(blobs,
                                                           tmp_path_factory,
                                                           damage):
    suffix, (kind, at, mask) = damage
    blob = bytearray(blobs[suffix])
    assert len(blob) == _BLOB_SIZES[suffix]
    if kind == "truncate":
        del blob[at:]
    else:
        blob[at] ^= mask
    path = tmp_path_factory.mktemp("damaged") / f"damaged{suffix}"
    path.write_bytes(bytes(blob))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            _LOADERS[suffix](path)
        except InputError as exc:
            assert str(path) in str(exc)


# ---------------------------------------------------------------------------
# Damaged metadata CSV


# A quoted id, negative and many-digit coordinates, and a second sequence.
_CSV_RECORDS = [ImageRecord("a", "s1", 0, 48.5, 2.25),
                ImageRecord("b,c", "s1", 3, -33.875, 151.2093),
                ImageRecord("d", "s2", 10, 89.99, -179.99),
                ImageRecord("e", "s2", 11, 0.0, 1e-05)]


@pytest.fixture(scope="module")
def metadata_csv(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_metadata(path, _CSV_RECORDS)
    return path.read_bytes()


@PROPERTY
@given(st.data())
def test_damaged_metadata_loads_or_is_refused(metadata_csv, tmp_path_factory,
                                              data):
    blob = bytearray(metadata_csv)
    kind = data.draw(st.sampled_from(["truncate", "flip"]))
    at = data.draw(st.integers(0, len(blob) - 1))
    if kind == "truncate":
        del blob[at:]
    else:
        blob[at] ^= data.draw(st.integers(1, 255))
    path = tmp_path_factory.mktemp("damaged") / "m.csv"
    path.write_bytes(bytes(blob))
    try:
        records = load_metadata(path)
    except InputError as exc:
        assert str(path) in str(exc)
        return
    if kind == "truncate":
        # No cut passes for a different file: a shortened number included.
        assert records == _CSV_RECORDS[:len(records)]
