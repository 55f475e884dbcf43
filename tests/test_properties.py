"""Property-based checks of the selection top-k and the sorted-cell spatial
join against brute force, on inputs built to hit their edge cases: exact
score ties (duplicated rows, zero rows, ties straddling the k-th place),
points near the poles and across the antimeridian, and grids whose column
stencil wraps onto itself.

Examples are derandomized so a run is reproducible; raise ``max_examples``
locally to search wider.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsloc.spatial as spatial
from gsloc.geodesy import METERS_PER_DEGREE, haversine_m_vectorized
from gsloc.retrieval import cosine_knn
from gsloc.spatial import LatLonGrid
from oracles import quadratic_knn

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
    """(queries, support) with duplicated, zero and query-copied rows."""
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
    if draw(st.booleans()):
        return queries.astype(np.float32), support.astype(np.float32)
    return queries, support


def _same_rows(support: np.ndarray) -> list[tuple[int, int]]:
    return [(i, j) for i in range(support.shape[0])
            for j in range(i + 1, support.shape[0])
            if np.array_equal(support[i], support[j])]


@PROPERTY
@given(_tied_sets())
def test_topk_matches_quadratic_oracle_with_exact_ties(case):
    queries, support = case
    n = support.shape[0]
    logging.disable(logging.WARNING)
    try:
        # The full stable sort is the library's own reference order.
        full = cosine_knn(queries, support, k=n)
        oracle_full = quadratic_knn(queries, support, k=n)
        duplicates = _same_rows(support)
        for k in range(1, n + 1):
            got = cosine_knn(queries, support, k=k)
            want = quadratic_knn(queries, support, k=k)
            for qi, (match, oracle) in enumerate(zip(got, want)):
                assert match.query_index == qi
                idx = [i for i, _ in match.neighbors]
                scores = [s for _, s in match.neighbors]
                # Selection must give exactly the stable sort's first k,
                # including which of a tie group straddling place k is kept.
                assert match.neighbors == full[qi].neighbors[:k]
                assert len(set(idx)) == k
                oracle_score = dict(oracle_full[qi])
                for r, (i, s) in enumerate(match.neighbors):
                    assert abs(s - oracle[r][1]) <= SCORE_EPS
                    assert abs(s - oracle_score[i]) <= SCORE_EPS
                # Nothing left out beats anything kept.
                left_out = [oracle_score[j] for j in range(n) if j not in set(idx)]
                if left_out:
                    assert min(oracle_score[i] for i in idx) >= max(left_out) - SCORE_EPS
                # Identical support rows tie exactly: the lower index wins.
                for i, j in duplicates:
                    if j in idx:
                        assert i in idx and idx.index(i) < idx.index(j)
                assert all(a >= b for a, b in zip(scores, scores[1:]))
    finally:
        logging.disable(logging.NOTSET)


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
        mp.setattr(spatial, "_PAIR_CHUNK_BYTES", 3 * 16)
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


def test_wrapping_stencil_near_the_pole():
    # At 89.99 N a 2 km cell spans over 100 longitude degrees: the ring has 3
    # columns, fewer than the 2 * d_lon + 1 the column stencil spans, so
    # several offsets land on the same cell.
    rng = np.random.default_rng(31)
    lats = 89.99 + rng.uniform(-0.0005, 0.0005, 200)
    lons = rng.uniform(-180.0, 180.0, 200)
    grid = LatLonGrid(lats, lons, cell_m=2000.0)
    _, d_lon = grid._reach_cells(2000.0, grid.max_abs_lat)
    assert grid.n_cols < 2 * d_lon + 1
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
