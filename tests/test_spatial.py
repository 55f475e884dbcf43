"""Spatial hash grid: candidate generation must never miss a qualifying pair,
never duplicate one, and the reach-limited nearest-distance query must agree
with brute force for threshold decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from gsloc.geodesy import METERS_PER_DEGREE, haversine_m_vectorized
from gsloc.spatial import LatLonGrid
from oracles import chord_distance_matrix_m


def _random_cloud(rng, n, center_lat, center_lon, spread_m):
    lats = center_lat + rng.uniform(-spread_m, spread_m, n) / METERS_PER_DEGREE
    lons = center_lon + rng.uniform(-spread_m, spread_m, n) / (
        METERS_PER_DEGREE * np.cos(np.radians(center_lat)))
    return lats, lons


def _true_pairs(lats, lons, reach_m):
    d = chord_distance_matrix_m(lats, lons)
    iu, ju = np.triu_indices(len(lats), k=1)
    keep = d[iu, ju] < reach_m
    return set(zip(iu[keep].tolist(), ju[keep].tolist()))


def _collect_candidates(grid, reach_m):
    pairs = []
    for ci, cj in grid.pair_chunks(reach_m):
        assert np.all(ci < cj)
        pairs.extend(zip(ci.tolist(), cj.tolist()))
    return pairs


def test_candidates_cover_all_true_pairs():
    rng = np.random.default_rng(5)
    lats, lons = _random_cloud(rng, 400, -34.9, 138.6, 1500.0)
    reach = 60.0
    grid = LatLonGrid(lats, lons, cell_m=reach)
    candidates = _collect_candidates(grid, reach)
    assert len(candidates) == len(set(candidates)), "duplicate candidate pair"
    truth = _true_pairs(lats, lons, reach)
    assert truth <= set(candidates)


def test_verified_candidates_equal_bruteforce():
    rng = np.random.default_rng(9)
    lats, lons = _random_cloud(rng, 300, 48.1, 11.5, 800.0)
    reach = 45.0
    grid = LatLonGrid(lats, lons, cell_m=reach)
    kept = set()
    for ci, cj in grid.pair_chunks(reach):
        d = haversine_m_vectorized(lats[ci], lons[ci], lats[cj], lons[cj])
        inside = d < reach
        kept |= set(zip(ci[inside].tolist(), cj[inside].tolist()))
    assert kept == _true_pairs(lats, lons, reach)


def test_near_pole_coverage():
    # Longitude degrees shrink to nothing at 89.9N; the column math must not
    # drop neighbors that straddle many longitude degrees.
    rng = np.random.default_rng(13)
    n = 150
    lats = 89.9 + rng.uniform(-0.004, 0.004, n)
    lons = rng.uniform(-180, 180, n)
    reach = 400.0
    grid = LatLonGrid(lats, lons, cell_m=reach)
    candidates = set(_collect_candidates(grid, reach))
    assert _true_pairs(lats, lons, reach) <= candidates


def test_antimeridian_cluster_coverage():
    rng = np.random.default_rng(17)
    n = 120
    lats = rng.uniform(-0.002, 0.002, n)
    # Half the points just west of the seam, half just east.
    west = 179.999 + rng.uniform(0, 0.0008, n // 2)
    east = -180.0 + rng.uniform(0, 0.0008, n - n // 2)
    lons = np.concatenate([west, east])
    lons = np.where(lons > 180.0, lons - 360.0, lons)
    reach = 120.0
    grid = LatLonGrid(lats, lons, cell_m=reach)
    candidates = set(_collect_candidates(grid, reach))
    truth = _true_pairs(lats, lons, reach)
    # The seam must not hide any cross-boundary pair.
    crossing = {(i, j) for i, j in truth
                if (lons[i] > 0) != (lons[j] > 0)}
    assert crossing, "test setup should produce seam-crossing pairs"
    assert truth <= candidates


def test_antimeridian_pair_across_the_narrow_last_column():
    # 360 degrees is not a whole number of columns, so the last column is
    # narrower than the rest; a pair 8.4 m apart across the seam sits two
    # columns apart although the stencil reach is one column.
    cell = 25.0
    probe = LatLonGrid(np.array([45.0]), np.array([0.0]), cell_m=cell)
    width = probe.cell_lon_deg
    last = 360.0 - (probe.n_cols - 1) * width
    assert last < 0.5 * width
    lats = np.array([45.0, 45.0])
    lons = np.array([-180.0, 180.0 - last - 0.05 * width])
    reach = cell / 2.0
    assert haversine_m_vectorized(lats[0], lons[0], lats[1], lons[1]) < reach
    grid = LatLonGrid(lats, lons, cell_m=cell)
    assert _collect_candidates(grid, reach) == [(0, 1)]


def test_min_distance_within_reach_matches_bruteforce():
    rng = np.random.default_rng(23)
    s_lats, s_lons = _random_cloud(rng, 120, -34.9, 138.6, 300.0)
    q_lats, q_lons = _random_cloud(rng, 80, -34.9, 138.6, 400.0)
    radius = 30.0
    grid = LatLonGrid(s_lats, s_lons, cell_m=radius)
    got = grid.min_distance_within_reach_m(q_lats, q_lons)
    for qi in range(len(q_lats)):
        d = haversine_m_vectorized(q_lats[qi], q_lons[qi], s_lats, s_lons)
        true_min = float(np.min(d))
        # Exactness is promised for decisions at radius <= cell_m.
        assert (got[qi] <= radius) == (true_min <= radius)
        if true_min <= radius:
            assert got[qi] == pytest.approx(true_min, rel=1e-12, abs=1e-9)


def test_min_distance_empty_grid_is_inf():
    grid = LatLonGrid(np.array([]), np.array([]), cell_m=25.0)
    out = grid.min_distance_within_reach_m(np.array([0.0]), np.array([0.0]))
    assert np.isinf(out).all()


def test_rejects_nonpositive_cell_size():
    with pytest.raises(ValueError):
        LatLonGrid(np.array([0.0]), np.array([0.0]), cell_m=0.0)
