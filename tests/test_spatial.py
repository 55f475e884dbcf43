"""Cube cell list: candidate generation must never miss a qualifying pair,
never duplicate one, and the reach-limited nearest-distance query must agree
with brute force for threshold decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from gsloc.geodesy import (EARTH_RADIUS_M, METERS_PER_DEGREE,
                           haversine_m_vectorized)
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
    # Longitude degrees shrink to nothing at 89.9N; neighbors that straddle
    # many longitude degrees must not be dropped.
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


def test_antimeridian_seam_pair_is_the_only_candidate():
    # A pair 7.86 m apart across the antimeridian at 45 N.
    lats = np.array([45.0, 45.0])
    lons = np.array([-180.0, 179.9999])
    reach = 12.5
    assert haversine_m_vectorized(lats[0], lons[0], lats[1], lons[1]) < reach
    grid = LatLonGrid(lats, lons, cell_m=25.0)
    assert _collect_candidates(grid, reach) == [(0, 1)]


def _clusters_over_the_globe(rng, n_clusters, per_cluster, spread_m):
    """Dense clusters of fixes at random places, the poles and the
    antimeridian, each within about spread_m of its center."""
    centers = rng.standard_normal((n_clusters, 3))
    centers[:4] = [[0, 0, 1], [0, 0, -1], [-1, 0, 0], [-0.7, 0, 0.7]]
    points = (np.repeat(centers / np.linalg.norm(centers, axis=1, keepdims=True),
                        per_cluster, axis=0)
              + rng.uniform(-1, 1, (n_clusters * per_cluster, 3))
              * spread_m / EARTH_RADIUS_M)
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    lats = np.degrees(np.arcsin(np.clip(points[:, 2], -1.0, 1.0)))
    lons = np.degrees(np.arctan2(points[:, 1], points[:, 0]))
    return lats, lons


@pytest.mark.parametrize("cell", [1.0, 0.3])
def test_cells_below_the_smallest_cube_keep_the_bruteforce_pairs(cell):
    # Cells this small get the smallest cube side, and the clusters spread
    # cube keys over the whole sphere.
    rng = np.random.default_rng(41)
    lats, lons = _clusters_over_the_globe(rng, 30, 40, 1.0)
    grid = LatLonGrid(lats, lons, cell_m=cell)
    candidates = _collect_candidates(grid, cell)
    assert len(candidates) == len(set(candidates)), "duplicate candidate pair"
    ci, cj = np.array(candidates).T
    d = haversine_m_vectorized(lats[ci], lons[ci], lats[cj], lons[cj])
    kept = set(zip(ci[d < cell].tolist(), cj[d < cell].tolist()))
    truth = _true_pairs(lats, lons, cell)
    assert len(truth) > 1000
    assert kept == truth


def test_pair_chunks_reject_a_reach_beyond_the_cell():
    grid = LatLonGrid(np.array([0.0, 0.0]), np.array([0.0, 1e-4]), cell_m=25.0)
    with pytest.raises(ValueError, match="exceeds the cell size"):
        next(grid.pair_chunks(25.5))


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
