"""Exact cosine retrieval against a quadratic oracle, tie-breaking rules,
position estimates on the sphere, and the matches CSV export."""

from __future__ import annotations

import csv
import logging

import numpy as np
import pytest

import gsloc.retrieval as retrieval
from gsloc.dataset import ImageRecord
from gsloc.errors import InputError
from gsloc.geodesy import GeoPoint, haversine_m
from gsloc.retrieval import cosine_knn, estimate_positions, write_matches
from oracles import _unit_vectors, quadratic_knn, route_cosines, stable_top_k


def _positions(records):
    return (np.array([r.lat for r in records]),
            np.array([r.lon for r in records]))


def _support_records(n):
    return [ImageRecord(f"s{i}", "s", i, float(i) * 1e-4, 0.0)
            for i in range(n)]


def test_results_are_query_by_k_arrays():
    rng = np.random.default_rng(1)
    queries = rng.standard_normal((7, 4)).astype(np.float32)
    support = rng.standard_normal((20, 4)).astype(np.float32)
    indices, scores = cosine_knn(queries, support, k=3)
    assert indices.shape == scores.shape == (7, 3)
    assert indices.dtype == np.int64
    assert scores.dtype == np.float64
    # Row i belongs to query i, in the queries' own order.
    flipped, _ = cosine_knn(queries[::-1], support, k=3)
    assert np.array_equal(flipped, indices[::-1])


def test_query_finds_itself():
    rng = np.random.default_rng(2)
    support = rng.standard_normal((20, 8), dtype=np.float32)
    queries = support[[7]]
    indices, scores = cosine_knn(queries, support, k=1)
    assert indices[0, 0] == 7
    assert abs(scores[0, 0] - 1.0) < 1e-12


def test_orthogonal_vectors_score_zero():
    queries = np.array([[1.0, 0.0]], dtype=np.float32)
    support = np.array([[0.0, 1.0]], dtype=np.float32)
    indices, scores = cosine_knn(queries, support, k=1)
    assert (indices[0, 0], scores[0, 0]) == (0, 0.0)


def test_matches_quadratic_oracle():
    rng = np.random.default_rng(3)
    queries = rng.standard_normal((50, 16), dtype=np.float32)
    support = rng.standard_normal((200, 16), dtype=np.float32)
    indices, scores = cosine_knn(queries, support, k=5)
    want = quadratic_knn(queries, support, k=5)
    assert len(indices) == len(want)
    for row, row_scores, oracle in zip(indices.tolist(), scores.tolist(), want):
        assert row == [idx for idx, _ in oracle]
        for s_got, (_, s_want) in zip(row_scores, oracle):
            assert s_got == pytest.approx(s_want, abs=1e-10)


def test_ties_break_toward_lower_support_index():
    rng = np.random.default_rng(5)
    support = rng.standard_normal((12, 6), dtype=np.float32)
    support[9] = support[3]  # exact duplicate later in the list
    queries = support[[3]] * 2.0
    indices, _ = cosine_knn(queries, support, k=2)
    assert indices[0].tolist() == [3, 9]


def test_cosine_ignores_positive_rescaling():
    # Each rescaled float32 entry is rounded once, by at most 2^-24 of it.
    rng = np.random.default_rng(7)
    queries = rng.standard_normal((10, 5), dtype=np.float32)
    support = rng.standard_normal((30, 5), dtype=np.float32)
    scales = rng.uniform(0.1, 10.0, (30, 1)).astype(np.float32)
    plain_idx, plain = cosine_knn(queries, support, k=3)
    scaled_idx, scaled = cosine_knn(queries, support * scales, k=3)
    assert np.array_equal(plain_idx, scaled_idx)
    assert np.allclose(plain, scaled, rtol=0.0, atol=4 * 2.0 ** -24)


@pytest.mark.parametrize("scale", [2.0 ** 100, 2.0 ** -100],
                         ids=["overflow", "underflow"])
def test_query_rows_whose_squares_leave_float32_keep_their_neighbors(scale):
    # The scaled row's float32 squared norm overflows (2^100) or underflows
    # (2^-100), so it skips the screen; a power-of-two scale changes no bit
    # of its unit row, so no score moves either.
    rng = np.random.default_rng(8)
    support = rng.standard_normal((50, 16), dtype=np.float32)
    queries = support[[17, 3]] + rng.standard_normal((2, 16), dtype=np.float32) / 2
    scaled = queries.copy()
    scaled[0] *= np.float32(scale)
    want_idx, want = cosine_knn(queries, support, k=2)
    got_idx, got = cosine_knn(scaled, support, k=2)
    assert np.array_equal(got_idx, want_idx)
    assert got.tobytes() == want.tobytes()
    assert want_idx[0, 0] == 17


def test_k_equals_n_gives_total_order():
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((4, 6), dtype=np.float32)
    support = rng.standard_normal((15, 6), dtype=np.float32)
    indices, scores = cosine_knn(queries, support, k=15)
    assert indices.shape == (4, 15)
    for row, row_scores in zip(indices.tolist(), scores.tolist()):
        assert sorted(row) == list(range(15))
        assert row_scores == sorted(row_scores, reverse=True)


def test_zero_query_rows_warn_and_rank_by_index(caplog):
    queries = np.zeros((1, 4), dtype=np.float32)
    rng = np.random.default_rng(11)
    support = rng.standard_normal((6, 4), dtype=np.float32)
    with caplog.at_level(logging.WARNING, logger="gsloc.retrieval"):
        indices, scores = cosine_knn(queries, support, k=3)
    assert indices[0].tolist() == [0, 1, 2]
    assert all(s == 0.0 for s in scores[0].tolist())
    assert any("zero query rows" in rec.message for rec in caplog.records)


def test_zero_rows_are_counted_once_across_query_blocks(caplog, monkeypatch):
    rng = np.random.default_rng(12)
    support = rng.standard_normal((200, 5), dtype=np.float32)
    support[[3, 70, 199]] = 0.0
    queries = rng.standard_normal((130, 5), dtype=np.float32)
    queries[[0, 129]] = 0.0
    # A tile budget of one 64 x 64 float32 tile: three query blocks and
    # four support chunks. The zero rows are counted once, whichever block
    # and chunk they fall in.
    monkeypatch.setattr(retrieval, "_SCORE_TILE_BYTES", 8 * 64 * 64)
    assert retrieval._tile_shape(130, 200, 5, 4) == (
        [(0, 64), (64, 128), (128, 130)],
        [(0, 64), (64, 128), (128, 192), (192, 200)])
    with caplog.at_level(logging.WARNING, logger="gsloc.retrieval"):
        indices, scores = cosine_knn(queries, support, k=2)
    messages = [rec.getMessage() for rec in caplog.records]
    assert messages == ["cosine_knn: 2 zero query rows score 0 everywhere",
                        "cosine_knn: 3 zero support rows score 0 everywhere"]
    assert indices[0].tolist() == [0, 1] and scores[0].tolist() == [0.0, 0.0]
    assert np.all(scores[:, 0] >= scores[:, 1])


def test_queries_beyond_the_screens_range_take_the_same_route():
    # Rows whose float32 squares overflow or underflow, and a row of
    # subnormal entries, are scored against every column; the answers are
    # the route's own.
    rng = np.random.default_rng(13)
    support = rng.standard_normal((300, 16), dtype=np.float32)
    queries = rng.standard_normal((8, 16), dtype=np.float32)
    queries[0] *= np.float32(1e30)
    queries[1] *= np.float32(1e-30)
    queries[2] *= np.float32(1e-42)
    queries[3] = support[5]
    queries[4] = 0.0
    for k in (1, 3):
        got_idx, got = cosine_knn(queries, support, k)
        want_idx, want = stable_top_k(route_cosines(queries, support), k)
        assert np.array_equal(got_idx, want_idx)
        assert got.tobytes() == want.tobytes()
    assert got_idx[3, 0] == 5 and got_idx[4].tolist() == [0, 1, 2]


def test_knn_validation():
    q = np.zeros((2, 3), dtype=np.float32)
    s = np.zeros((4, 3), dtype=np.float32)
    with pytest.raises(InputError, match="k="):
        cosine_knn(q, s, k=0)
    with pytest.raises(InputError, match="k="):
        cosine_knn(q, s, k=5)
    with pytest.raises(InputError, match="dim mismatch"):
        cosine_knn(q, np.zeros((4, 2), dtype=np.float32), k=1)
    with pytest.raises(InputError, match="2-D"):
        cosine_knn(np.zeros(3, dtype=np.float32), s, k=1)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_knn_refuses_a_non_finite_row_by_side_and_index(bad, monkeypatch):
    # [[inf, 1]] against this support used to score [nan, nan].
    support = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.float32)
    with pytest.raises(InputError, match="query row 0 is not finite"):
        cosine_knn(np.array([[bad, 1]], dtype=np.float32), support, 2)
    with pytest.raises(InputError, match="support row 2 is not finite"):
        cosine_knn(support, np.array([[1, 0], [0, 1], [bad, 1]],
                                     dtype=np.float32), 2)
    # Two-row query blocks: the index counts from the first query row.
    monkeypatch.setattr(retrieval, "_SCORE_TILE_BYTES", 64)
    queries = np.ones((7, 2), dtype=np.float32)
    queries[5, 1] = bad
    with pytest.raises(InputError, match="query row 5 is not finite"):
        cosine_knn(queries, support, 1)


# ---------------------------------------------------------------------------
# Position estimates


def _estimate(records, indices, scores, strategy):
    lat, lon = estimate_positions(np.array(indices), np.array(scores, dtype=float),
                                  *_positions(records), strategy)
    assert lat.shape == lon.shape == (len(indices),)
    return lat.tolist(), lon.tolist()


def test_top1_copies_best_neighbor_gps():
    records = _support_records(5)
    lat, lon = _estimate(records, [[2, 4], [4, 2]], [[0.9, 0.8], [0.7, 0.1]],
                         "top1")
    assert (lat, lon) == ([records[2].lat, records[4].lat],
                          [records[2].lon, records[4].lon])


def _sphere_mean(records, weights):
    """Direction of the weighted sum of unit vectors, read back through
    arcsin rather than the two atan2 calls under test."""
    lats, lons = _positions(records)
    v = np.asarray(weights) @ _unit_vectors(lats, lons)
    v /= np.linalg.norm(v)
    return np.degrees(np.arcsin(v[2])), np.degrees(np.arctan2(v[1], v[0]))


def test_weighted_topk_is_convex_combination():
    records = [ImageRecord("a", "s", 0, 0.0, 10.0),
               ImageRecord("b", "s", 1, 1.0, 20.0)]
    (lat,), (lon,) = _estimate(records, [[0, 1]], [[0.75, 0.25]],
                               "weighted_topk")
    want_lat, want_lon = _sphere_mean(records, [0.75, 0.25])
    assert lat == pytest.approx(want_lat, abs=1e-12)
    assert lon == pytest.approx(want_lon, abs=1e-12)
    # A quarter of the way from a to b, near the degree-space mean.
    assert lat == pytest.approx(0.25, abs=0.01)
    assert lon == pytest.approx(12.5, abs=0.01)


def test_weighted_topk_midpoint():
    records = [ImageRecord("a", "s", 0, 0.0004, 0.0),
               ImageRecord("b", "s", 1, 0.0006, 0.0)]
    (lat,), (lon,) = _estimate(records, [[0, 1]], [[0.5, 0.5]], "weighted_topk")
    assert lat == pytest.approx(0.0005, abs=1e-18)
    assert lon == 0.0


def test_weighted_topk_across_the_antimeridian():
    # The degree-space mean of these two fixes is lon 0, half the globe away.
    records = [ImageRecord("a", "s", 0, 10.0, 179.9),
               ImageRecord("b", "s", 1, 10.0, -179.9)]
    (lat,), (lon,) = _estimate(records, [[0, 1]], [[0.5, 0.5]], "weighted_topk")
    assert abs(lon) > 179.0
    assert lat == pytest.approx(10.0, abs=1e-3)
    estimate = GeoPoint(lat, lon)
    assert haversine_m(estimate, GeoPoint(10.0, 179.9)) < 20_000.0


def test_weighted_topk_near_a_pole_stays_near_it():
    # Two fixes 0.1 degrees from the north pole on opposite meridians: the
    # mean is the pole, not a point at their latitude a quarter turn away.
    records = [ImageRecord("a", "s", 0, 89.9, 0.0),
               ImageRecord("b", "s", 1, 89.9, 180.0)]
    (lat,), (lon,) = _estimate(records, [[0, 1]], [[0.5, 0.5]], "weighted_topk")
    assert lat > 89.999
    for record in records:
        distance = haversine_m(GeoPoint(lat, lon), GeoPoint(record.lat, record.lon))
        assert distance == pytest.approx(0.1 * 111_195.0, rel=1e-3)


def test_weighted_topk_clamps_negative_scores():
    records = _support_records(3)
    clamped = _estimate(records, [[0, 2]], [[-0.5, 0.5]], "weighted_topk")
    # The clamped neighbor adds exact zeros, so the estimate is the one
    # from the remaining neighbor alone, which is that neighbor's fix.
    assert clamped == _estimate(records, [[2]], [[0.5]], "weighted_topk")
    assert clamped[0][0] == pytest.approx(records[2].lat, rel=1e-12)
    assert clamped[1][0] == records[2].lon


def test_weighted_topk_falls_back_to_top1_when_all_clamp():
    records = _support_records(3)
    lat, lon = _estimate(records, [[1, 2]], [[-0.1, -0.9]], "weighted_topk")
    assert (lat, lon) == ([records[1].lat], [records[1].lon])


def test_estimate_positions_validation():
    lats, lons = _positions(_support_records(2))
    with pytest.raises(InputError, match="empty"):
        estimate_positions(np.empty((1, 0), np.int64), np.empty((1, 0)),
                           lats, lons)
    with pytest.raises(InputError, match="strategy"):
        estimate_positions(np.array([[0]]), np.array([[1.0]]), lats, lons,
                           strategy="centroid")
    with pytest.raises(InputError, match="one shape"):
        estimate_positions(np.array([[0, 1]]), np.array([[1.0]]), lats, lons)
    with pytest.raises(InputError, match="one shape"):
        estimate_positions(np.array([0, 1]), np.array([1.0, 0.5]), lats, lons)


def test_write_matches_golden_csv(tmp_path):
    support = [ImageRecord("sup_a", "s", 0, 0.0, 0.0),
               ImageRecord("sup_b", "s", 1, 0.0, 0.0)]
    queries = [ImageRecord("qry_a", "q", 0, 0.0, 0.0),
               ImageRecord("qry_b", "q", 1, 0.0, 0.0)]
    indices = np.array([[1, 0], [0, 1]])
    scores = np.array([[1.0, 0.5], [0.25, -0.125]])
    path = tmp_path / "matches.csv"
    write_matches(path, indices, scores, queries, support)
    assert path.read_text() == (
        "query_id,rank,support_id,score\n"
        "qry_a,1,sup_b,1.0\n"
        "qry_a,2,sup_a,0.5\n"
        "qry_b,1,sup_a,0.25\n"
        "qry_b,2,sup_b,-0.125\n"
    )
    with pytest.raises(ValueError):
        write_matches(path, indices[:1], scores[:1], queries, support)


def test_write_matches_quotes_ids_that_need_it(tmp_path):
    # Metadata ids are read as CSV fields, so any of these can occur.
    support = [ImageRecord('sup,"a"', "s", 0, 0.0, 0.0),
               ImageRecord("sup\nb", "s", 1, 0.0, 0.0)]
    queries = [ImageRecord('qry,x"y', "q", 0, 0.0, 0.0)]
    path = tmp_path / "matches.csv"
    write_matches(path, np.array([[1, 0]]), np.array([[0.5, 0.25]]), queries,
                  support)
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [
        {"query_id": 'qry,x"y', "rank": "1", "support_id": "sup\nb",
         "score": "0.5"},
        {"query_id": 'qry,x"y', "rank": "2", "support_id": 'sup,"a"',
         "score": "0.25"},
    ]
