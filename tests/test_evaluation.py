"""Scoring, regimes, ablation, m-sweep, grid search, and report rendering."""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace
from itertools import product

import numpy as np
import pytest

import gsloc.evaluation as evaluation
import gsloc.graph as graph
from gsloc.cache import write_json
from gsloc.dataset import Dataset, ImageRecord
from gsloc.errors import InputError
from gsloc.evaluation import (ABLATION_ORDER, REGIMES, AblationRow, EvalReport,
                              ablation_table_csv, compute_report,
                              evaluate_regime, grid_search, grid_table_csv,
                              query_graph_params,
                              render_report, run_ablation, sweep_m,
                              sweep_plot_data, sweep_table_csv)
from gsloc.geodesy import GeoPoint, METERS_PER_DEGREE
from gsloc.graph import GraphParams, build_operator
from gsloc.smoothing import SmoothConfig
from gsloc.spatial import LatLonGrid
from gsloc.synth import SynthConfig, generate_synthetic
from oracles import localization_error, reference_operator

SMALL_SYNTH = SynthConfig(n_places=6, n_support_sequences=2,
                          n_query_sequences=1, frames_per_place=2, dim=16,
                          noise_sigma=0.2, place_spacing_m=50.0,
                          gps_jitter_m=5.0)


def _small_world(seed=0, cfg=SMALL_SYNTH):
    support, query, _ = generate_synthetic(cfg, seed=seed)
    return support, query


def _offset_dataset(offsets_m, role, prefix):
    records = [ImageRecord(f"{prefix}{i}", prefix, i,
                           off / METERS_PER_DEGREE, 0.0)
               for i, off in enumerate(offsets_m)]
    rng = np.random.default_rng(len(offsets_m))
    desc = rng.standard_normal((len(offsets_m), 4)).astype(np.float32)
    return Dataset(records=records, descriptors=desc, role=role)


# ---------------------------------------------------------------------------
# Scoring


def _self_matches(n):
    """cosine_knn's arrays for k=1 with query i matched to support i."""
    return np.arange(n, dtype=np.int64)[:, None], np.ones((n, 1))


def test_localization_error_zero_for_same_point():
    assert localization_error(-34.9, 138.6, GeoPoint(-34.9, 138.6)) == 0.0


def test_compute_report_handcrafted_median_and_accuracy():
    support = _offset_dataset([0.0, 10.0, 20.0, 100.0], "support", "s")
    query = _offset_dataset([0.0, 0.0, 0.0, 0.0], "query", "q")
    report = compute_report(*_self_matches(4), support, query, "top1", 25.0,
                            "none", {})
    assert report.per_query_error_m == pytest.approx([0.0, 10.0, 20.0, 100.0],
                                                     rel=1e-9, abs=1e-9)
    # Even-length median: mean of the two central values.
    assert report.median_error_m == pytest.approx(15.0, rel=1e-9)
    # Strictly-below-threshold accuracy: 0, 10, 20 count; 100 does not.
    assert report.acc_at_threshold == 0.75


def test_compute_report_threshold_is_strict():
    support = _offset_dataset([24.9, 25.1], "support", "s")
    query = _offset_dataset([0.0, 0.0], "query", "q")
    report = compute_report(*_self_matches(2), support, query, "top1", 25.0,
                            "none", {})
    assert report.acc_at_threshold == 0.5


def test_compute_report_validation():
    support = _offset_dataset([0.0, 5.0], "support", "s")
    query = _offset_dataset([0.0], "query", "q")
    with pytest.raises(InputError, match="threshold"):
        compute_report(*_self_matches(1), support, query, "top1", 0.0,
                       "none", {})
    with pytest.raises(InputError, match="empty"):
        compute_report(np.empty((0, 1), np.int64), np.empty((0, 1)), support,
                       query, "top1", 25.0, "none", {})
    # Row i is query i, so the rows must cover the query set exactly.
    with pytest.raises(InputError, match="2 result rows for 1 queries"):
        compute_report(*_self_matches(2), support, query, "top1", 25.0,
                       "none", {})
    with pytest.raises(InputError, match="one shape"):
        compute_report(np.array([[0, 1]]), np.array([[1.0]]), support, query,
                       "weighted_topk", 25.0, "none", {})
    with pytest.raises(InputError, match="strategy"):
        compute_report(*_self_matches(1), support, query, "centroid", 25.0,
                       "none", {})


# ---------------------------------------------------------------------------
# Regimes


def test_m_zero_makes_all_regimes_identical():
    support, query = _small_world()
    reports = [evaluate_regime(support, query, GraphParams(), SmoothConfig(m=0),
                               regime) for regime in
               ("none", "gs_support", "gs_query", "gs_both")]
    baseline = reports[0].per_query_error_m
    for report in reports[1:]:
        assert report.per_query_error_m == baseline


def test_noiseless_world_localizes_perfectly():
    cfg = SynthConfig(n_places=5, n_support_sequences=2, n_query_sequences=1,
                      frames_per_place=2, dim=16, noise_sigma=0.0,
                      place_spacing_m=50.0, gps_jitter_m=0.0)
    support, query, _ = generate_synthetic(cfg, seed=1)
    report = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=0),
                             "none")
    assert report.acc_at_threshold == 1.0
    assert report.median_error_m == 0.0


def test_unknown_regime_rejected():
    support, query = _small_world()
    with pytest.raises(InputError, match="regime"):
        evaluate_regime(support, query, GraphParams(), SmoothConfig(m=1),
                        "all")


def test_report_snapshot_carries_run_description():
    support, query = _small_world()
    report = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=2),
                             "gs_both", k=3, strategy="weighted_topk")
    snap = report.config_snapshot
    assert snap["regime"] == "gs_both"
    assert snap["k"] == 3
    assert snap["strategy"] == "weighted_topk"
    assert snap["smoothing"] == {"m": 2}
    assert snap["n_support"] == support.n_images
    assert snap["graph"]["alpha"] == 0.25


# ---------------------------------------------------------------------------
# Query-side graph parameters (GPS leakage guard)


def test_query_graph_params_drops_distance_kernel_by_default():
    params = GraphParams()
    guarded = query_graph_params(params, query_gps=False)
    assert guarded.include_dist is False
    assert guarded.include_seq is True and guarded.include_latent is True
    assert guarded.betas == params.betas and guarded.alpha == params.alpha
    allowed = query_graph_params(params, query_gps=True)
    assert allowed.include_dist is True
    # Distance kernel disabled in the base params stays disabled.
    off = query_graph_params(GraphParams(include_dist=False), query_gps=True)
    assert off.include_dist is False


def test_query_operator_is_independent_of_query_gps():
    support, query = _small_world()
    params = query_graph_params(GraphParams(), query_gps=False)
    op1 = build_operator(query.records, query.descriptors, params)
    shifted = [ImageRecord(r.image_id, r.sequence_id, r.frame_index,
                           r.lat + 0.01, r.lon - 0.02) for r in query.records]
    op2 = build_operator(shifted, query.descriptors, params)
    assert np.array_equal(op1.matrix.indptr, op2.matrix.indptr)
    assert np.array_equal(op1.matrix.indices, op2.matrix.indices)
    assert np.array_equal(op1.matrix.data, op2.matrix.data)


# ---------------------------------------------------------------------------
# Ablation


def test_ablation_rows_follow_canonical_order():
    support, query = _small_world()
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=2))
    assert [(r.use_dist, r.use_seq, r.use_latent) for r in rows] == list(ABLATION_ORDER)
    assert list(ABLATION_ORDER)[0] == (False, False, False)
    assert list(ABLATION_ORDER)[-1] == (True, True, True)


def test_ablation_all_off_equals_unsmoothed_baseline():
    support, query = _small_world()
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=2))
    baseline = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=0),
                               "none")
    assert rows[0].median_error_m == baseline.median_error_m
    assert rows[0].acc_at_threshold == baseline.acc_at_threshold


def test_ablation_latent_only_collapses_to_baseline():
    # With both structural kernels off the latent gate is empty, so the
    # latent-only cell is the baseline too.
    support, query = _small_world()
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=2))
    assert rows[1].median_error_m == rows[0].median_error_m
    assert rows[1].acc_at_threshold == rows[0].acc_at_threshold


# ---------------------------------------------------------------------------
# m-sweep


def test_sweep_m_first_row_is_the_baseline():
    support, query = _small_world()
    rows = sweep_m(support, query, GraphParams(), [0, 2])
    assert [m for m, _, _ in rows] == [0, 2]
    baseline = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=0),
                               "gs_both")
    assert rows[0][1] == baseline.acc_at_threshold
    assert rows[0][2] == baseline.median_error_m


def test_sweep_m_rejects_negative_m():
    support, query = _small_world()
    with pytest.raises(InputError, match="nonnegative"):
        sweep_m(support, query, GraphParams(), [0, -1])


# ---------------------------------------------------------------------------
# Grid search


def test_grid_search_single_cell():
    support, query = _small_world()
    params, cfg, table = grid_search(support, query, {"m": [2]})
    assert len(table) == 1
    assert cfg.m == 2
    assert params.alpha == GraphParams().alpha


def test_grid_search_table_in_canonical_product_order():
    support, query = _small_world()
    _, _, table = grid_search(support, query,
                              {"alpha": [0.1, 0.2], "m": [0, 2]})
    assert [(row["alpha"], row["m"]) for row in table] == [
        (0.1, 0), (0.1, 2), (0.2, 0), (0.2, 2)]


def test_grid_search_tie_breaks_to_earliest_cell():
    support, query = _small_world()
    # m = 0 ignores the graph entirely: every alpha scores identically.
    params, cfg, table = grid_search(support, query,
                                     {"alpha": [0.1, 0.2, 0.3], "m": [0]})
    assert all(row["acc_at_threshold"] == table[0]["acc_at_threshold"]
               for row in table)
    assert params.alpha == 0.1 and cfg.m == 0


def test_grid_search_winner_is_argmax_of_table():
    support, query = _small_world()
    params, cfg, table = grid_search(
        support, query, {"gamma": [0.1, 0.6], "m": [0, 1, 2]})
    assert len(table) == 6
    best = max(range(len(table)),
               key=lambda i: (table[i]["acc_at_threshold"],
                              -table[i]["median_error_m"], -i))
    assert cfg.m == table[best]["m"]
    assert params.gamma == table[best]["gamma"]


def test_grid_search_threads_do_not_change_the_table():
    support, query = _small_world()
    grid = {"alpha": [0.1, 0.25, 0.4], "m": [0, 2]}
    _, _, serial = grid_search(support, query, grid, threads=1)
    _, _, threaded = grid_search(support, query, grid, threads=4)
    assert serial == threaded


def _count_builds(monkeypatch) -> list:
    """Record the params of every operator the evaluation layer builds."""
    built = []
    real = evaluation.build_operator

    def counting(records, descriptors, params, geometry=None):
        built.append(params)
        return real(records, descriptors, params, geometry)
    monkeypatch.setattr(evaluation, "build_operator", counting)
    return built


def _count_pair_scans(monkeypatch) -> list:
    """Record the (point count, reach) of every candidate-pair scan: the
    geometry below every distance kernel."""
    scans = []
    real = LatLonGrid.pair_chunks

    def counting(self, reach_m):
        scans.append((self.lats.size, reach_m))
        return real(self, reach_m)
    monkeypatch.setattr(LatLonGrid, "pair_chunks", counting)
    return scans


def _count_cosines(monkeypatch) -> list:
    """Record (row count, i, j) of every pair whose cosine is computed."""
    computed = []
    real = graph.pair_cosines

    def counting(descriptors, i, j):
        n = np.asarray(descriptors).shape[0]
        computed.extend((n, a, b) for a, b in zip(i.tolist(), j.tolist()))
        return real(descriptors, i, j)
    monkeypatch.setattr(graph, "pair_cosines", counting)
    return computed


def _count_products(monkeypatch) -> dict:
    """Sparse products applied by the evaluation layer, by signal rows."""
    products: dict[int, int] = {}
    real = evaluation.smooth

    def counting(op, signal, cfg, **kwargs):
        products[signal.shape[0]] = products.get(signal.shape[0], 0) + cfg.m
        return real(op, signal, cfg, **kwargs)
    monkeypatch.setattr(evaluation, "smooth", counting)
    return products


def test_sweep_m_builds_each_side_graph_once(monkeypatch):
    support, query = _small_world()
    built = _count_builds(monkeypatch)
    rows = sweep_m(support, query, GraphParams(), list(range(11)))
    assert [row[0] for row in rows] == list(range(11))
    # one support graph, then one GPS-free query graph, reused for every m
    assert [p.include_dist for p in built] == [True, False]


def test_sweep_m_walks_the_m_ladder(monkeypatch):
    support, query = _small_world()
    products = _count_products(monkeypatch)
    rows = sweep_m(support, query, GraphParams(), list(range(11)))
    # m = 0..10 from scratch would be 55 products per side
    assert products == {support.n_images: 10, query.n_images: 10}
    monkeypatch.undo()
    for m, acc, median in rows:
        fresh = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=m),
                                "gs_both")
        assert (acc, median) == (fresh.acc_at_threshold, fresh.median_error_m)


def test_grid_search_builds_one_graph_per_group_and_side(monkeypatch):
    support, query = _small_world()
    built = _count_builds(monkeypatch)
    grid = {"alpha": [0.1, 0.25, 0.4], "m": [0, 1, 2]}
    grid_search(support, query, grid, regime="gs_both")
    assert len(built) == 3 * 2
    built.clear()
    grid_search(support, query, grid, regime="gs_support", threads=2)
    assert len(built) == 3


_SHARED_GRID = {"max_distance_m": [15.0, 40.0, 25.0],
                "betas": [[0.5], [0.75, 0.0625, 0.0625]],
                "gamma": [0.0, 0.33], "m": [0, 1, 2]}


def test_grid_search_scans_candidate_pairs_once_per_side(monkeypatch):
    support, query = _small_world()
    scans = _count_pair_scans(monkeypatch)
    grid_search(support, query, _SHARED_GRID, regime="gs_both",
                query_gps=True, threads=2)
    # 3 radii x 2 betas x 2 gammas: one scan per side, at the largest radius
    assert sorted(scans) == sorted([(support.n_images, 40.0),
                                    (query.n_images, 40.0)])
    scans.clear()
    grid_search(support, query, _SHARED_GRID, regime="gs_both")
    assert scans == [(support.n_images, 40.0)]  # no query GPS, no query scan


def _count_structures(monkeypatch) -> list:
    """Record (builder, vertex count) of every sparse structure built from
    pairs: a kernel matrix (WeightedGraph.from_pairs), the sorted table of a
    geometry's pairs (graph._pair_table), or its pair structure
    (graph._symmetric_structure)."""
    built = []
    real_from_pairs = graph.WeightedGraph.from_pairs.__func__

    def from_pairs(cls, n, i, j, w):
        built.append(("from_pairs", n))
        return real_from_pairs(cls, n, i, j, w)
    monkeypatch.setattr(graph.WeightedGraph, "from_pairs", classmethod(from_pairs))
    for name in ("_pair_table", "_symmetric_structure"):
        def counting(n, *args, _name=name, _real=getattr(graph, name)):
            built.append((_name, n))
            return _real(n, *args)
        monkeypatch.setattr(graph, name, counting)
    return built


def test_grid_search_builds_one_structure_per_side(monkeypatch):
    support, query = _small_world()
    assert support.n_images != query.n_images
    built = _count_structures(monkeypatch)
    grid = {"max_distance_m": [15.0, 40.0],
            "betas": [[0.75, 0.0625, 0.0625], [0.5, 0.25]],
            "gamma": [0.0, 0.33], "m": [0, 2]}
    grid_search(support, query, grid, regime="gs_both", threads=2)
    # Eight cells once built two or three kernel matrices each per side. Now
    # each side sorts its pairs once, and builds one structure over the union
    # of its gates: four (radius, gaps) gates on the support, and two
    # gap-only gates on the query, whose graph leaves GPS out.
    assert sorted(built) == sorted(
        [("_pair_table", support.n_images), ("_pair_table", query.n_images),
         ("_symmetric_structure", support.n_images),
         ("_symmetric_structure", query.n_images)])


def test_grid_search_threads_share_geometry_under_fast_switching():
    support, query = _small_world()
    _, _, serial = grid_search(support, query, _SHARED_GRID, regime="gs_both",
                               query_gps=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # more threads than cores, over groups that read one shared geometry
        _, _, threaded = grid_search(support, query, _SHARED_GRID,
                                     regime="gs_both", query_gps=True, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def _gated_pairs(dataset, params) -> set:
    """Upper-triangle pairs joined by the structural kernels of params."""
    op = reference_operator(dataset.records, None,
                            replace(params, include_latent=False))
    coo = op.matrix.tocoo()
    return {(int(i), int(j)) for i, j in zip(coo.row, coo.col) if i < j}


def test_grid_search_computes_each_gated_cosine_once(monkeypatch):
    support, query = _small_world()
    computed = _count_cosines(monkeypatch)
    grid_search(support, query, _SHARED_GRID, regime="gs_both",
                query_gps=True, threads=2)
    assert len(computed) == len(set(computed))
    for side, dataset in (("support", support), ("query", query)):
        want = set()
        for radius, betas in product([15.0, 40.0, 25.0],
                                     _SHARED_GRID["betas"]):
            cell = replace(GraphParams(), max_distance_m=radius, betas=betas)
            want |= _gated_pairs(dataset, cell)
        got = {(i, j) for n, i, j in computed if n == dataset.n_images}
        assert want and got == want, side


def test_grid_cells_equal_single_cell_evaluations():
    support, query = _small_world()
    for regime, query_gps in (("gs_both", True), ("gs_both", False),
                              ("gs_query", False)):
        _, _, table = grid_search(support, query, _SHARED_GRID, regime=regime,
                                  query_gps=query_gps, threads=2)
        assert len(table) == 3 * 2 * 2 * 3
        for row in table:
            params = replace(GraphParams(), betas=tuple(row["betas"]),
                             gamma=row["gamma"],
                             max_distance_m=row["max_distance_m"])
            fresh = evaluate_regime(support, query, params,
                                    SmoothConfig(m=row["m"]), regime,
                                    query_gps=query_gps)
            assert (row["acc_at_threshold"], row["median_error_m"]) == (
                fresh.acc_at_threshold, fresh.median_error_m), row


def test_ablation_skips_identity_rows_and_shares_geometry(monkeypatch):
    support, query = _small_world()
    built = _count_builds(monkeypatch)
    scans = _count_pair_scans(monkeypatch)
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=2))
    # (0,0,0) and (0,0,1) have no structural kernel: identity, no build
    assert [(p.include_dist, p.include_seq, p.include_latent) for p in built] \
        == list(ABLATION_ORDER[2:])
    assert scans == [(support.n_images, GraphParams().max_distance_m)]
    monkeypatch.undo()
    for row in rows:
        params = replace(GraphParams(), include_dist=row.use_dist,
                         include_seq=row.use_seq, include_latent=row.use_latent)
        fresh = evaluate_regime(support, query, params, SmoothConfig(m=2),
                                "gs_support")
        assert (row.median_error_m, row.acc_at_threshold) == (
            fresh.median_error_m, fresh.acc_at_threshold)


@pytest.mark.parametrize("query_gps", [False, True])
@pytest.mark.parametrize("regime", REGIMES)
def test_ablation_scores_its_regime(regime, query_gps):
    support, query = _small_world()
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=2),
                        regime=regime, query_gps=query_gps)
    for row in rows:
        params = replace(GraphParams(), include_dist=row.use_dist,
                         include_seq=row.use_seq, include_latent=row.use_latent)
        fresh = evaluate_regime(support, query, params, SmoothConfig(m=2),
                                regime, query_gps=query_gps)
        assert (row.median_error_m, row.acc_at_threshold) == (
            fresh.median_error_m, fresh.acc_at_threshold), row


def _count_retrievals(monkeypatch) -> list:
    """Record the (query rows, support rows) of every cosine_knn call."""
    calls = []
    real = evaluation.cosine_knn

    def counting(query_desc, support_desc, k):
        calls.append((query_desc.shape[0], support_desc.shape[0]))
        return real(query_desc, support_desc, k)
    monkeypatch.setattr(evaluation, "cosine_knn", counting)
    return calls


def _count_geometries(monkeypatch) -> list:
    """Record the row count of every kernel_geometry the evaluation layer
    builds: one per smoothed side of a shared build."""
    built = []
    real = evaluation.kernel_geometry

    def counting(records, descriptors, cells):
        built.append(len(records))
        return real(records, descriptors, cells)
    monkeypatch.setattr(evaluation, "kernel_geometry", counting)
    return built


def test_ablation_at_m_zero_shares_one_retrieval(monkeypatch):
    support, query = _small_world()
    calls = _count_retrievals(monkeypatch)
    rows = run_ablation(support, query, GraphParams(), SmoothConfig(m=0))
    assert calls == [(query.n_images, support.n_images)]
    assert len({(row.acc_at_threshold, row.median_error_m) for row in rows}) == 1
    calls.clear()
    # At m = 2 the all-off and latent-only rows smooth nothing: they share
    # one retrieval, and the six others retrieve once each.
    run_ablation(support, query, GraphParams(), SmoothConfig(m=2))
    assert len(calls) == 7


def test_grid_search_regime_none_retrieves_once(monkeypatch):
    support, query = _small_world()
    calls = _count_retrievals(monkeypatch)
    grid_search(support, query, {"alpha": [0.1, 0.2], "m": [0, 1, 2]},
                regime="none")
    assert calls == [(query.n_images, support.n_images)]


def test_one_cell_evaluations_build_no_shared_geometry(monkeypatch):
    support, query = _small_world()
    built = _count_geometries(monkeypatch)
    grid_search(support, query, {"m": [0, 1, 2]}, regime="gs_both")
    sweep_m(support, query, GraphParams(), [0, 1, 2])
    evaluate_regime(support, query, GraphParams(), SmoothConfig(m=2), "gs_both")
    assert built == []
    grid_search(support, query, {"alpha": [0.1, 0.2], "m": [0, 2]},
                regime="gs_both")
    assert built == [support.n_images, query.n_images]
    built.clear()
    grid_search(support, query, {"alpha": [0.1, 0.2], "m": [0, 2]},
                regime="gs_query")
    assert built == [query.n_images]
    built.clear()
    grid_search(support, query, {"alpha": [0.1, 0.2], "m": [0]},
                regime="gs_both")
    assert built == []  # nothing is smoothed


def test_sweep_m_without_m_values_is_empty():
    support, query = _small_world()
    assert sweep_m(support, query, GraphParams(), []) == []


def test_grid_search_rejects_negative_m():
    # Not scored as the unsmoothed baseline: SmoothConfig checks every m, not
    # only the winner's (on this world m = 2 beats the baseline).
    support, query = _small_world(seed=2)
    with pytest.raises(InputError, match="m must be nonnegative, got -1"):
        grid_search(support, query, {"m": [2, -1]})


def test_grid_search_validation():
    support, query = _small_world()
    with pytest.raises(InputError, match="at least one"):
        grid_search(support, query, {})
    with pytest.raises(InputError, match="unknown grid axes"):
        grid_search(support, query, {"beta": [1.0]})
    with pytest.raises(InputError, match="empty"):
        grid_search(support, query, {"alpha": []})
    with pytest.raises(InputError, match="regime"):
        grid_search(support, query, {"m": [0]}, regime="smoothed")


# ---------------------------------------------------------------------------
# Rendering and serialization


def _report():
    return EvalReport(per_query_error_m=[10.0, 35.628], median_error_m=22.814,
                      acc_at_threshold=0.5132, threshold_m=25.0,
                      regime="gs_both", config_snapshot={"k": 1})


def test_render_report_line():
    assert render_report(_report()) == (
        "regime=gs_both: median 22.81 m / acc@25m 51.32%")


def test_report_json_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, asdict(_report()))
    write_json(b, asdict(_report()))
    assert a.read_bytes() == b.read_bytes() == (
        b'{\n  "acc_at_threshold": 0.5132,\n  "config_snapshot": {\n    "k": 1\n  },\n'
        b'  "median_error_m": 22.814,\n  "per_query_error_m": [\n    10.0,\n'
        b'    35.628\n  ],\n  "regime": "gs_both",\n  "threshold_m": 25.0\n}\n')
    payload = json.loads(a.read_text())
    assert list(payload) == sorted(payload)
    assert payload["median_error_m"] == 22.814


def test_ablation_table_csv_golden():
    rows = [AblationRow(use_dist=False, use_seq=False, use_latent=True,
                        median_error_m=12.5, acc_at_threshold=0.5)]
    assert ablation_table_csv(rows) == (
        "use_dist,use_seq,use_latent,median_error_m,acc_at_threshold\n"
        "0,0,1,12.5,0.5\n")


def test_sweep_tables_golden():
    rows = [(0, 0.5, 30.25), (2, 0.75, 10.0)]
    assert sweep_table_csv(rows) == (
        "m,acc_at_threshold,median_error_m\n"
        "0,0.5,30.25\n"
        "2,0.75,10.0\n")
    assert sweep_plot_data(rows) == "0\t0.5\n2\t0.75\n"


def test_grid_table_csv_golden():
    table = [{"alpha": 0.25, "betas": [0.75, 0.0625], "gamma": 0.33,
              "max_distance_m": 25.0, "m": 2, "acc_at_threshold": 0.5,
              "median_error_m": 12.5}]
    assert grid_table_csv(table) == (
        "alpha,betas,gamma,max_distance_m,m,acc_at_threshold,median_error_m\n"
        "0.25,0.75;0.0625,0.33,25.0,2,0.5,12.5\n")
