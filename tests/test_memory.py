"""Memory bounds of the run path: the EMB1 loader, the projection fit and
its application, retrieval, normalization, smoothing, the spatial pair scan,
the graph build and a whole `run` stay within their documented block
budgets, measured with tracemalloc, which sees numpy's buffers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import gsloc.dataset as dataset_mod
import gsloc.features as features_mod
import gsloc.graph as graph_mod
import gsloc.retrieval as retrieval_mod
import gsloc.smoothing as smoothing_mod
import gsloc.spatial as spatial_mod
from gsloc.cli import main
from gsloc.dataset import (ImageRecord, check_descriptors, load_descriptors,
                           write_descriptors, write_metadata)
from gsloc.features import apply_projection, fit_projection, l2_normalize
from gsloc.geodesy import METERS_PER_DEGREE
from gsloc.graph import GraphParams, SmoothingOperator, build_operator, distance_pairs
from gsloc.retrieval import cosine_knn
from gsloc.smoothing import SmoothConfig, smooth
from gsloc.spatial import LatLonGrid
from gsloc.synth import SynthConfig, generate_synthetic
from oracles import (chunked_pair_cosines, route_cosines, stable_top_k,
                     unit_rows)

# Room for interpreter and bookkeeping allocations next to the arrays.
SLACK = 2 << 20

N_SUPPORT, DIM = 6000, 2048


def _peak_bytes(fn, *args):
    """(result, peak bytes allocated while fn ran, result included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.fixture(scope="module")
def support():
    rng = np.random.default_rng(41)
    return rng.standard_normal((N_SUPPORT, DIM), dtype=np.float32)


def _ring(n: int) -> SmoothingOperator:
    """Every vertex averages its two neighbours on a cycle."""
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], axis=1).ravel()
    matrix = sparse.csr_matrix((np.full(2 * n, 0.5), (rows, cols)), shape=(n, n))
    return SmoothingOperator(matrix=matrix, isolated_vertices=np.empty(0, np.int64))


def test_load_descriptors_reads_straight_into_the_array(tmp_path, support):
    path = tmp_path / "support.emb1"
    write_descriptors(path, support)
    loaded, peak = _peak_bytes(load_descriptors, path, N_SUPPORT)
    assert np.array_equal(loaded, support)
    # The array itself, plus the finiteness mask of one row block: no
    # one-byte-per-value mask of the whole array.
    assert support.size > dataset_mod._FINITE_BLOCK_BYTES + SLACK
    assert peak <= support.nbytes + dataset_mod._FINITE_BLOCK_BYTES + SLACK


def test_load_descriptors_into_a_buffer_allocates_only_the_mask(tmp_path, support):
    path = tmp_path / "support.emb1"
    write_descriptors(path, support)
    buffer = np.zeros_like(support)
    loaded, peak = _peak_bytes(
        lambda: load_descriptors(path, N_SUPPORT, out=buffer))
    assert loaded is buffer
    assert np.array_equal(buffer, support)
    assert peak <= dataset_mod._FINITE_BLOCK_BYTES + SLACK


def test_check_descriptors_allocates_only_a_block_mask(support):
    _, peak = _peak_bytes(check_descriptors, support)
    assert peak <= dataset_mod._FINITE_BLOCK_BYTES + SLACK


def test_cosine_knn_never_copies_the_support(support):
    queries = support[::100].copy()
    (indices, _), peak = _peak_bytes(cosine_knn, queries, support, 1)
    assert indices[:, 0].tolist() == list(range(0, N_SUPPORT, 100))
    assert peak < support.nbytes


def test_cosine_knn_top_k_stays_within_one_tile(support):
    queries = support[::2].copy()
    (indices, scores), peak = _peak_bytes(cosine_knn, queries, support, 5)
    assert indices[:, 0].tolist() == list(range(0, N_SUPPORT, 2))
    assert indices.shape == scores.shape == (queries.shape[0], 5)
    # Several query blocks and support chunks: the query x support scores
    # would take more than four tile budgets.
    blocks, chunks = retrieval_mod._tile_shape(queries.shape[0], N_SUPPORT,
                                               DIM, 4)
    assert len(blocks) > 1 and len(chunks) > 1
    assert queries.shape[0] * N_SUPPORT * 4 > 4 * retrieval_mod._SCORE_TILE_BYTES
    # One float32 score tile with its selection's working set, one batch of
    # candidates on the float64 route, and the (n_query, 5) results.
    results = indices.nbytes + scores.nbytes
    assert peak <= (retrieval_mod._SCORE_TILE_BYTES + retrieval_mod._RESCORE_BYTES
                    + results + SLACK)


def test_score_tiles_do_not_change_the_neighbors(monkeypatch):
    rng = np.random.default_rng(3)
    # Coarse values, so that many scores tie across the k-th place.
    support = rng.integers(-2, 3, size=(300, 8)).astype(np.float32)
    queries = rng.integers(-2, 3, size=(150, 8)).astype(np.float32)
    whole_idx, whole = stable_top_k(route_cosines(queries, support), 300)
    for k in (1, 2, 7, 300):
        got_idx, got = cosine_knn(queries, support, k)
        with monkeypatch.context() as mp:
            # Tiles of 90 x 91 float32 scores, and one candidate per batch.
            mp.setattr(retrieval_mod, "_SCORE_TILE_BYTES", 16 * 64 * 64)
            mp.setattr(retrieval_mod, "_RESCORE_BYTES", 1)
            tiled_idx, tiled = cosine_knn(queries, support, k)
        # Every score is its pair's route score, so the tiles change no
        # bit, and the neighbors are a stable sort of every pair's score.
        assert np.array_equal(tiled_idx, got_idx)
        assert tiled.tobytes() == got.tobytes()
        assert np.array_equal(got_idx, whole_idx[:, :k])
        assert got.tobytes() == np.ascontiguousarray(whole[:, :k]).tobytes()


def test_near_identical_support_stays_within_the_budgets(monkeypatch):
    # Every column is a candidate for every query: the candidates' index
    # arrays and rescoring batches stay within the tile and rescore budgets.
    rng = np.random.default_rng(6)
    base = rng.standard_normal(64, dtype=np.float32)
    support = base + 1e-6 * rng.standard_normal((4000, 64), dtype=np.float32)
    queries = base + 1e-6 * rng.standard_normal((200, 64), dtype=np.float32)
    monkeypatch.setattr(retrieval_mod, "_SCORE_TILE_BYTES", 1 << 20)
    monkeypatch.setattr(retrieval_mod, "_RESCORE_BYTES", 1 << 20)
    (indices, scores), peak = _peak_bytes(cosine_knn, queries, support, 3)
    assert indices.shape == (200, 3)
    assert queries.shape[0] * support.shape[0] * 16 > 4 << 20
    assert peak <= 2 * (1 << 20) + indices.nbytes + scores.nbytes + SLACK


def test_l2_normalize_stays_within_its_block_budget(support):
    x = support.copy()
    out, peak = _peak_bytes(l2_normalize, x)
    assert out is x
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)
    assert peak <= 2 * features_mod._NORM_BLOCK_BYTES + SLACK


# The shape of the benchmark's `localize` support and its projection.
PROJ_ROWS, PROJ_DIM, PROJ_OUT = 4800, 256, 128


@pytest.fixture(scope="module")
def projection_support():
    rng = np.random.default_rng(43)
    mixing = rng.standard_normal((PROJ_DIM, PROJ_DIM), dtype=np.float32)
    return rng.standard_normal((PROJ_ROWS, PROJ_DIM), dtype=np.float32) @ mixing


def test_fit_projection_holds_one_float64_copy(projection_support):
    x = projection_support
    proj, peak = _peak_bytes(fit_projection, x, PROJ_OUT)
    assert proj.basis.shape == (PROJ_DIM, PROJ_OUT)
    # One float64 copy of the support, centered in place; beside it the
    # d_in x d_in Gram, its eigenvectors and the kept basis.
    assert peak <= 8 * x.size + 3 * 8 * PROJ_DIM ** 2 + SLACK


def test_apply_projection_stays_within_its_block_budget(projection_support):
    x = projection_support
    proj = fit_projection(x, PROJ_OUT)
    out, peak = _peak_bytes(apply_projection, proj, x)
    assert out.dtype == np.float32
    assert 8 * x.size > features_mod._PROJECTION_BLOCK_BYTES + SLACK
    assert peak <= out.nbytes + features_mod._PROJECTION_BLOCK_BYTES + SLACK


def test_projection_blocks_do_not_change_the_bits(projection_support,
                                                  monkeypatch):
    x = projection_support[:1000]
    proj = fit_projection(x, PROJ_OUT)
    whole = ((x.astype(np.float64) - proj.mean) @ proj.basis
             * proj.scale).astype(np.float32)
    # Blocks of 64 rows, and of 128 with the last 104 rows joining the
    # final block.
    for rows in (64, 128):
        monkeypatch.setattr(features_mod, "_PROJECTION_BLOCK_BYTES",
                            rows * 8 * (PROJ_DIM + PROJ_OUT))
        assert apply_projection(proj, x).tobytes() == whole.tobytes()


def test_smooth_stays_within_its_block_budget(support):
    n = N_SUPPORT
    out, peak = _peak_bytes(smooth, _ring(n), support, SmoothConfig(m=2))
    x = support.astype(np.float64)
    want = 0.25 * x[(np.arange(n) - 2) % n] + 0.5 * x + 0.25 * x[(np.arange(n) + 2) % n]
    assert np.allclose(out, want, atol=1e-6)
    # The budget covers the float64 input block and product block together.
    assert peak <= out.nbytes + smoothing_mod._BLOCK_BUDGET_BYTES + SLACK


_PAIR_COSINE_WORK = max(2 * features_mod._NORM_BLOCK_BYTES,
                        graph_mod._COSINE_CHUNK_BYTES)


def test_pair_cosines_stay_within_the_cosine_chunk_budget(support):
    rng = np.random.default_rng(7)
    i = np.sort(rng.integers(0, N_SUPPORT - 1, 50_000))
    cos, peak = _peak_bytes(graph_mod.pair_cosines, support, i, i + 1)
    x = support[i].astype(np.float64), support[i + 1].astype(np.float64)
    want = np.einsum("ij,ij->i", *x) / (np.linalg.norm(x[0], axis=1)
                                         * np.linalg.norm(x[1], axis=1))
    assert np.allclose(cos, want, atol=1e-12)
    # The norm pass holds one float64 row block of l2_normalize's budget
    # twice (the block and its squares); the pair gathers after it take one
    # cosine budget. On top: the per-row norms and the result.
    assert peak <= (_PAIR_COSINE_WORK + N_SUPPORT * 8 + cos.nbytes + SLACK)


def test_pair_cosines_of_a_star_stay_within_the_cosine_chunk_budget(support):
    # One hub row paired with every other row: the gather of its neighbours
    # alone is over ten chunk budgets, so its run is split across blocks.
    j = np.arange(1, N_SUPPORT)
    i = np.zeros_like(j)
    assert j.size * DIM * support.itemsize > 10 * graph_mod._COSINE_CHUNK_BYTES
    cos, peak = _peak_bytes(graph_mod.pair_cosines, support, i, j)
    assert np.array_equal(cos, chunked_pair_cosines(support, i, j))
    # The bound above, with the grouping's index arrays counted: three int64
    # per piece of the pair list (its start, its length and its place in the
    # order by length), one piece per chunk of the hub's pairs.
    chunk = graph_mod._COSINE_CHUNK_BYTES // (2 * support.itemsize * DIM)
    index_arrays = 3 * 8 * -(-j.size // chunk)
    assert peak <= (_PAIR_COSINE_WORK + N_SUPPORT * 8 + cos.nbytes
                    + index_arrays + SLACK)


def test_in_place_normalize_and_smooth_match_out_of_place(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((500, 96), dtype=np.float32)
    x[7] = 0.0
    # Small budgets, so that both walk several blocks.
    monkeypatch.setattr(features_mod, "_NORM_BLOCK_BYTES", 64 * 96 * 8)
    monkeypatch.setattr(smoothing_mod, "_BLOCK_BUDGET_BYTES", 2 * 8 * 500 * 10)
    normalized = unit_rows(x)
    assert l2_normalize(x) is x
    assert x.tobytes() == normalized.tobytes()
    op = _ring(500)
    for m in (0, 1, 3):
        smoothed = smooth(op, normalized, SmoothConfig(m=m))
        work = normalized.copy()
        assert smooth(op, work, SmoothConfig(m=m), out=work) is work
        assert work.tobytes() == smoothed.tobytes()
    assert x.tobytes() == normalized.tobytes()


def _dense_points(n: int, side_m: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """n points spread uniformly over a side_m square near 48 N."""
    rng = np.random.default_rng(seed)
    lats = 48.0 + rng.random(n) * side_m / METERS_PER_DEGREE
    lons = 2.0 + rng.random(n) * side_m / (METERS_PER_DEGREE * np.cos(np.radians(48.0)))
    return lats, lons


def test_distance_pairs_stays_within_the_pair_budget(monkeypatch):
    # Over half a million candidate pairs within 25 m cells, about one in
    # six of them kept.
    lats, lons = _dense_points(1600, 150.0, seed=11)
    records = [ImageRecord(f"i{k}", "s", k, float(a), float(b))
               for k, (a, b) in enumerate(zip(lats.tolist(), lons.tolist()))]
    whole = distance_pairs(records, 25.0)
    monkeypatch.setattr(spatial_mod, "_PAIR_CHUNK_BYTES", 8 << 20)
    pairs, peak = _peak_bytes(distance_pairs, records, 25.0)
    for got, want in ((pairs.i, whole.i), (pairs.j, whole.j), (pairs.d, whole.d)):
        assert got.tobytes() == want.tobytes()
    # The kept pairs exist twice while the chunks' pieces are joined.
    result = pairs.i.nbytes + pairs.j.nbytes + pairs.d.nbytes
    assert peak <= spatial_mod._PAIR_CHUNK_BYTES + 2 * result + SLACK


def test_min_distance_within_reach_stays_within_the_pair_budget(monkeypatch):
    lats, lons = _dense_points(1600, 150.0, seed=12)
    q_lats, q_lons = _dense_points(1600, 150.0, seed=13)
    grid = LatLonGrid(lats, lons, cell_m=25.0)
    whole = grid.min_distance_within_reach_m(q_lats, q_lons)
    monkeypatch.setattr(spatial_mod, "_PAIR_CHUNK_BYTES", 4 << 20)
    got, peak = _peak_bytes(grid.min_distance_within_reach_m, q_lats, q_lons)
    assert got.tobytes() == whole.tobytes()
    assert peak <= spatial_mod._PAIR_CHUNK_BYTES + SLACK


# What the graph build holds beyond its inputs, in operators of the size it
# returns: the peak comes while the cell's geometry merges its distance and
# sequence pairs into one sorted table, with the pairs themselves held.
GRAPH_BUILD_OPERATORS = 3


def test_build_operator_holds_about_three_operators():
    # The benchmark's `localize` support: 4,800 fixes, 369,218 entries.
    support, _, _ = generate_synthetic(
        SynthConfig(n_places=60, n_support_sequences=20, n_query_sequences=5,
                    dim=256), seed=1)
    assert support.n_images == 4800
    op, peak = _peak_bytes(build_operator, support.records, support.descriptors,
                           GraphParams())
    size = op.matrix.data.nbytes + op.matrix.indices.nbytes + op.matrix.indptr.nbytes
    assert op.matrix.indices.dtype == np.int32
    assert peak <= GRAPH_BUILD_OPERATORS * size, \
        f"graph build peaked at {peak / size:.2f} operators"


# A `run` on criterion 13's layout (sequences 100 m apart, frames 3 m apart).
RUN_SUPPORT, RUN_QUERY, RUN_DIM, RUN_SEQUENCES = 4000, 64, 2048, 20


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    data = tmp_path_factory.mktemp("run_inputs")
    rng = np.random.default_rng(17)
    per_sequence = RUN_SUPPORT // RUN_SEQUENCES
    support = [ImageRecord(f"s{s}f{f}", f"s{s}", f, s * 100.0 / METERS_PER_DEGREE,
                           f * 3.0 / METERS_PER_DEGREE)
               for s in range(RUN_SEQUENCES) for f in range(per_sequence)]
    desc = rng.standard_normal((RUN_SUPPORT, RUN_DIM), dtype=np.float32)
    picks = np.sort(rng.choice(RUN_SUPPORT, RUN_QUERY, replace=False)).tolist()
    query = [ImageRecord(f"q{i}", "q", i, support[p].lat, support[p].lon)
             for i, p in enumerate(picks)]
    qdesc = desc[picks] + rng.standard_normal((RUN_QUERY, RUN_DIM), dtype=np.float32)
    write_metadata(data / "support_metadata.csv", support)
    write_descriptors(data / "support_descriptors.emb1", desc)
    write_metadata(data / "query_metadata.csv", query)
    write_descriptors(data / "query_descriptors.emb1", qdesc)
    return data, desc.nbytes + qdesc.nbytes


def _run(data, out_dir, cache_dir) -> int:
    return main(["run", "--regime", "gs_support", "--m", "2",
                 "--support-metadata", str(data / "support_metadata.csv"),
                 "--support-descriptors", str(data / "support_descriptors.emb1"),
                 "--query-metadata", str(data / "query_metadata.csv"),
                 "--query-descriptors", str(data / "query_descriptors.emb1"),
                 "--out-dir", str(out_dir), "--cache-dir", str(cache_dir)])


# Block budgets a run goes through, each set to 1 MiB so that one extra copy
# of the support descriptors stands out against their sum.
_RUN_BUDGETS = [(features_mod, "_NORM_BLOCK_BYTES"),
                (smoothing_mod, "_BLOCK_BUDGET_BYTES"),
                (retrieval_mod, "_SCORE_TILE_BYTES"),
                (retrieval_mod, "_RESCORE_BYTES"),
                (graph_mod, "_COSINE_CHUNK_BYTES"),
                (spatial_mod, "_PAIR_CHUNK_BYTES")]
# The graph build's GRAPH_BUILD_OPERATORS operators (0.7 MiB each on these
# inputs) and the metadata records.
_RUN_GRAPH_AND_RECORDS = 4 << 20


def test_run_holds_the_support_descriptors_once(run_inputs, tmp_path,
                                                monkeypatch, capsys):
    data, descriptor_bytes = run_inputs
    for module, name in _RUN_BUDGETS:
        monkeypatch.setattr(module, name, 1 << 20)
    # Each budget is counted twice (a normalization block is held twice,
    # and the tile budget also bounds a query block cast to the tile's
    # dtype). On top comes the finiteness mask of one row block.
    budgets = 2 * len(_RUN_BUDGETS) * (1 << 20)
    mask = dataset_mod._FINITE_BLOCK_BYTES
    bound = descriptor_bytes + budgets + mask + _RUN_GRAPH_AND_RECORDS + SLACK
    for state in ("cold", "warm"):
        code, peak = _peak_bytes(_run, data, tmp_path / state, tmp_path / "cache")
        assert code == 0
        assert f"support smoothing cache {'miss' if state == 'cold' else 'hit'}" \
            in capsys.readouterr().out
        assert peak <= bound, f"{state} run peaked at {peak} bytes, bound {bound}"


def test_warm_run_writes_the_bytes_of_a_cold_run(run_inputs, tmp_path, capsys):
    data, _ = run_inputs
    cache = tmp_path / "cache"
    assert _run(data, tmp_path / "cold", cache) == 0
    cold_cache = {p.name: p.read_bytes() for p in cache.iterdir()}
    assert _run(data, tmp_path / "warm", cache) == 0
    assert "support smoothing cache hit" in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == cold_cache
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        assert ((tmp_path / "warm" / name).read_bytes()
                == (tmp_path / "cold" / name).read_bytes()), name
    # The cached smoothed descriptors are those of an out-of-place route:
    # normalize a copy, then smooth it on the cached operator.
    (emb,) = cache.glob("smoothed-*.emb1")
    (adj,) = cache.glob("graph-*.adj1")
    raw = load_descriptors(data / "support_descriptors.emb1", RUN_SUPPORT)
    want = smooth(graph_mod.load_operator(adj), unit_rows(raw), SmoothConfig(m=2))
    assert load_descriptors(emb, RUN_SUPPORT).tobytes() == want.tobytes()
