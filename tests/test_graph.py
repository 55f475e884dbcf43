"""Kernel construction, combination, row normalization, spectral properties,
and ADJ1 operator persistence."""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from gsloc.dataset import ImageRecord
from gsloc.errors import InputError
from gsloc.geodesy import GeoPoint, METERS_PER_DEGREE, haversine_m
from gsloc.graph import (GraphParams, SmoothingOperator, WeightedGraph,
                         build_graph, build_operator, build_w_dist,
                         build_w_latent, build_w_seq, combine, kernel_geometry,
                         load_operator, normalize, pair_cosines,
                         save_operator)
from oracles import (all_pairs_dist_edges, chunked_pair_cosines, coo_edges,
                     copying_normalize, dense_normalize, edge_set,
                     gate_cosines, random_weighted_graph, reference_operator)


def _gps_records(offsets_m, sequence="s"):
    """Records spaced along a meridian at the given meter offsets."""
    return [ImageRecord(f"{sequence}{i}", sequence, i,
                        off / METERS_PER_DEGREE, 0.0)
            for i, off in enumerate(offsets_m)]


def _seq_records(frames, sequence="s", lat=0.0, lon=0.0):
    return [ImageRecord(f"{sequence}{f}", sequence, f, lat, lon)
            for f in frames]


def _w_dist(records, params):
    """The distance kernel on a geometry of its own, the distance-only cell."""
    params = replace(params, include_seq=False, include_latent=False)
    return build_w_dist(kernel_geometry(records, None, [params]), params)


def _w_seq(records, params):
    """The sequence kernel on a geometry of its own, the sequence-only cell."""
    params = replace(params, include_dist=False, include_latent=False)
    return build_w_seq(kernel_geometry(records, None, [params]), params)


# ---------------------------------------------------------------------------
# GraphParams


def test_params_defaults():
    p = GraphParams()
    assert p.alpha == 0.25
    assert p.max_distance_m == 25.0
    assert p.betas == (0.75, 0.0625, 0.0625)
    assert p.gamma == 0.33
    assert p.decay_sign == "negative" and p.decay_factor == -1.0
    assert p.include_self_edges is False


def test_params_validation():
    with pytest.raises(InputError, match="alpha"):
        GraphParams(alpha=0.0)
    with pytest.raises(InputError, match="max_distance_m"):
        GraphParams(max_distance_m=-1.0)
    with pytest.raises(InputError, match="betas"):
        GraphParams(betas=(0.5, 0.0))
    with pytest.raises(InputError, match="gamma"):
        GraphParams(gamma=-0.1)
    with pytest.raises(InputError, match="decay_sign"):
        GraphParams(decay_sign="down")


# ---------------------------------------------------------------------------
# Distance kernel


def test_dist_kernel_weight_at_four_meters():
    graph = _w_dist(_gps_records([0.0, 4.0]), GraphParams())
    i, j, w = coo_edges(graph)
    assert (i.tolist(), j.tolist()) == ([0], [1])
    # exp(-0.25 * 4) = e^-1
    assert w[0] == pytest.approx(0.36787944117144233, rel=1e-9)


def test_dist_kernel_duplicate_gps_weight_one():
    graph = _w_dist(_gps_records([10.0, 10.0]), GraphParams())
    _, _, w = coo_edges(graph)
    assert w[0] == 1.0


def test_dist_kernel_cutoff_excludes_far_pairs():
    graph = _w_dist(_gps_records([0.0, 30.0]), GraphParams())
    assert graph.n_edges == 0


def test_dist_kernel_cutoff_is_strict():
    records = _gps_records([0.0, 25.0])
    d = haversine_m(GeoPoint(records[0].lat, records[0].lon),
                    GeoPoint(records[1].lat, records[1].lon))
    at = _w_dist(records, GraphParams(max_distance_m=d))
    assert at.n_edges == 0
    just_above = _w_dist(
        records, GraphParams(max_distance_m=float(np.nextafter(d, np.inf))))
    assert just_above.n_edges == 1


def test_dist_kernel_positive_decay():
    params = GraphParams(decay_sign="positive")
    graph = _w_dist(_gps_records([0.0, 4.0]), params)
    _, _, w = coo_edges(graph)
    assert w[0] == pytest.approx(math.e, rel=1e-9)


def test_dist_kernel_matches_all_pairs_oracle():
    rng = np.random.default_rng(31)
    for trial in range(5):
        n = int(rng.integers(30, 200))
        lats = -34.9 + rng.uniform(-300, 300, n) / METERS_PER_DEGREE
        lons = 138.6 + rng.uniform(-300, 300, n) / (
            METERS_PER_DEGREE * math.cos(math.radians(-34.9)))
        records = [ImageRecord(f"r{i}", "s", i, float(lats[i]), float(lons[i]))
                   for i in range(n)]
        params = GraphParams(max_distance_m=40.0)
        graph = _w_dist(records, params)
        oracle = all_pairs_dist_edges(lats, lons, 40.0, params.alpha,
                                      params.decay_factor)
        i, j, w = coo_edges(graph)
        assert set(zip(i.tolist(), j.tolist())) == set(oracle)
        for ii, jj, ww in zip(i.tolist(), j.tolist(), w):
            assert ww == pytest.approx(oracle[(ii, jj)], rel=1e-9)


# ---------------------------------------------------------------------------
# Sequence kernel


def test_seq_kernel_weights_by_gap():
    graph = _w_seq(_seq_records(range(6)), GraphParams())
    edges = {(i, j): w for i, j, w in zip(*coo_edges(graph))}
    assert edges[(0, 1)] == 0.75
    assert edges[(0, 2)] == 0.0625
    assert edges[(0, 3)] == 0.0625
    assert (0, 4) not in edges
    # gaps of 1, 2, 3 over six frames: 5 + 4 + 3 edges.
    assert graph.n_edges == 12


def test_seq_kernel_never_crosses_sequences():
    records = _seq_records([0, 1], "a") + _seq_records([0, 1], "b")
    graph = _w_seq(records, GraphParams())
    assert edge_set(graph) == {(0, 1), (2, 3)}


def test_seq_kernel_uses_exact_frame_gaps():
    # Frames 0, 2, 3, 7: gaps are index differences, not adjacency in order.
    graph = _w_seq(_seq_records([0, 2, 3, 7]), GraphParams())
    edges = {(i, j): w for i, j, w in zip(*coo_edges(graph))}
    assert edges == {
        (0, 1): pytest.approx(0.0625),  # frames 0 and 2, gap 2
        (0, 2): pytest.approx(0.0625),  # frames 0 and 3, gap 3
        (1, 2): pytest.approx(0.75),    # frames 2 and 3, gap 1
    }


def test_seq_kernel_single_beta():
    graph = _w_seq(_seq_records(range(4)), GraphParams(betas=(0.5,)))
    assert edge_set(graph) == {(0, 1), (1, 2), (2, 3)}


def test_seq_kernel_interleaved_sequences():
    records = [
        ImageRecord("a0", "a", 0, 0.0, 0.0),
        ImageRecord("b0", "b", 0, 0.0, 0.0),
        ImageRecord("a1", "a", 1, 0.0, 0.0),
        ImageRecord("b5", "b", 5, 0.0, 0.0),
    ]
    graph = _w_seq(records, GraphParams())
    assert edge_set(graph) == {(0, 2)}


def test_sequence_frames_out_of_record_order_are_rejected():
    params = GraphParams(include_dist=False, include_latent=False)
    op = build_operator(_seq_records([0, 1, 2]), None, params)
    assert op.isolated_vertices.size == 0
    # Reversed or repeated frames would otherwise lose their sequence edges.
    for frames in ([2, 1, 0], [0, 1, 1]):
        with pytest.raises(InputError, match="sequence 'q'.*strictly increasing"):
            build_operator(_seq_records(frames, "q"), None, params)
    interleaved = _seq_records([0, 1], "a") + _seq_records([5, 3], "b")
    with pytest.raises(InputError, match="sequence 'b'"):
        _w_seq(interleaved, params)


# ---------------------------------------------------------------------------
# Latent kernel


def _gate(n, pairs):
    i = np.array([p[0] for p in pairs])
    j = np.array([p[1] for p in pairs])
    return WeightedGraph.from_pairs(n, i, j, np.ones(len(pairs)))


def _w_latent(desc, gate, params):
    """The latent kernel on the cosines of its gate's pairs."""
    return build_w_latent(desc, gate, params, gate_cosines(desc, gate))


def test_latent_kernel_identical_rows():
    desc = np.array([[1.0, 2.0], [1.0, 2.0]], dtype=np.float32)
    graph = _w_latent(desc, _gate(2, [(0, 1)]), GraphParams())
    _, _, w = coo_edges(graph)
    assert w[0] == pytest.approx(0.33, rel=1e-12)


def test_latent_kernel_drops_nonpositive_cosines():
    desc = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], dtype=np.float32)
    gate = _gate(3, [(0, 1), (0, 2)])
    graph = _w_latent(desc, gate, GraphParams())
    assert graph.n_edges == 0


def test_latent_kernel_respects_gate():
    desc = np.ones((3, 2), dtype=np.float32)
    graph = _w_latent(desc, _gate(3, [(0, 1)]), GraphParams())
    assert edge_set(graph) == {(0, 1)}  # (0, 2) similar but not gated


def test_latent_kernel_scales_cosine():
    desc = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=np.float32)
    graph = _w_latent(desc, _gate(2, [(0, 1)]), GraphParams(gamma=0.5))
    _, _, w = coo_edges(graph)
    assert w[0] == pytest.approx(0.5 / math.sqrt(2.0), rel=1e-12)


def test_latent_kernel_empty_gate_and_zero_rows():
    desc = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    assert _w_latent(desc, _gate(2, []), GraphParams()).n_edges == 0
    # A zero-norm row cannot produce a positive cosine.
    assert _w_latent(desc, _gate(2, [(0, 1)]), GraphParams()).n_edges == 0


def test_latent_kernel_on_a_gate_with_zero_weight_pairs():
    # Five frames of one sequence 111 m apart: on the dist+seq pattern the
    # distance kernel weighs all 9 pairs zero, so as a gate it admits none.
    records = _gps_records([111.0 * k for k in range(5)])
    params = GraphParams(include_latent=False)
    geometry = kernel_geometry(records, None, [params])
    dist = build_w_dist(geometry, params)
    assert dist.weights.size == 9 and dist.n_edges == 0
    x = np.ones((5, 2), dtype=np.float32)
    for gamma in (0.33, 0.0):
        latent = _w_latent(x, dist, GraphParams(gamma=gamma))
        assert latent.structure is dist.structure
        assert latent.weights.size == 9 and latent.n_edges == 0
    # The sequence kernel on the same pattern admits every pair.
    seq = build_w_seq(geometry, params)
    latent = _w_latent(x, seq, GraphParams())
    assert edge_set(latent) == edge_set(seq) and latent.n_edges == 9


def test_latent_kernel_checks_row_count():
    with pytest.raises(InputError, match="2 rows"):
        _w_latent(np.zeros((3, 2), dtype=np.float32), _gate(2, [(0, 1)]),
                  GraphParams())


def test_latent_kernel_needs_cosines_unless_gamma_is_zero():
    desc = np.array([[1.0, 0.0], [1.0, 1.0]])
    gate = _gate(2, [(0, 1)])
    with pytest.raises(InputError, match="kernel_geometry"):
        build_w_latent(desc, gate, GraphParams())
    with pytest.raises(InputError, match="kernel_geometry"):
        build_w_latent(desc, gate, GraphParams(), np.ones(2))
    # At gamma 0 the kernel is zero, and no cosine is read.
    zero = build_w_latent(desc, gate, GraphParams(gamma=0.0))
    assert zero.structure is gate.structure and zero.n_edges == 0


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["overflow", "underflow"])
def test_pair_cosines_of_float64_rows_beyond_the_squares_range(scale):
    # Only float64 rows square beyond float64 or below it, and they are
    # refused.
    x = np.random.default_rng(30).standard_normal((4, 16))
    x[1] *= scale
    with pytest.raises(InputError, match="float32, got float64"):
        pair_cosines(x, np.array([0, 1]), np.array([1, 2]))


def test_operator_of_float64_rows_beyond_the_squares_range():
    # The latent kernel's cosines refuse them, through kernel_geometry.
    records = _gps_records([0.0, 4.0, 8.0])
    x = np.random.default_rng(31).standard_normal((3, 8)) * 2.0 ** 600
    with pytest.raises(InputError, match="float32, got float64"):
        build_operator(records, x, GraphParams())


@pytest.mark.parametrize("scale", [2.0 ** 100, 2.0 ** -100, 2.0 ** -149],
                         ids=["overflow", "underflow", "subnormal"])
def test_pair_cosines_of_rows_whose_squares_leave_float32(scale):
    # Float32 squares of these rows overflow (2^100) or underflow (2^-100,
    # and subnormal entries, whole multiples of 2^-149). pair_cosines
    # scales such rows by a power of two into range, so a power-of-two
    # scale moves no cosine bit.
    x = np.random.default_rng(30).integers(-2 ** 20, 2 ** 20, (4, 16))
    x = x.astype(np.float32)
    i, j = np.array([0, 1]), np.array([1, 2])
    want = pair_cosines(x, i, j)
    assert np.all(np.isfinite(want) & (want != 0.0))
    assert pair_cosines(x * np.float32(scale), i, j).tobytes() == want.tobytes()
    one = x.copy()
    one[1] *= np.float32(scale)
    assert pair_cosines(one, i, j).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [3, 4096, 10000])
def test_pair_cosines_do_not_change_when_rows_are_scaled_by_powers_of_two(dim):
    # Integer rows of magnitude below 2^20 are exact at each scale, from
    # subnormal (2^-149) through rows whose float32 squares underflow
    # (2^-100) and that are left as they are (2^-40, 2^40) to rows whose
    # squares overflow (2^100, 2^107). Row 5 is zero.
    rng = np.random.default_rng(dim)
    x = rng.integers(-2 ** 20, 2 ** 20, (12, dim)).astype(np.float32)
    x[5] = 0.0
    i = np.repeat(np.arange(12), 4)
    j = rng.integers(0, 12, i.size)
    want = pair_cosines(x, i, j)
    assert np.count_nonzero(want) > 30
    exponents = np.array([-149, -140, -100, -40, 0, 40, 100, 107])
    for trial in range(3):
        scaled = np.ldexp(x, rng.choice(exponents, 12)[:, None].astype(np.int32))
        assert pair_cosines(scaled, i, j).tobytes() == want.tobytes()


def _cosine_bound(dim: int) -> float:
    """How far pair_cosines and the float64 pair-by-pair route
    (``oracles.chunked_pair_cosines``) may lie apart. With u = 2^-24,
    g = d u / (1 - d u), u64 = 2^-53 and g64 = d u64 / (1 - d u64), the
    float32 dot product is off by at most (g + d 2^-85) of the norms'
    product (the pair_cosines docstring), and the float64 dot product of
    the exact float64 products by g64. Each route's float64 norms, their
    product and the division cost at most (1 + g64) (1 + u64)^4 - 1 more,
    relative, so e64 = (1 + g64)^2 (1 + u64)^4 - 1 bounds the float64
    route, and (1 + g + d 2^-85) (1 + e64) - 1 the float32 one; a cosine is
    at most 1. 1 + 2^-40 covers the rounding of this sum."""
    u, u64 = 2.0 ** -24, 2.0 ** -53
    g = dim * u / (1 - dim * u)
    g64 = dim * u64 / (1 - dim * u64)
    e64 = (1 + g64) ** 2 * (1 + u64) ** 4 - 1
    return ((1 + g + dim * 2.0 ** -85) * (1 + e64) - 1 + e64) * (1 + 2.0 ** -40)


@pytest.mark.parametrize("dim", [1, 17, 256, 4096, 10000])
def test_pair_cosines_are_within_their_bound_of_float64_cosines(dim):
    # Normal rows, and rows scaled past float32's squares (2^100, 2^-100)
    # or into its subnormals (1e-40), against float64 dot products of the
    # same float32 rows.
    rng = np.random.default_rng(dim + 1)
    x = rng.standard_normal((24, dim))
    x[[3, 4]] *= 2.0 ** 100
    x[[5, 6]] *= 2.0 ** -100
    x[[7, 8]] *= 1e-40
    x = x.astype(np.float32)
    i = np.repeat(np.arange(24), 6)
    j = rng.integers(0, 24, i.size)
    got = pair_cosines(x, i, j)
    want = chunked_pair_cosines(x, i, j)
    assert np.abs(got - want).max() <= _cosine_bound(dim)
    if dim > 1:
        assert not np.array_equal(got, want)  # the float32 route was taken


def test_operator_of_rows_whose_squares_leave_float32():
    rng = np.random.default_rng(31)
    records = [ImageRecord(f"i{k}", f"s{k % 3}", k // 3, lat, 0.0)
               for k, lat in enumerate(rng.uniform(0.0, 2e-4, 30))]
    x = rng.standard_normal((30, 8)).astype(np.float32)
    want = build_operator(records, x, GraphParams()).matrix
    got = build_operator(records, x * np.float32(2.0 ** 100),
                         GraphParams()).matrix
    assert want.nnz > 30
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


@pytest.mark.parametrize("params", [
    GraphParams(alpha=1000.0, decay_sign="positive"),  # exp(4000) overflows
    GraphParams(alpha=1000.0),                         # exp(-4000) underflows
    GraphParams(gamma=5e-324),                         # gamma * 0.3 underflows
], ids=["exp-overflow", "exp-underflow", "latent-underflow"])
def test_weights_that_overflow_or_underflow_are_rejected(params):
    # Two frames of one sequence 4 m apart, with a cosine of 0.3.
    records = _gps_records([0.0, 4.0])
    desc = np.array([[1.0, 0.0], [0.3, math.sqrt(1.0 - 0.09)]], dtype=np.float32)
    geometry = kernel_geometry(records, desc, [params, GraphParams()])
    # The verbatim oracle's exp warns on overflow before it refuses.
    with np.errstate(over="ignore"), \
            pytest.raises(InputError, match="positive and finite"):
        reference_operator(records, desc, params)
    # The library's builds refuse the weights without a numpy warning.
    for build in (lambda: build_operator(records, desc, params),
                  lambda: build_operator(records, desc, params, geometry)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InputError, match="positive and finite"):
                build()


# ---------------------------------------------------------------------------
# Combination and the weight-graph container


def test_combine_sums_overlapping_edges():
    records = _gps_records([0.0, 4.0])
    params = GraphParams(include_latent=False)
    geometry = kernel_geometry(records, None, [params])
    dist = build_w_dist(geometry, params)
    seq = build_w_seq(geometry, params)
    total = combine([dist, seq])
    _, _, w = coo_edges(total)
    assert w[0] == pytest.approx(0.75 + math.exp(-1.0), rel=1e-12)


def test_combine_union_of_disjoint_edges():
    structure = _gate(4, [(0, 1), (2, 3)]).structure
    a = WeightedGraph(structure, np.array([1.0, 0.0]))
    b = WeightedGraph(structure, np.array([0.0, 2.0]))
    assert edge_set(a) == {(0, 1)} and edge_set(b) == {(2, 3)}
    assert edge_set(combine([a, b])) == {(0, 1), (2, 3)}
    # Graphs on different structures are refused.
    with pytest.raises(InputError, match="one pair structure"):
        combine([_gate(4, [(0, 1)]), _gate(4, [(2, 3)])])
    # So are equal structures made apart: each kernel built on a geometry
    # of its own gets a structure of its own.
    records = _gps_records([0.0, 4.0])
    with pytest.raises(InputError, match="one pair structure"):
        combine([_w_dist(records, GraphParams()),
                 _w_seq(records, GraphParams())])


def test_combine_scales_a_sum_that_overflows():
    structure = _gate(3, [(0, 1), (1, 2)]).structure
    top = np.finfo(np.float64).max
    parts = [WeightedGraph(structure, np.array(w))
             for w in ([1.7e308, 1.0], [1e308, 3.0], [top, 2.0 ** -1070])]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = combine(parts[:2])
        three = combine(parts)
        fits = combine([parts[1], WeightedGraph(structure, np.array([1e300, 1.0]))])
    # Each part is scaled by 2^-2, exactly, before the sum; a subnormal
    # weight may round.
    assert pair.weights.tolist() == [1.7e308 / 4 + 1e308 / 4, 0.25 + 0.75]
    assert three.weights.tolist() == [1.7e308 / 4 + 1e308 / 4 + top / 4,
                                      0.25 + 0.75 + 2.0 ** -1072]
    # A sum that fits is not scaled.
    assert fits.weights.tolist() == [1e308 + 1e300, 4.0]


def test_operator_of_kernels_whose_sum_overflows():
    # Five frames of one sequence 24.9 m apart under the growing kernel:
    # each distance weight is exp(28.5 * 24.9), about 1.7e308, and the
    # sequence weight 1e308 beside it overflows their sum; gamma 1e308
    # makes the latent weights as large. A is the exact ratios of W.
    records = _gps_records([24.9 * k for k in range(5)])
    desc = np.random.default_rng(3).standard_normal((5, 8)).astype(np.float32)
    for gamma, latent in ((0.33, False), (1e308, True)):
        params = GraphParams(alpha=28.5, decay_sign="positive", betas=(1e308,),
                             gamma=gamma, include_latent=latent)
        geometry = kernel_geometry(records, desc, [params])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = build_operator(records, desc, params, geometry).matrix.toarray()
        # W / 1e308 by hand, each pair's weight in exact arithmetic.
        w = np.zeros((5, 5))
        for k in range(4):
            cos = pair_cosines(desc, np.array([k]), np.array([k + 1]))[0]
            w[k, k + 1] = w[k + 1, k] = (math.exp(28.5 * 24.9 - math.log(1e308))
                                         + 1.0 + latent * max(cos, 0.0))
        want = w / w.sum(axis=1, keepdims=True)
        assert np.all(np.isfinite(got))
        assert np.abs(got - want).max() <= 1e-12


def test_save_operator_refuses_what_load_operator_refuses(tmp_path):
    op = _sample_operator()
    for data, fault in ((np.nan, "finite and nonnegative"),
                        (-0.5, "finite and nonnegative"),
                        (0.75, "do not sum to 1")):
        bad = op.matrix.copy()
        bad.data[0] = data
        path = tmp_path / "bad.adj1"
        with pytest.raises(RuntimeError, match=f"bad.adj1: not written, .*{fault}"):
            save_operator(path, SmoothingOperator(bad, op.isolated_vertices))
        assert not path.exists()


def test_combine_rejects_mismatched_sizes():
    with pytest.raises(InputError, match="one pair structure"):
        combine([WeightedGraph.empty(3), WeightedGraph.empty(4)])
    with pytest.raises(InputError, match="at least one"):
        combine([])


def test_weight_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(37)
    graph, _ = random_weighted_graph(rng, 40, density=0.2)
    diff = graph.matrix - graph.matrix.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0


def test_from_pairs_validation():
    one = np.array([1.0])
    with pytest.raises(InputError, match="self edges"):
        WeightedGraph.from_pairs(3, np.array([1]), np.array([1]), one)
    with pytest.raises(InputError, match="out of range"):
        WeightedGraph.from_pairs(3, np.array([0]), np.array([3]), one)
    with pytest.raises(InputError, match="positive"):
        WeightedGraph.from_pairs(3, np.array([0]), np.array([1]),
                                 np.array([0.0]))
    with pytest.raises(InputError, match="positive"):
        WeightedGraph.from_pairs(3, np.array([0]), np.array([1]),
                                 np.array([np.nan]))
    with pytest.raises(InputError, match="duplicate"):
        WeightedGraph.from_pairs(3, np.array([0, 1]), np.array([1, 0]),
                                 np.array([1.0, 2.0]))
    with pytest.raises(InputError, match="duplicate"):
        WeightedGraph.from_pairs(3, np.array([0, 0]), np.array([1, 1]),
                                 np.array([1.0, 2.0]))
    # A duplicate among distinct pairs is found too, in either orientation.
    with pytest.raises(InputError, match="duplicate"):
        WeightedGraph.from_pairs(4, np.array([0, 1, 2, 3]), np.array([1, 2, 3, 2]),
                                 np.array([1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(InputError, match="equal length"):
        WeightedGraph.from_pairs(3, np.array([0]), np.array([1, 2]), one)


def test_edges_returns_sorted_upper_triangle():
    # Pairs given in arbitrary order and orientation.
    graph = WeightedGraph.from_pairs(
        4, np.array([3, 2, 1]), np.array([1, 0, 2]),
        np.array([1.0, 2.0, 3.0]))
    i, j, w = coo_edges(graph)
    assert i.tolist() == [0, 1, 1]
    assert j.tolist() == [2, 2, 3]
    assert w.tolist() == [2.0, 3.0, 1.0]
    assert edge_set(graph) == {(0, 2), (1, 2), (1, 3)}
    assert graph.n_edges == 3


# ---------------------------------------------------------------------------
# Normalization


def test_normalize_path_graph_rows():
    w = _gate(3, [(0, 1), (1, 2)])
    op = normalize(w, GraphParams())
    expected = np.array([[0.0, 1.0, 0.0],
                         [0.5, 0.0, 0.5],
                         [0.0, 1.0, 0.0]])
    assert np.array_equal(op.matrix.toarray(), expected)
    assert op.isolated_vertices.size == 0


def test_normalize_weighted_rows():
    w = WeightedGraph.from_pairs(3, np.array([0, 1]), np.array([1, 2]),
                                 np.array([1.0, 3.0]))
    op = normalize(w, GraphParams())
    assert np.array_equal(op.matrix.toarray()[1], [0.25, 0.0, 0.75])


def test_normalize_isolated_vertex_gets_identity_row():
    w = _gate(3, [(0, 1)])
    op = normalize(w, GraphParams())
    assert op.isolated_vertices.tolist() == [2]
    assert np.array_equal(op.matrix.toarray()[2], [0.0, 0.0, 1.0])
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert sums == pytest.approx(np.ones(3), abs=1e-15)


def test_normalize_self_edges_two_vertex_example():
    w = _gate(2, [(0, 1)])
    op = normalize(w, GraphParams(include_self_edges=True))
    assert np.array_equal(op.matrix.toarray(), np.full((2, 2), 0.5))


def test_normalize_self_edges_still_reports_isolated():
    w = _gate(2, [])
    op = normalize(w, GraphParams(include_self_edges=True))
    assert op.isolated_vertices.tolist() == [0, 1]
    assert np.array_equal(op.matrix.toarray(), np.eye(2))


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        n_isolated = int(rng.integers(0, max(1, n // 4)))
        self_edges = bool(rng.integers(0, 2))
        graph, dense = random_weighted_graph(rng, n, density=0.15,
                                             n_isolated=n_isolated)
        op = normalize(graph, GraphParams(include_self_edges=self_edges))
        want, isolated = dense_normalize(dense, self_edges)
        assert np.allclose(op.matrix.toarray(), want, atol=1e-12)
        assert op.isolated_vertices.tolist() == isolated
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_operator_eigenvalues_within_unit_interval():
    rng = np.random.default_rng(43)
    for trial in range(10):
        n = int(rng.integers(2, 40))
        graph, _ = random_weighted_graph(rng, n, density=0.2,
                                         n_isolated=int(rng.integers(0, 2)))
        op = normalize(graph, GraphParams())
        eigs = np.linalg.eigvals(op.matrix.toarray())
        assert np.max(np.abs(eigs.imag)) < 1e-8
        assert eigs.real.min() >= -1.0 - 1e-9
        assert eigs.real.max() <= 1.0 + 1e-9


def test_bipartite_pair_hits_minus_one_without_self_edges():
    w = _gate(2, [(0, 1)])
    eigs = np.sort(np.linalg.eigvals(
        normalize(w, GraphParams()).matrix.toarray()).real)
    assert eigs == pytest.approx([-1.0, 1.0], abs=1e-12)
    eigs = np.sort(np.linalg.eigvals(
        normalize(w, GraphParams(include_self_edges=True)).matrix.toarray()).real)
    assert eigs == pytest.approx([0.0, 1.0], abs=1e-12)


def _rows(mat, rows):
    return [(mat.indices[mat.indptr[r]:mat.indptr[r + 1]].tolist(),
             mat.data[mat.indptr[r]:mat.indptr[r + 1]].tobytes()) for r in rows]


def test_an_edgeless_vertex_changes_no_other_row():
    # Row 0 scales its 5e-324 weight to 0.0, and keeps it stored whether or
    # not some other vertex has an identity row.
    star = (np.zeros(4, dtype=np.int64), np.arange(1, 5), np.array([5e-324, 1, 1, 1]))
    alone, beside = (normalize(WeightedGraph.from_pairs(n, *star), GraphParams())
                     for n in (5, 6))
    assert beside.isolated_vertices.tolist() == [5]
    assert _rows(alone.matrix, range(5)) == _rows(beside.matrix, range(5))
    assert _rows(alone.matrix, [0])[0][0] == [1, 2, 3, 4]


@pytest.mark.parametrize("self_edges", [False, True])
@pytest.mark.parametrize("weight", [
    1e-313,   # each degree is subnormal: its reciprocal overflows to inf
    1.7e308,  # a middle vertex's degree overflows to inf: its reciprocal is 0
])
def test_rows_sum_to_1_at_an_extreme_degree(weight, self_edges):
    path = WeightedGraph.from_pairs(5, np.arange(4), np.arange(1, 5), np.full(4, weight))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        op = normalize(path, GraphParams(include_self_edges=self_edges))
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert np.abs(sums - 1.0).max() <= 1e-9
    assert np.all(op.matrix.data >= 0.0)
    # Each middle vertex's two edges are equal, so it gives each half.
    middle = op.matrix.toarray()[1:4]
    assert np.array_equal(middle[:, :3].diagonal(), middle[:, 2:].diagonal())


def test_rows_with_a_finite_reciprocal_degree_keep_their_bits():
    # Vertices 0-29 are a random graph; 30-34 a path whose weights are
    # subnormal. The random rows are bitwise those of the route the library
    # took before extreme degrees were handled.
    graph, _ = random_weighted_graph(np.random.default_rng(59), 30, density=0.3)
    i, j, w = coo_edges(graph)
    i, j, w = (np.concatenate(parts) for parts in (
        (i, 30 + np.arange(4)), (j, 31 + np.arange(4)), (w, np.full(4, 1e-313))))
    both = WeightedGraph.from_pairs(35, i, j, w)
    for self_edges in (False, True):
        params = GraphParams(include_self_edges=self_edges)
        want = copying_normalize(graph, params).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = normalize(both, params).matrix
        assert _rows(got, range(30)) == _rows(want, range(30))
        assert np.abs(np.asarray(got.sum(axis=1)).ravel() - 1.0).max() <= 1e-9


# ---------------------------------------------------------------------------
# Assembly


def _default_records():
    return [
        ImageRecord("s0", "a", 0, 0.0, 0.0),
        ImageRecord("s1", "a", 1, 4.0 / METERS_PER_DEGREE, 0.0),
        ImageRecord("s2", "a", 2, 8.0 / METERS_PER_DEGREE, 0.0),
        ImageRecord("s3", "b", 0, 1.0, 1.0),
    ]


def test_build_graph_all_kernels_off_gives_identity_operator():
    params = GraphParams(include_dist=False, include_seq=False,
                         include_latent=False)
    records = _default_records()
    op = build_operator(records, None, params)
    assert np.array_equal(op.matrix.toarray(), np.eye(4))
    assert op.isolated_vertices.tolist() == [0, 1, 2, 3]


def test_build_graph_latent_only_has_empty_gate():
    params = GraphParams(include_dist=False, include_seq=False)
    desc = np.tile(np.array([1.0, 0.5]), (4, 1)).astype(np.float32)
    w = build_graph(_default_records(), desc, params)
    assert w.n_edges == 0


def test_build_graph_latent_requires_descriptors():
    with pytest.raises(InputError, match="2-D with 4 rows"):
        build_graph(_default_records(), None, GraphParams())
    with pytest.raises(InputError, match="rows"):
        build_graph(_default_records(), np.zeros((2, 2)), GraphParams())


def test_kernels_refuse_a_geometry_without_their_gate():
    records = _gps_records([0.0, 4.0])
    desc = np.ones((2, 2), dtype=np.float32)
    geometry = kernel_geometry(records, desc, [GraphParams()])
    # Another radius, another number of betas, or the same radius with the
    # sequence kernel off is another gate.
    for params, gate in ((GraphParams(max_distance_m=40.0), "radius 40.0 and 3"),
                         (GraphParams(betas=(0.5,)), "radius 25.0 and 1"),
                         (GraphParams(include_seq=False), "radius 25.0 and None")):
        for build in (build_w_dist, build_w_seq,
                      lambda g, p: build_operator(records, desc, p, g)):
            with pytest.raises(InputError, match=f"no gate pattern for {gate} gaps"):
                build(geometry, params)
    # A cell with no structural kernel on has no gate: its graph is empty,
    # and neither structural kernel takes it.
    off = GraphParams(include_dist=False, include_seq=False)
    for build in (build_w_dist, build_w_seq):
        with pytest.raises(InputError,
                           match="no gate pattern for radius None and None gaps"):
            build(geometry, off)


def test_cells_on_one_geometry_equal_their_builds_alone():
    # Two sequences 10 m and 25 m between frames, and a lone fix far away,
    # so that every smaller gate leaves out pairs of the geometry's union.
    records = (_gps_records([10.0 * k for k in range(6)], "a")
               + _gps_records([3.0 + 25.0 * k for k in range(5)], "b")
               + _gps_records([5000.0], "c"))
    desc = np.random.default_rng(53).standard_normal((len(records), 6),
                                                     dtype=np.float32)
    cells = [GraphParams(max_distance_m=15.0),
             GraphParams(max_distance_m=40.0, gamma=0.0),
             GraphParams(max_distance_m=40.0, include_seq=False),
             GraphParams(include_dist=False, betas=(0.5, 0.25)),
             GraphParams(include_dist=False, include_seq=False)]
    geometry = kernel_geometry(records, desc, cells)
    entries = geometry.structure.indices.size
    filled = []
    for cell in cells:
        got = build_operator(records, desc, cell, geometry)
        want = build_operator(records, desc, cell)
        assert got.matrix.shape == want.matrix.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got.matrix, name), getattr(want.matrix, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got.isolated_vertices.dtype == want.isolated_vertices.dtype
        assert np.array_equal(got.isolated_vertices, want.isolated_vertices)
        filled.append(got.matrix.nnz - got.isolated_vertices.size == entries)
    # Only the 40 m, 3-gap gate is the union of all gates; every other cell's
    # build drops the zero weights outside its gate.
    assert filled == [False, True, False, False, False]


def test_build_operator_full_default_build():
    rng = np.random.default_rng(47)
    desc = rng.standard_normal((4, 8)).astype(np.float32)
    op = build_operator(_default_records(), desc, GraphParams())
    sums = np.asarray(op.matrix.sum(axis=1)).ravel()
    assert sums == pytest.approx(np.ones(4), abs=1e-12)
    # s3 sits a degree away with its own sequence: no edges at all.
    assert op.isolated_vertices.tolist() == [3]


# ---------------------------------------------------------------------------
# ADJ1 persistence


def _sample_operator():
    records = _default_records()
    rng = np.random.default_rng(53)
    desc = rng.standard_normal((4, 8)).astype(np.float32)
    return build_operator(records, desc, GraphParams())


def test_adj1_round_trip_bitwise(tmp_path):
    op = _sample_operator()
    path = tmp_path / "op.adj1"
    save_operator(path, op)
    loaded = load_operator(path)
    assert np.array_equal(loaded.matrix.indptr, op.matrix.indptr)
    assert np.array_equal(loaded.matrix.indices, op.matrix.indices)
    assert np.array_equal(loaded.matrix.data, op.matrix.data)
    assert loaded.isolated_vertices.tolist() == op.isolated_vertices.tolist()


def test_save_operator_leaves_unsorted_rows_as_given(tmp_path):
    # Row 0 stores its columns as [1, 0].
    given = sparse.csr_matrix((np.array([0.25, 0.75, 1.0]), np.array([1, 0, 1]),
                               np.array([0, 2, 3])), shape=(2, 2))
    save_operator(tmp_path / "op.adj1",
                  SmoothingOperator(given, np.empty(0, dtype=np.int64)))
    assert given.indices.tolist() == [1, 0, 1]
    assert given.data.tolist() == [0.25, 0.75, 1.0]
    ordered = sparse.csr_matrix((np.array([0.75, 0.25, 1.0]), np.array([0, 1, 1]),
                                 np.array([0, 2, 3])), shape=(2, 2))
    save_operator(tmp_path / "sorted.adj1",
                  SmoothingOperator(ordered, np.empty(0, dtype=np.int64)))
    assert ((tmp_path / "op.adj1").read_bytes()
            == (tmp_path / "sorted.adj1").read_bytes())


def test_adj1_single_offdiagonal_rows_are_not_isolated(tmp_path):
    # A path pair has single-entry rows with value 1.0 off the diagonal;
    # reload must not mistake them for isolated vertices.
    op = normalize(_gate(2, [(0, 1)]), GraphParams())
    path = tmp_path / "op.adj1"
    save_operator(path, op)
    assert load_operator(path).isolated_vertices.size == 0


def test_adj1_rejects_corruption(tmp_path):
    op = _sample_operator()
    path = tmp_path / "op.adj1"
    save_operator(path, op)
    blob = bytearray(path.read_bytes())
    n = op.n
    nnz = op.matrix.nnz
    header = struct.calcsize("<4sIQ")
    indptr_off = header
    indices_off = indptr_off + (n + 1) * 8
    values_off = indices_off + nnz * 4
    bad = tmp_path / "bad.adj1"

    bad.write_bytes(b"XDJ1" + bytes(blob[4:]))
    with pytest.raises(InputError, match="bad magic"):
        load_operator(bad)

    bad.write_bytes(bytes(blob[:8]))
    with pytest.raises(InputError, match="too short"):
        load_operator(bad)

    bad.write_bytes(bytes(blob[:-8]))
    with pytest.raises(InputError, match="payload"):
        load_operator(bad)

    # A header alone that promises a huge operator: rejected before any read.
    bad.write_bytes(struct.pack("<4sIQ", b"ADJ1", 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF))
    with pytest.raises(InputError, match=r"bad\.adj1: payload is 0 bytes"):
        load_operator(bad)

    mutated = bytearray(blob)
    mutated[values_off:values_off + 8] = struct.pack("<d", -0.5)
    bad.write_bytes(bytes(mutated))
    with pytest.raises(InputError, match="nonnegative"):
        load_operator(bad)

    first_value = struct.unpack_from("<d", blob, values_off)[0]
    mutated = bytearray(blob)
    mutated[values_off:values_off + 8] = struct.pack("<d", first_value + 0.5)
    bad.write_bytes(bytes(mutated))
    with pytest.raises(InputError, match="sum to 1"):
        load_operator(bad)

    mutated = bytearray(blob)
    mutated[indices_off:indices_off + 4] = struct.pack("<I", n + 5)
    bad.write_bytes(bytes(mutated))
    with pytest.raises(InputError, match="column index"):
        load_operator(bad)

    mutated = bytearray(blob)
    mutated[indptr_off + n * 8:indptr_off + (n + 1) * 8] = struct.pack("<Q", nnz + 1)
    bad.write_bytes(bytes(mutated))
    with pytest.raises(InputError, match="row offsets"):
        load_operator(bad)
