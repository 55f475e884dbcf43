"""Smoothing operator application: identity at m = 0, dense-oracle agreement,
linearity, range contraction, constant preservation, composability, and
block-layout invariance."""

from __future__ import annotations

import numpy as np
import pytest

import gsloc.smoothing as smoothing_mod
from gsloc.errors import InputError
from gsloc.graph import (GraphParams, SmoothingOperator, WeightedGraph,
                         normalize)
from gsloc.smoothing import SmoothConfig, smooth
from oracles import random_weighted_graph, smooth_dense_oracle


def _random_operator(rng, n_max=80, self_edges=False):
    n = int(rng.integers(2, n_max))
    graph, _ = random_weighted_graph(rng, n, density=0.15,
                                     n_isolated=int(rng.integers(0, 3)))
    return normalize(graph, GraphParams(include_self_edges=self_edges))


def test_m_zero_returns_the_input_as_is():
    rng = np.random.default_rng(2)
    op = _random_operator(rng)
    signal = rng.standard_normal((op.n, 5)).astype(np.float32)
    out = smooth(op, signal, SmoothConfig(m=0))
    assert out is signal


def test_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for trial in range(12):
        op = _random_operator(rng, n_max=120)
        signal = rng.standard_normal((op.n, int(rng.integers(1, 32))))
        for m in (1, 2, 3):
            got = smooth(op, signal, SmoothConfig(m=m))
            want = smooth_dense_oracle(op, signal, SmoothConfig(m=m))
            scale = max(np.linalg.norm(want), 1e-30)
            assert np.linalg.norm(got - want) / scale < 1e-12


def test_linearity():
    rng = np.random.default_rng(5)
    op = _random_operator(rng)
    cfg = SmoothConfig(m=2)
    s1 = rng.standard_normal((op.n, 6))
    s2 = rng.standard_normal((op.n, 6))
    a, b = 1.7, -0.3
    combined = smooth(op, a * s1 + b * s2, cfg)
    separate = a * smooth(op, s1, cfg) + b * smooth(op, s2, cfg)
    assert np.allclose(combined, separate, atol=1e-10)


def test_range_contraction_per_column():
    rng = np.random.default_rng(7)
    for trial in range(20):
        op = _random_operator(rng)
        signal = rng.uniform(-5, 5, (op.n, 4))
        out = smooth(op, signal, SmoothConfig(m=int(rng.integers(1, 5))))
        assert np.all(out.min(axis=0) >= signal.min(axis=0) - 1e-12)
        assert np.all(out.max(axis=0) <= signal.max(axis=0) + 1e-12)


def test_constant_columns_are_fixed_points():
    rng = np.random.default_rng(9)
    for trial in range(10):
        op = _random_operator(rng)
        values = rng.uniform(-10, 10, 3)
        signal = np.tile(values, (op.n, 1))
        out = smooth(op, signal, SmoothConfig(m=3))
        assert np.max(np.abs(out - signal)) < 1e-12


def test_composability_is_exact_in_float64():
    rng = np.random.default_rng(11)
    op = _random_operator(rng)
    signal = rng.standard_normal((op.n, 4))
    direct = smooth(op, signal, SmoothConfig(m=3))
    staged = smooth(op, smooth(op, signal, SmoothConfig(m=2)), SmoothConfig(m=1))
    # float64 signals take the same multiply chain either way.
    assert np.array_equal(direct, staged)


def test_repeated_smoothing_approaches_consensus():
    # A triangle is connected and non-bipartite, so A^m converges; columns
    # flatten toward a constant.
    graph = WeightedGraph.from_pairs(3, np.array([0, 1, 2]),
                                     np.array([1, 2, 0]), np.ones(3))
    op = normalize(graph, GraphParams())
    rng = np.random.default_rng(13)
    signal = rng.standard_normal((3, 5))
    out = smooth(op, signal, SmoothConfig(m=400))
    assert np.max(out.std(axis=0)) < 1e-6 * max(np.max(signal.std(axis=0)), 1.0)


def test_two_vertex_worked_example():
    graph = WeightedGraph.from_pairs(2, np.array([0]), np.array([1]),
                                     np.array([1.0]))
    op = normalize(graph, GraphParams(include_self_edges=True))
    out = smooth(op, np.array([[0.0], [2.0]]), SmoothConfig(m=1))
    assert np.array_equal(out, np.array([[1.0], [1.0]]))


def test_column_blocking_does_not_change_values(monkeypatch):
    rng = np.random.default_rng(17)
    op = _random_operator(rng)
    signal = rng.standard_normal((op.n, 150)).astype(np.float32)
    whole = smooth(op, signal, SmoothConfig(m=2))
    # The narrowest blocks: 64, 64 and 22 columns.
    monkeypatch.setattr(smoothing_mod, "_BLOCK_BUDGET_BYTES", 1)
    blocked = smooth(op, signal, SmoothConfig(m=2))
    assert np.array_equal(whole, blocked)


class _RecordingMatrix:
    """A sparse matrix that records the width of each block it multiplies."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.widths = matrix, matrix.shape, []

    def __matmul__(self, block):
        self.widths.append(block.shape[1])
        return self.matrix @ block


def test_blocks_are_at_least_64_columns_wide(monkeypatch):
    # A budget whose byte rule gives 16 columns still makes 64-column
    # blocks, and their bits are those of one unblocked product.
    rng = np.random.default_rng(29)
    op = _random_operator(rng)
    signal = rng.standard_normal((op.n, 150)).astype(np.float32)
    monkeypatch.setattr(smoothing_mod, "_BLOCK_BUDGET_BYTES", 2 * 8 * op.n * 16)
    recording = _RecordingMatrix(op.matrix)
    got = smooth(SmoothingOperator(recording, op.isolated_vertices), signal,
                 SmoothConfig(m=2))
    assert recording.widths == [64, 64, 64, 64, 22, 22]
    want = op.matrix @ (op.matrix @ signal.astype(np.float64))
    assert got.tobytes() == want.astype(np.float32).tobytes()


def test_output_dtype_follows_input():
    rng = np.random.default_rng(19)
    op = _random_operator(rng)
    for dtype in (np.float32, np.float64):
        signal = rng.standard_normal((op.n, 3)).astype(dtype)
        assert smooth(op, signal, SmoothConfig(m=1)).dtype == dtype


def test_shape_and_config_validation():
    rng = np.random.default_rng(23)
    op = _random_operator(rng)
    with pytest.raises(InputError, match="2-D"):
        smooth(op, np.zeros(op.n), SmoothConfig(m=1))
    with pytest.raises(InputError, match="rows"):
        smooth(op, np.zeros((op.n + 1, 2)), SmoothConfig(m=1))
    with pytest.raises(InputError, match="nonnegative"):
        SmoothConfig(m=-1)


def test_an_out_of_another_shape_is_refused():
    rng = np.random.default_rng(29)
    op = _random_operator(rng)
    signal = rng.standard_normal((op.n, 3))
    out = np.full((op.n, 2), 7.0)
    with pytest.raises(InputError,
                       match=rf"out has shape \({op.n}, 2\), signal \({op.n}, 3\)"):
        smooth(op, signal, SmoothConfig(m=1), out=out)
    assert np.all(out == 7.0)


def test_dense_oracle_refuses_large_operators():
    op = normalize(WeightedGraph.empty(2001), GraphParams())
    with pytest.raises(InputError, match="refuses"):
        smooth_dense_oracle(op, np.zeros((2001, 1)), SmoothConfig(m=1))
