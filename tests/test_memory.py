"""Memory bounds of the run path: the EMB1 loader, retrieval, normalization
and smoothing stay within their documented block budgets, measured with
tracemalloc, which sees numpy's buffers."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

import gsloc.features as features_mod
import gsloc.smoothing as smoothing_mod
from gsloc.dataset import load_descriptors, write_descriptors
from gsloc.features import l2_normalize
from gsloc.graph import SmoothingOperator
from gsloc.retrieval import cosine_knn
from gsloc.smoothing import SmoothConfig, smooth

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


def test_load_descriptors_reads_straight_into_the_array(tmp_path, support):
    path = tmp_path / "support.emb1"
    write_descriptors(path, support)
    loaded, peak = _peak_bytes(load_descriptors, path, N_SUPPORT)
    assert np.array_equal(loaded, support)
    # The array itself, plus the one-byte-per-value finiteness mask.
    assert peak <= support.nbytes + support.size + SLACK


def test_cosine_knn_never_copies_the_support(support):
    queries = support[::100].copy()
    matches, peak = _peak_bytes(cosine_knn, queries, support, 1)
    assert [m.neighbors[0][0] for m in matches] == list(range(0, N_SUPPORT, 100))
    assert peak < support.nbytes


def test_l2_normalize_stays_within_its_block_budget(support):
    out, peak = _peak_bytes(l2_normalize, support)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)
    assert peak <= out.nbytes + 2 * features_mod._NORM_BLOCK_BYTES + SLACK


def test_smooth_stays_within_its_block_budget(support):
    # A ring: every vertex averages its two neighbours.
    n = N_SUPPORT
    rows = np.repeat(np.arange(n), 2)
    cols = np.stack([(np.arange(n) - 1) % n, (np.arange(n) + 1) % n], axis=1).ravel()
    matrix = sparse.csr_matrix((np.full(2 * n, 0.5), (rows, cols)), shape=(n, n))
    op = SmoothingOperator(matrix=matrix, isolated_vertices=np.empty(0, np.int64))
    out, peak = _peak_bytes(smooth, op, support, SmoothConfig(m=2))
    x = support.astype(np.float64)
    want = 0.25 * x[(np.arange(n) - 2) % n] + 0.5 * x + 0.25 * x[(np.arange(n) + 2) % n]
    assert np.allclose(out, want, atol=1e-6)
    # The budget covers the float64 input block and product block together.
    assert peak <= out.nbytes + smoothing_mod._BLOCK_BUDGET_BYTES + SLACK
