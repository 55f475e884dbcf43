"""The binary formats' bytes, pinned against references packed by hand from
README's "Data formats" layout, and the one reader's buffer handling.

The writers and the loaders share ``gsloc.codec``, so a round trip cannot
see a change of layout; the byte references here do not use the codec."""

from __future__ import annotations

import struct

import numpy as np
import pytest
from scipy import sparse

from gsloc.dataset import load_descriptors, write_descriptors
from gsloc.errors import InputError
from gsloc.features import Projection, save_projection
from gsloc.graph import SmoothingOperator, save_operator


def _emb1(path, rng):
    # float64 rows: the writer rounds them to float32.
    data = rng.standard_normal((3, 5))
    write_descriptors(path, data)
    return (struct.pack("<4sII", b"EMB1", 3, 5)
            + data.astype("<f4").tobytes(order="C"))


def _prj1(path, rng):
    mean = rng.standard_normal(5)
    basis, _ = np.linalg.qr(rng.standard_normal((5, 3)))
    scale = rng.uniform(0.5, 2.0, 3)
    save_projection(path, Projection(mean=mean, basis=basis, scale=scale))
    return (struct.pack("<4sII", b"PRJ1", 5, 3) + mean.astype("<f4").tobytes()
            + basis.astype("<f4").tobytes(order="F")
            + scale.astype("<f4").tobytes())


def _adj1(path, rng):
    dense = np.array([[0.5, 0.5, 0.0, 0.0],
                      [0.25, 0.0, 0.75, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.3, 0.0, 0.7]])
    matrix = sparse.csr_matrix(dense)
    save_operator(path, SmoothingOperator(matrix=matrix,
                                          isolated_vertices=np.array([2])))
    return (struct.pack("<4sIQ", b"ADJ1", 4, 7)
            + matrix.indptr.astype("<u8").tobytes()
            + matrix.indices.astype("<u4").tobytes()
            + matrix.data.astype("<f8").tobytes())


@pytest.mark.parametrize("write", [_emb1, _prj1, _adj1],
                         ids=["emb1", "prj1", "adj1"])
def test_each_writer_lays_out_the_documented_bytes(tmp_path, write):
    path = tmp_path / "artifact"
    reference = write(path, np.random.default_rng(22))
    assert path.read_bytes() == reference


def test_a_refused_read_leaves_the_buffer_untouched(tmp_path):
    path = tmp_path / "d.emb1"
    write_descriptors(path, np.ones((3, 4), dtype=np.float32))
    for buffer in (np.zeros((3, 4), dtype=np.float64),
                   np.zeros((4, 3), dtype=np.float32),
                   np.zeros((4, 3), dtype=np.float32).T):
        with pytest.raises(InputError, match=r"d\.emb1: cannot read"):
            load_descriptors(path, expected_rows=3, out=buffer)
        assert not buffer.any()
    # The header check refuses before the payload is read.
    buffer = np.zeros((3, 4), dtype=np.float32)
    with pytest.raises(InputError, match="3 descriptor rows, expected 2"):
        load_descriptors(path, expected_rows=2, out=buffer)
    assert not buffer.any()

