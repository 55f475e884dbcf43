"""Metadata CSV and EMB1 descriptor file round trips, input validation with
line context, reachability filtering of the query split, and the float32
descriptor check at every place descriptors enter."""

from __future__ import annotations

import struct

import numpy as np
import pytest

import gsloc.dataset as dataset_mod
from gsloc.dataset import (Dataset, ImageRecord, filter_reachable_queries,
                           load_dataset, load_metadata, load_descriptors,
                           validate_records, write_metadata, write_descriptors)
from gsloc.errors import InputError
from gsloc.features import l2_normalize
from gsloc.geodesy import METERS_PER_DEGREE
from gsloc.graph import GraphParams, build_operator, pair_cosines
from gsloc.retrieval import cosine_knn


def _records():
    return [
        ImageRecord("a_000", "seq_a", 0, -34.931, 138.601),
        ImageRecord("a_001", "seq_a", 1, -34.930512345678901, 138.60199999999),
        ImageRecord("b_000", "seq_b", 0, 0.0, 0.0),
    ]


# ---------------------------------------------------------------------------
# Metadata CSV


def test_metadata_round_trip_exact(tmp_path):
    path = tmp_path / "meta.csv"
    write_metadata(path, _records())
    assert load_metadata(path) == _records()


def test_metadata_header_is_checked(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("image_id,seq,frame,lat,lon\nx,s,0,0,0\n")
    with pytest.raises(InputError, match="bad header"):
        load_metadata(path)


def test_metadata_empty_file(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("")
    with pytest.raises(InputError, match="empty file"):
        load_metadata(path)


def test_metadata_field_count_names_line(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("image_id,sequence_id,frame_index,lat,lon\n"
                    "x,s,0,0.0,0.0\n"
                    "y,s,1,0.0\n")
    with pytest.raises(InputError, match=":3:"):
        load_metadata(path)


def test_metadata_bad_number_names_line(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("image_id,sequence_id,frame_index,lat,lon\n"
                    "x,s,zero,0.0,0.0\n")
    with pytest.raises(InputError, match=":2:"):
        load_metadata(path)


def test_metadata_trailing_newline_ok(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("image_id,sequence_id,frame_index,lat,lon\n"
                    "x,s,0,1.5,2.5\n\n")
    assert load_metadata(path) == [ImageRecord("x", "s", 0, 1.5, 2.5)]


def test_metadata_without_a_final_line_break_is_refused(tmp_path):
    # Cut inside the last number: "2.5" became "2.".
    path = tmp_path / "meta.csv"
    path.write_text("image_id,sequence_id,frame_index,lat,lon\n"
                    "x,s,0,1.5,2.")
    with pytest.raises(InputError, match=r"meta\.csv:2: no line break"):
        load_metadata(path)


def test_validate_duplicate_image_id():
    records = [ImageRecord("x", "s", 0, 0, 0), ImageRecord("x", "t", 0, 0, 0)]
    with pytest.raises(InputError, match="duplicate image_id"):
        validate_records(records)


def test_validate_frame_order():
    records = [ImageRecord("x", "s", 1, 0, 0), ImageRecord("y", "s", 1, 0, 0)]
    with pytest.raises(InputError, match="not strictly increasing"):
        validate_records(records)
    records = [ImageRecord("x", "s", 2, 0, 0), ImageRecord("y", "s", 1, 0, 0)]
    with pytest.raises(InputError, match="not strictly increasing"):
        validate_records(records)


def test_validate_negative_frame():
    with pytest.raises(InputError, match="negative frame_index"):
        validate_records([ImageRecord("x", "s", -1, 0, 0)])


def test_validate_gps_range():
    with pytest.raises(InputError, match="latitude"):
        validate_records([ImageRecord("x", "s", 0, 91.0, 0.0)])
    with pytest.raises(InputError, match="longitude"):
        validate_records([ImageRecord("x", "s", 0, 0.0, -180.5)])


def test_interleaved_sequences_are_legal():
    records = [
        ImageRecord("a0", "a", 0, 0, 0),
        ImageRecord("b0", "b", 0, 0, 0),
        ImageRecord("a1", "a", 1, 0, 0),
        ImageRecord("b1", "b", 1, 0, 0),
    ]
    validate_records(records)


# ---------------------------------------------------------------------------
# EMB1 descriptors


def test_descriptors_round_trip_exact(tmp_path):
    path = tmp_path / "d.emb1"
    rng = np.random.default_rng(0)
    data = rng.standard_normal((7, 5)).astype(np.float32)
    write_descriptors(path, data)
    out = load_descriptors(path, expected_rows=7)
    assert out.dtype == np.float32
    assert np.array_equal(out, data)


def test_descriptors_row_count_mismatch_reports_both(tmp_path):
    path = tmp_path / "d.emb1"
    write_descriptors(path, np.zeros((7, 5), dtype=np.float32))
    with pytest.raises(InputError, match=r"7 descriptor rows, expected 9"):
        load_descriptors(path, expected_rows=9)


def test_descriptors_bad_magic(tmp_path):
    path = tmp_path / "d.emb1"
    path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(InputError, match="bad magic"):
        load_descriptors(path, expected_rows=None)


def test_descriptors_truncated_payload(tmp_path):
    path = tmp_path / "d.emb1"
    path.write_bytes(b"EMB1" + struct.pack("<II", 2, 3) + b"\x00" * 20)
    with pytest.raises(InputError, match="payload is 20 bytes, expected 24"):
        load_descriptors(path, expected_rows=None)
    # A header alone that promises ~2^64 floats: rejected before any read.
    path.write_bytes(b"EMB1" + struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(InputError, match=r"d\.emb1: payload is 0 bytes"):
        load_descriptors(path, expected_rows=None)


def test_descriptors_short_header(tmp_path):
    path = tmp_path / "d.emb1"
    path.write_bytes(b"EMB")
    with pytest.raises(InputError, match="too short"):
        load_descriptors(path, expected_rows=None)


def test_descriptors_reject_non_finite(tmp_path):
    path = tmp_path / "d.emb1"
    payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
    path.write_bytes(b"EMB1" + struct.pack("<II", 1, 2) + payload)
    with pytest.raises(InputError, match="non-finite"):
        load_descriptors(path, expected_rows=None)


# 10 rows of 4 values in blocks of 3 rows: a short last block of one row.
_BLOCKED_ROWS, _BLOCKED_DIM, _BLOCK_ROWS = 10, 4, 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cells", [
    # The first row; the last row, alone in the short last block; the end of
    # the full block before it; one value in each of three blocks.
    [(0, 0)], [(9, 3)], [(8, 1)], [(0, 3), (4, 0), (9, 2)],
])
def test_blockwise_finiteness_checks_raise_as_before(tmp_path, monkeypatch,
                                                     bad, cells):
    monkeypatch.setattr(dataset_mod, "_FINITE_BLOCK_BYTES",
                        _BLOCK_ROWS * _BLOCKED_DIM)
    data = np.arange(_BLOCKED_ROWS * _BLOCKED_DIM, dtype="<f4").reshape(
        _BLOCKED_ROWS, _BLOCKED_DIM)
    for row, col in cells:
        data[row, col] = bad
    path = tmp_path / "d.emb1"
    path.write_bytes(b"EMB1" + struct.pack("<II", *data.shape) + data.tobytes())
    with pytest.raises(InputError, match=rf"d\.emb1: {len(cells)} non-finite "
                                         "descriptor values"):
        load_descriptors(path, expected_rows=None)
    buffer = np.zeros_like(data)
    with pytest.raises(InputError, match="non-finite descriptor values"):
        load_descriptors(path, expected_rows=None, out=buffer)
    with pytest.raises(InputError, match="^descriptors contain non-finite values$"):
        write_descriptors(tmp_path / "w.emb1", data)
    with pytest.raises(InputError, match="^descriptors contain non-finite values$"):
        Dataset(records=[ImageRecord(f"i{k}", "s", k, 0.0, 0.0)
                         for k in range(_BLOCKED_ROWS)], descriptors=data)
    # The same values all finite pass every check.
    data[~np.isfinite(data)] = 0.0
    write_descriptors(path, data)
    assert load_descriptors(path, expected_rows=None).tobytes() == data.tobytes()


def test_write_descriptors_rejects_bad_input(tmp_path):
    path = tmp_path / "d.emb1"
    with pytest.raises(InputError):
        write_descriptors(path, np.zeros((3, 2), dtype=np.int32))
    with pytest.raises(InputError):
        write_descriptors(path, np.zeros(6, dtype=np.float32))


# A row near the largest float64, whose float64 squares overflow, and two
# rows whose cosines with it are 1 and 1/sqrt(2); no norm of float64 rows is
# taken, since each place descriptors enter refuses them, writing nothing.
_FLOAT64_ROWS = np.array([[1.5e308, 1.5e308], [1.0, 1.0], [1.0, 0.0]])
_REFUSERS = {
    "cosine_knn-queries": lambda x, tmp: cosine_knn(x[:1], x[1:].astype(np.float32), 1),
    "cosine_knn-support": lambda x, tmp: cosine_knn(x[1:].astype(np.float32), x, 1),
    "pair_cosines": lambda x, tmp: pair_cosines(x, np.array([0]), np.array([1])),
    "l2_normalize": lambda x, tmp: l2_normalize(x),
    "Dataset": lambda x, tmp: Dataset(records=_records(), descriptors=x),
    "write_descriptors": lambda x, tmp: write_descriptors(tmp / "d.emb1", x),
    "build_operator": lambda x, tmp: build_operator(_records(), x, GraphParams()),
}


@pytest.mark.parametrize("entry", list(_REFUSERS))
def test_float64_descriptors_are_refused_where_they_enter(entry, tmp_path):
    x = _FLOAT64_ROWS.copy()
    with pytest.raises(InputError, match="descriptors must be float32, got float64"):
        _REFUSERS[entry](x, tmp_path)
    assert x.tobytes() == _FLOAT64_ROWS.tobytes()
    assert not (tmp_path / "d.emb1").exists()


def test_load_dataset_checks_alignment(tmp_path):
    write_metadata(tmp_path / "m.csv", _records())
    write_descriptors(tmp_path / "d.emb1", np.zeros((3, 4), dtype=np.float32))
    ds = load_dataset(tmp_path / "m.csv", tmp_path / "d.emb1", role="support")
    assert ds.n_images == 3 and ds.dim == 4
    write_descriptors(tmp_path / "d.emb1", np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(InputError, match="2 descriptor rows, expected 3"):
        load_dataset(tmp_path / "m.csv", tmp_path / "d.emb1", role="support")


def test_load_dataset_scans_finiteness_once(tmp_path, monkeypatch):
    scanned = []
    count = dataset_mod._nonfinite_count
    monkeypatch.setattr(dataset_mod, "_nonfinite_count",
                        lambda arr: scanned.append(arr.shape) or count(arr))
    data = np.ones((3, 4), dtype="<f4")
    write_metadata(tmp_path / "m.csv", _records())
    write_descriptors(tmp_path / "d.emb1", data)
    scanned.clear()
    load_dataset(tmp_path / "m.csv", tmp_path / "d.emb1", role="support")
    assert scanned == [(3, 4)]
    # A refusal still names the file and counts the values.
    data[[0, 2], 1] = np.nan
    (tmp_path / "d.emb1").write_bytes(
        b"EMB1" + struct.pack("<II", *data.shape) + data.tobytes())
    with pytest.raises(InputError,
                       match=r"d\.emb1: 2 non-finite descriptor values$"):
        load_dataset(tmp_path / "m.csv", tmp_path / "d.emb1", role="support")


def test_dataset_validation():
    with pytest.raises(InputError, match="role"):
        Dataset(records=[], descriptors=np.zeros((0, 4), dtype=np.float32),
                role="train")
    with pytest.raises(InputError, match="records but"):
        Dataset(records=_records(),
                descriptors=np.zeros((2, 4), dtype=np.float32))


def test_dataset_stats():
    ds = Dataset(records=_records(),
                 descriptors=np.zeros((3, 4), dtype=np.float32))
    stats = ds.stats()
    assert stats.n_sequences == 2 and stats.n_images == 3


# ---------------------------------------------------------------------------
# Reachability filter


def _splits_with_offsets(offsets_m):
    """One support record at the origin; one query per given meridian offset."""
    support = Dataset(
        records=[ImageRecord("s0", "s", 0, 0.0, 0.0)],
        descriptors=np.zeros((1, 3), dtype=np.float32), role="support")
    q_records = [
        ImageRecord(f"q{i}", "q", i, off / METERS_PER_DEGREE, 0.0)
        for i, off in enumerate(offsets_m)]
    q_desc = np.arange(len(offsets_m) * 3, dtype=np.float32).reshape(-1, 3)
    query = Dataset(records=q_records, descriptors=q_desc, role="query")
    return support, query


def test_filter_keeps_only_reachable_queries():
    support, query = _splits_with_offsets([0.0, 24.999, 25.001, 300.0])
    kept = filter_reachable_queries(query, support, radius_m=25.0)
    assert [r.image_id for r in kept.records] == ["q0", "q1"]
    # Descriptor rows follow in lockstep, original order preserved.
    assert np.array_equal(kept.descriptors, query.descriptors[:2])


def test_filter_radius_is_inclusive():
    support, query = _splits_with_offsets([25.0])
    kept = filter_reachable_queries(query, support, radius_m=25.0)
    assert kept.n_images == 1


def test_filter_rejects_bad_inputs():
    support, query = _splits_with_offsets([1.0])
    with pytest.raises(InputError, match="radius"):
        filter_reachable_queries(query, support, radius_m=0.0)
    empty = Dataset(records=[], descriptors=np.zeros((0, 3), dtype=np.float32),
                    role="support")
    with pytest.raises(InputError, match="empty support"):
        filter_reachable_queries(query, empty, radius_m=25.0)


def test_filter_empty_query_passes_through():
    support, _ = _splits_with_offsets([1.0])
    empty = Dataset(records=[], descriptors=np.zeros((0, 3), dtype=np.float32),
                    role="query")
    out = filter_reachable_queries(empty, support, radius_m=25.0)
    assert out.n_images == 0
