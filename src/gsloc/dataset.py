"""Dataset schema, metadata/descriptor file IO, and query reachability filtering.

A dataset is an ordered list of image records plus a row-aligned float32
descriptor matrix. Metadata travels as CSV (header
``image_id,sequence_id,frame_index,lat,lon``), descriptors as EMB1 binary
(``codec.EMB1``).
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .cache import csv_text, write_utf8
from .codec import EMB1
from .errors import InputError
from .spatial import LatLonGrid

METADATA_HEADER = ["image_id", "sequence_id", "frame_index", "lat", "lon"]
# Bound on the one-byte-per-value finiteness mask of one row block: small
# enough to stay in a per-core L2 cache, so that no n x d bool array is made.
_FINITE_BLOCK_BYTES = 256 << 10


@dataclass(frozen=True)
class ImageRecord:
    """One image's identity, sequence membership, frame position, and GPS fix."""

    image_id: str
    sequence_id: str
    frame_index: int
    lat: float
    lon: float


@dataclass
class SplitStats:
    n_sequences: int
    n_images: int


@dataclass
class Dataset:
    """Row-aligned records + descriptors for one split (support or query)."""

    records: list[ImageRecord]
    descriptors: np.ndarray
    role: str = "support"

    def __post_init__(self):
        if self.role not in ("support", "query"):
            raise InputError(f"role must be 'support' or 'query', got {self.role!r}")
        check_descriptors(self.descriptors)
        if len(self.records) != self.descriptors.shape[0]:
            raise InputError(
                f"{len(self.records)} records but {self.descriptors.shape[0]} descriptor rows")

    @property
    def n_images(self) -> int:
        return len(self.records)

    @property
    def dim(self) -> int:
        return int(self.descriptors.shape[1])

    def stats(self) -> SplitStats:
        return SplitStats(
            n_sequences=len({r.sequence_id for r in self.records}),
            n_images=len(self.records),
        )

    @functools.cached_property
    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(lats, lons) as read-only float64 arrays, built on first use and
        shared by every later caller on this split."""
        lats = np.array([r.lat for r in self.records], dtype=np.float64)
        lons = np.array([r.lon for r in self.records], dtype=np.float64)
        lats.flags.writeable = lons.flags.writeable = False
        return lats, lons

    @classmethod
    def of_checked(cls, records: list[ImageRecord], descriptors: np.ndarray,
                   role: str) -> "Dataset":
        """A dataset of rows whose checks have already run (a loaded file's,
        or a checked dataset's rows), made without scanning them again."""
        dataset = object.__new__(cls)
        dataset.records, dataset.descriptors, dataset.role = records, descriptors, role
        return dataset

    def with_descriptors(self, descriptors: np.ndarray) -> "Dataset":
        """Same records with a replacement descriptor matrix (row-aligned)."""
        return Dataset(records=self.records, descriptors=descriptors, role=self.role)

    def subset(self, keep: np.ndarray) -> "Dataset":
        """The rows where the boolean mask ``keep`` is true, in order."""
        return Dataset.of_checked(
            [r for r, k in zip(self.records, keep.tolist()) if k],
            self.descriptors[keep], self.role)


def check_descriptors(arr: np.ndarray) -> None:
    """Validate a descriptor matrix: 2-D, float32, all values finite."""
    if not isinstance(arr, np.ndarray) or arr.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    check_float32(arr)
    if _nonfinite_count(arr):
        raise InputError("descriptors contain non-finite values")


def check_float32(arr: np.ndarray) -> None:
    """Refuse descriptors that are not float32, the one descriptor dtype
    from the loader to the score; ``x.astype(np.float32)`` converts others."""
    if arr.dtype != np.float32:
        raise InputError(f"descriptors must be float32, got {arr.dtype}")


def _nonfinite_count(arr: np.ndarray) -> int:
    """Number of non-finite values in a 2-D array, tested a row block of
    at most ``_FINITE_BLOCK_BYTES`` mask bytes (one row at least) at a
    time."""
    rows = max(1, _FINITE_BLOCK_BYTES // max(1, arr.shape[1]))
    return sum(arr[lo:lo + rows].size
               - int(np.count_nonzero(np.isfinite(arr[lo:lo + rows])))
               for lo in range(0, arr.shape[0], rows))


def validate_records(records: Sequence[ImageRecord]) -> None:
    """Enforce record invariants: unique ids, unique and strictly increasing
    (sequence_id, frame_index) in listed order, GPS ranges."""
    seen_ids: set[str] = set()
    last_frame: dict[str, int] = {}
    for rec in records:
        if rec.image_id in seen_ids:
            raise InputError(f"duplicate image_id {rec.image_id!r}")
        seen_ids.add(rec.image_id)
        if rec.frame_index < 0:
            raise InputError(f"image {rec.image_id!r}: negative frame_index {rec.frame_index}")
        prev = last_frame.get(rec.sequence_id)
        if prev is not None and rec.frame_index <= prev:
            raise InputError(
                f"sequence {rec.sequence_id!r}: frame_index {rec.frame_index} "
                f"not strictly increasing after {prev}")
        last_frame[rec.sequence_id] = rec.frame_index
        if not (-90.0 <= rec.lat <= 90.0):
            raise InputError(f"image {rec.image_id!r}: latitude {rec.lat} outside [-90, 90]")
        if not (-180.0 <= rec.lon <= 180.0):
            raise InputError(f"image {rec.image_id!r}: longitude {rec.lon} outside [-180, 180]")


def load_metadata(path: str | Path) -> list[ImageRecord]:
    """Read image records from a metadata CSV, in file order.

    Errors name the offending line (1-based, header is line 1). Every row
    ends with a line break, the last one too: a file that does not is
    refused as cut short, since a cut inside a number can leave another
    valid number.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InputError(f"{path}:{line}: not UTF-8 ({exc.reason})") from None
    if text and not text.endswith(("\n", "\r")):
        line = text.count("\n") + 1
        raise InputError(f"{path}:{line}: no line break after the last row; "
                         "the file looks cut short")
    records: list[ImageRecord] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file, expected header "
                             f"{','.join(METADATA_HEADER)}")
        if header != METADATA_HEADER:
            raise InputError(f"{path}: bad header {header!r}, expected {METADATA_HEADER!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 5:
                raise InputError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
            image_id, sequence_id, frame_s, lat_s, lon_s = row
            try:
                frame_index = int(frame_s)
                lat = float(lat_s)
                lon = float(lon_s)
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            records.append(ImageRecord(image_id, sequence_id, frame_index, lat, lon))
    except csv.Error as exc:
        raise InputError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        validate_records(records)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return records


def write_metadata(path: str | Path, records: Iterable[ImageRecord]) -> None:
    """Write records as metadata CSV (LF line endings, lossless float repr)."""
    write_utf8(path, csv_text([METADATA_HEADER, *(
        [r.image_id, r.sequence_id, r.frame_index, float(r.lat), float(r.lon)]
        for r in records)]))


def load_descriptors(path: str | Path, expected_rows: int | None, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Decode an EMB1 file into a float32 matrix, checking the row count and
    that every value is finite.

    The payload size is checked against the header before anything is read,
    and the payload is read straight into the returned array: a new one, or
    ``out`` when given (a C-contiguous little-endian float32 array of the
    file's shape), whose old contents are then overwritten even when the
    payload turns out to hold non-finite values.
    """
    def check(rows: int, dim: int) -> None:
        if expected_rows is not None and rows != expected_rows:
            raise InputError(f"{path}: {rows} descriptor rows, expected {expected_rows}")
        if out is not None and out.shape != (rows, dim):
            raise InputError(f"{path}: cannot read {rows}x{dim} values "
                             f"into an array of shape {out.shape}")
    (rows, dim), (data,) = EMB1.read(path, check, out)
    data = data.reshape(rows, dim) if out is None else out
    bad = _nonfinite_count(data)
    if bad:
        raise InputError(f"{path}: {bad} non-finite descriptor values")
    return data


def write_descriptors(path: str | Path, descriptors: np.ndarray) -> None:
    """Encode a descriptor matrix to EMB1 (float32 little-endian, row-major)."""
    check_descriptors(descriptors)
    EMB1.write(path, descriptors.shape, [descriptors])


def load_dataset(metadata_path: str | Path, descriptors_path: str | Path,
                 role: str) -> Dataset:
    """One split's records and descriptors, each file checked as it is read:
    a row count that disagrees with the records, or a non-finite value,
    names the descriptor file."""
    if role not in ("support", "query"):
        raise InputError(f"role must be 'support' or 'query', got {role!r}")
    records = load_metadata(metadata_path)
    return Dataset.of_checked(
        records, load_descriptors(descriptors_path, len(records)), role)


def filter_reachable_queries(query: Dataset, support: Dataset,
                             radius_m: float = 25.0) -> Dataset:
    """Keep only query records within radius_m (great-circle) of some support
    record; descriptor rows follow in lockstep, order preserved."""
    if not radius_m > 0.0:
        raise InputError(f"radius must be positive, got {radius_m}")
    if support.n_images == 0:
        raise InputError("cannot filter queries against an empty support set")
    grid = LatLonGrid(*support.positions, cell_m=radius_m)
    return query.subset(grid.min_distance_within_reach_m(*query.positions) <= radius_m)
