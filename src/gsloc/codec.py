"""The binary artifact formats, each declared once and read and written by
one code path.

A file is a little-endian header that opens with a 4-byte magic, then its
payload sections: flat little-endian arrays whose dtype and length follow
from the header's other fields. A file whose size disagrees with its header
is refused before any payload byte is read.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .cache import write_file
from .errors import InputError


@dataclass(frozen=True)
class Format:
    """A magic, the header struct (magic first), and ``sections(*fields)``:
    each payload section's (dtype, count), in file order."""

    magic: bytes
    header: struct.Struct
    sections: Callable[..., Sequence[tuple[str, int]]]

    def _read_header(self, fh, path: str | Path) -> tuple:
        raw = fh.read(self.header.size)
        if len(raw) < self.header.size:
            raise InputError(f"{path}: file too short for the {self.magic.decode()} header")
        magic, *fields = self.header.unpack(raw)
        if magic != self.magic:
            raise InputError(f"{path}: bad magic {magic!r}, expected {self.magic!r}")
        expected = sum(np.dtype(dtype).itemsize * count
                       for dtype, count in self.sections(*fields))
        payload = os.fstat(fh.fileno()).st_size - self.header.size
        if payload != expected:
            raise InputError(f"{path}: payload is {payload} bytes, expected {expected}")
        return tuple(fields)

    def shape(self, path: str | Path) -> tuple:
        """The header's fields, once the magic and the file size have been
        checked against them; no payload byte is read."""
        with open(path, "rb") as fh:
            return self._read_header(fh, path)

    def read(self, path: str | Path, check: Callable[..., None] | None = None,
             out: np.ndarray | None = None) -> tuple[tuple, list[np.ndarray]]:
        """(fields, sections). ``check(*fields)`` runs before any payload
        byte is read. The first section is read into ``out`` when given (a
        C-contiguous array of its dtype and count, whose old contents are
        overwritten), every other one into a new flat array."""
        with open(path, "rb") as fh:
            fields = self._read_header(fh, path)
            if check is not None:
                check(*fields)
            arrays = []
            for dtype, count in self.sections(*fields):
                array = np.empty(count, dtype) if out is None or arrays else out
                if (array.dtype != np.dtype(dtype) or array.size != count
                        or not array.flags.c_contiguous):
                    raise InputError(f"{path}: cannot read {count} {dtype} values "
                                     f"into a {array.dtype} array of shape {array.shape}")
                if fh.readinto(array) != array.nbytes:
                    raise InputError(f"{path}: payload ended early")
                arrays.append(array)
        return fields, arrays

    def write(self, path: str | Path, fields: Sequence[int],
              arrays: Sequence[np.ndarray]) -> None:
        """The header, then each array as its section in C order, through
        ``cache.write_file``; an array of its section's dtype is not copied."""
        def fill(fh) -> None:
            fh.write(self.header.pack(self.magic, *fields))
            for (dtype, _), array in zip(self.sections(*fields), arrays, strict=True):
                fh.write(np.ascontiguousarray(array, dtype=dtype))
        write_file(path, fill)


# rows x dim descriptors, row-major.
EMB1 = Format(b"EMB1", struct.Struct("<4sII"),
              lambda rows, dim: [("<f4", rows * dim)])
# The mean, the d_in x d_out basis column-major, and the whitening scale.
PRJ1 = Format(b"PRJ1", struct.Struct("<4sII"),
              lambda d_in, d_out: [("<f4", d_in), ("<f4", d_in * d_out), ("<f4", d_out)])
# An n x n CSR operator: row offsets, column indices, values.
ADJ1 = Format(b"ADJ1", struct.Struct("<4sIQ"),
              lambda n, nnz: [("<u8", n + 1), ("<u4", nnz), ("<f8", nnz)])
