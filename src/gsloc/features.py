"""Descriptor post-processing: PCA reduction fit on the support set, whitening,
and L2 row normalization.

The fitted projection maps a row x to scale * (basis.T @ (x - mean)), where
scale[j] = 1/sqrt(eigenvalue_j + eps). Eigenvector signs are fixed (largest-
magnitude component positive) so identical inputs always give identical
projections.
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

logger = logging.getLogger(__name__)

PRJ1_MAGIC = b"PRJ1"
_PRJ1_HEADER = struct.Struct("<4sII")

# Kept eigenvalues at or below this fraction of the total variance are treated
# as zero: whitening by them would just amplify noise.
_EIGENVALUE_FLOOR = 1e-12


@dataclass
class Projection:
    """A fitted center/rotate/whiten transform."""

    mean: np.ndarray   # (d_in,)
    basis: np.ndarray  # (d_in, d_out), column-orthonormal
    scale: np.ndarray  # (d_out,), 1/sqrt(eigenvalue + eps)

    @property
    def d_in(self) -> int:
        return int(self.basis.shape[0])

    @property
    def d_out(self) -> int:
        return int(self.basis.shape[1])


def fit_projection(descriptors: np.ndarray, d_out: int,
                   eps: float | None = None) -> Projection:
    """Fit PCA + whitening on support descriptors.

    eps is the ridge added to eigenvalues before inversion, finite and
    nonnegative; default is 1e-9 times the mean eigenvalue.
    """
    if eps is not None and not (np.isfinite(eps) and eps >= 0):
        raise InputError(f"eps must be finite and nonnegative, got {eps}")
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    n, d_in = x.shape
    if n < 2:
        raise InputError(f"need at least 2 rows to fit a projection, got {n}")
    if not (1 <= d_out <= min(n - 1, d_in)):
        raise InputError(f"d_out={d_out} must be in [1, min(rows-1={n - 1}, dim={d_in})]")

    mean = x.mean(axis=0)
    centered = x - mean
    # Thin SVD of the centered data: right singular vectors are the principal
    # directions, singular values give eigenvalues of the 1/(n-1) covariance.
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = (svals ** 2) / (n - 1)
    total = float(eigenvalues.sum())
    if not np.isfinite(total) or total <= 0.0:
        raise InputError("zero-variance descriptors: nothing to project")
    kept = eigenvalues[:d_out]
    if kept[-1] <= _EIGENVALUE_FLOOR * total:
        raise InputError(
            f"eigenvalue {d_out} is {kept[-1]:.3g}, effectively zero next to "
            f"total variance {total:.3g}; reduce d_out")
    if eps is None:
        eps = 1e-9 * total / len(eigenvalues)
    basis = vt[:d_out].T.copy()
    # Deterministic sign: largest-magnitude component of each column positive.
    anchor = np.argmax(np.abs(basis), axis=0)
    flip = basis[anchor, np.arange(d_out)] < 0
    basis[:, flip] *= -1.0
    scale = 1.0 / np.sqrt(kept + eps)
    return Projection(mean=mean, basis=basis, scale=scale)


def apply_projection(projection: Projection, descriptors: np.ndarray) -> np.ndarray:
    """Map rows to the whitened space; output dtype matches the input."""
    x = np.asarray(descriptors)
    if x.ndim != 2 or x.shape[1] != projection.d_in:
        raise InputError(f"descriptor dim {x.shape[1] if x.ndim == 2 else '?'} "
                         f"does not match projection d_in {projection.d_in}")
    out = (x.astype(np.float64) - projection.mean) @ projection.basis * projection.scale
    return out.astype(x.dtype)


def row_norms(x: np.ndarray, block_bytes: int) -> tuple[np.ndarray, int]:
    """Float64 Euclidean row norms of x, zeros replaced by 1 so that dividing
    leaves zero rows zero, and the number of zero rows. Rows are cast to
    float64 (unless they are) in blocks of at most block_bytes (one row at
    least); the norm holds a second temporary of the same size."""
    norms = np.empty(x.shape[0])
    rows = max(1, int(block_bytes // (8 * max(1, x.shape[1]))))
    for lo in range(0, x.shape[0], rows):
        block = x[lo:lo + rows].astype(np.float64, copy=False)
        norms[lo:lo + rows] = np.linalg.norm(block, axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    return norms, int(np.count_nonzero(zero))


# Bound on one row block of l2_normalize's float64 working set; the norm
# computation holds a second temporary of the same size. Both together fit a
# 2 MiB per-core L2 cache, so the block is normalized and written back while
# resident.
_NORM_BLOCK_BYTES = 1 << 20


def l2_normalize(descriptors: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm in place and return the array;
    zero rows pass through unchanged (their count is logged as a warning).

    Each row block is copied to float64, normalized there and written back.
    """
    x = np.asarray(descriptors)
    if x.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    n_zero = 0
    block = max(1, int(_NORM_BLOCK_BYTES // (8 * max(1, x.shape[1]))))
    for start in range(0, x.shape[0], block):
        rows = x[start:start + block].astype(np.float64)
        norms, zero = row_norms(rows, _NORM_BLOCK_BYTES)
        n_zero += zero
        rows /= norms[:, None]
        x[start:start + block] = rows
    if n_zero:
        logger.warning("l2_normalize: %d zero rows left unnormalized", n_zero)
    return x


def save_projection(path: str | Path, projection: Projection) -> None:
    """Persist as PRJ1: magic, u32 d_in, u32 d_out, then mean, basis
    (column-major), scale — all float32 little-endian."""
    with Path(path).open("wb") as fh:
        fh.write(_PRJ1_HEADER.pack(PRJ1_MAGIC, projection.d_in, projection.d_out))
        fh.write(projection.mean.astype("<f4").tobytes())
        fh.write(np.asfortranarray(projection.basis.astype("<f4")).tobytes(order="F"))
        fh.write(projection.scale.astype("<f4").tobytes())


def load_projection(path: str | Path) -> Projection:
    path = Path(path)
    with path.open("rb") as fh:
        header = fh.read(_PRJ1_HEADER.size)
        if len(header) < _PRJ1_HEADER.size:
            raise InputError(f"{path}: file too short for a PRJ1 header")
        magic, d_in, d_out = _PRJ1_HEADER.unpack(header)
        if magic != PRJ1_MAGIC:
            raise InputError(f"{path}: bad magic {magic!r}, expected {PRJ1_MAGIC!r}")
        n_floats = d_in + d_in * d_out + d_out
        payload_bytes = os.fstat(fh.fileno()).st_size - _PRJ1_HEADER.size
        if payload_bytes != n_floats * 4:
            raise InputError(f"{path}: payload is {payload_bytes} bytes, "
                             f"expected {n_floats * 4}")
        floats = np.fromfile(fh, dtype="<f4", count=n_floats)
    mean = floats[:d_in].astype(np.float64)
    basis = floats[d_in:d_in + d_in * d_out].reshape(d_in, d_out, order="F").astype(np.float64)
    scale = floats[d_in + d_in * d_out:].astype(np.float64)
    if not np.isfinite(floats).all():
        raise InputError(f"{path}: non-finite projection values")
    if np.any(scale <= 0):
        raise InputError(f"{path}: non-positive whitening scales")
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(d_out), atol=1e-4):
        raise InputError(f"{path}: basis columns are not orthonormal")
    return Projection(mean=mean, basis=basis, scale=scale)
