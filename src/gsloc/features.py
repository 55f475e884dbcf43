"""Descriptor post-processing: PCA reduction fit on the support set, whitening,
and L2 row normalization.

The fitted projection maps a row x to scale * (basis.T @ (x - mean)), where
scale[j] = 1/sqrt(eigenvalue_j + eps). Eigenvector signs are fixed (largest-
magnitude component positive) so identical inputs always give identical
projections.

The fit eigendecomposes the d_in x d_in Gram matrix of the centered support
rather than taking an SVD of the whole n x d_in support, and falls back to
the SVD when the kept spectrum is too ill-conditioned for the Gram (the rule
is in ``fit_projection``). The small symmetric eigensolve runs at one
OpenBLAS thread, so the fitted bits are the same at any BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import PRJ1
from .dataset import check_float32
from .errors import InputError

logger = logging.getLogger(__name__)

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

    The principal directions come from ``np.linalg.eigh`` of the float64
    d_in x d_in Gram matrix ``c.T @ c`` of the centered rows c, reversed to
    descending order. The Gram squares the condition number: its eigenvalue
    errors are about machine epsilon times the largest eigenvalue. So the
    Gram route is kept only when its d_out-th eigenvalue is above both
    ``_GRAM_CONDITION_FLOOR`` (1e-6) times the largest, where it is good to
    about 2e-10 relative, and ``_GRAM_FLOOR_MARGIN`` (1e3) times the
    ``_EIGENVALUE_FLOOR`` rejection bound, and the Gram is finite. Otherwise
    the fit takes the thin SVD of c, which alone then decides every
    rejection. The Gram product and the eigh run at one BLAS thread (see
    ``_one_blas_thread``), so that the fitted bits do not depend on the BLAS
    thread count.
    """
    check_eps(eps)
    # The one float64 copy, centered in place below.
    x = np.array(descriptors, dtype=np.float64)
    if x.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    n, d_in = x.shape
    if n < 2:
        raise InputError(f"need at least 2 rows to fit a projection, got {n}")
    if not (1 <= d_out <= min(n - 1, d_in)):
        raise InputError(f"d_out={d_out} must be in [1, min(rows-1={n - 1}, dim={d_in})]")

    mean = x.mean(axis=0)
    x -= mean
    eigenvalues, basis = _gram_eigenpairs(x, d_out)
    if eigenvalues is None:
        # Thin SVD of the centered data: right singular vectors are the
        # principal directions, singular values give eigenvalues of the
        # 1/(n-1) covariance.
        _, svals, vt = np.linalg.svd(x, full_matrices=False)
        eigenvalues = svals ** 2
        basis = vt[:d_out].T.copy()
    eigenvalues = eigenvalues / (n - 1)
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
    # Deterministic sign: largest-magnitude component of each column positive.
    anchor = np.argmax(np.abs(basis), axis=0)
    flip = basis[anchor, np.arange(d_out)] < 0
    basis[:, flip] *= -1.0
    scale = 1.0 / np.sqrt(kept + eps)
    return Projection(mean=mean, basis=basis, scale=scale)


def check_eps(eps: float | None) -> None:
    """Refuse a whitening ridge that is not finite and nonnegative; None
    stands for fit_projection's default."""
    if eps is not None and not 0 <= eps < np.inf:
        raise InputError(f"eps must be finite and nonnegative, got {eps}")


# The Gram route's acceptance bounds (see fit_projection).
_GRAM_CONDITION_FLOOR = 1e-6
_GRAM_FLOOR_MARGIN = 1e3


def _gram_eigenpairs(centered: np.ndarray,
                     d_out: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The min(rows, dim) largest eigenvalues of centered.T @ centered,
    descending (as many as the thin SVD has singular values), and the first
    d_out eigenvectors as columns; or (None, None) when the d_out-th
    eigenvalue is too small for the Gram route."""
    with _one_blas_thread():
        gram = centered.T @ centered
        if not np.isfinite(gram).all():
            return None, None
        values, vectors = np.linalg.eigh(gram)
    values = values[::-1][:min(centered.shape)]
    bound = max(_GRAM_CONDITION_FLOOR * values[0],
                _GRAM_FLOOR_MARGIN * _EIGENVALUE_FLOOR * values.sum())
    if not values[d_out - 1] > bound:
        return None, None
    return values, vectors[:, ::-1][:, :d_out].copy()


@functools.cache
def _blas_thread_control():
    """(get, set) of the thread count of the OpenBLAS that numpy bundles, or
    None when that build's symbols are absent (older numpy wheels, or another
    BLAS); then eigh runs at whatever thread count BLAS has."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.restype = ctypes.c_int
    get.argtypes = []
    set_.restype = None
    set_.argtypes = [ctypes.c_int]
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one BLAS thread and restore the count after.

    LAPACK's symmetric eigensolver rounds differently at different thread
    counts. The Gram product before it does not, but it runs faster at one
    thread: as the first product of a fresh process on a 2-vCPU VM, the
    4,800 x 256 Gram of the benchmark's `localize` support took 105-113 ms
    at two OpenBLAS threads and 10-14 ms at one. The count is process-wide,
    so BLAS calls made by other threads meanwhile also run at one thread.
    """
    control = _blas_thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


# Bound on one row block of apply_projection's float64 working set: the
# block's centered copy and its product with the basis, together (see
# aligned_row_blocks for the block edges).
_PROJECTION_BLOCK_BYTES = 4 << 20
# Row blocks that feed a matrix product are whole multiples of this many rows.
_ROW_ALIGN = 64


def aligned_row_blocks(n_rows: int, rows: int) -> list[tuple[int, int]]:
    """(lo, hi) edges of row blocks of about `rows` rows for a matrix product.

    Blocks are whole multiples of _ROW_ALIGN rows (one multiple at least), so
    BLAS tiles them as it would tile the whole matrix; a remainder shorter
    than _ROW_ALIGN joins the last block, since a one-row block would go
    through a matrix-vector product, which rounds differently.
    """
    rows = max(_ROW_ALIGN, rows - rows % _ROW_ALIGN)
    starts = range(0, max(1, n_rows - _ROW_ALIGN + 1), rows)
    return list(zip(starts, [*starts[1:], n_rows]))


def apply_projection(projection: Projection, descriptors: np.ndarray) -> np.ndarray:
    """Map rows to the whitened space; output dtype matches the input.

    Rows are projected in float64 blocks of at most
    ``_PROJECTION_BLOCK_BYTES``, each written into the output as it is done.
    """
    x = np.asarray(descriptors)
    if x.ndim != 2 or x.shape[1] != projection.d_in:
        raise InputError(f"descriptor dim {x.shape[1] if x.ndim == 2 else '?'} "
                         f"does not match projection d_in {projection.d_in}")
    out = np.empty((x.shape[0], projection.d_out), dtype=x.dtype)
    rows = _PROJECTION_BLOCK_BYTES // (8 * (projection.d_in + projection.d_out))
    for lo, hi in aligned_row_blocks(x.shape[0], rows):
        out[lo:hi] = _project_rows(projection, x[lo:hi])
    return out


def _project_rows(projection: Projection, rows: np.ndarray) -> np.ndarray:
    """One float64 block of projected rows; its centered copy is freed on
    return."""
    centered = rows.astype(np.float64)
    centered -= projection.mean
    product = centered @ projection.basis
    product *= projection.scale
    return product


def row_norms(x: np.ndarray, block_bytes: int) -> tuple[np.ndarray, int]:
    """Float64 Euclidean row norms of x, bit for bit as ``np.linalg.norm``
    takes them, zeros replaced by 1 so that dividing leaves zero rows zero,
    and the number of zero rows. Rows are cast to float64 (unless they are)
    in blocks of at most block_bytes (one row at least); their squares hold a
    second temporary of the same size. The float64 squares of float32 values
    neither overflow nor underflow."""
    norms = np.empty(x.shape[0])
    rows = max(1, int(block_bytes // (8 * max(1, x.shape[1]))))
    for lo in range(0, x.shape[0], rows):
        block = x[lo:lo + rows].astype(np.float64, copy=False)
        norms[lo:lo + rows] = np.add.reduce(block * block, axis=1)
    np.sqrt(norms, out=norms)
    zero = norms == 0.0
    norms[zero] = 1.0
    return norms, int(np.count_nonzero(zero))


# Bound on one row block of a norm pass's float64 working set (l2_normalize
# and the latent kernel's norms); the norm computation holds a second
# temporary of the same size. Both together sit well inside a 2 MiB per-core
# L2 cache, so the block is normalized and written back while resident:
# 256 KiB measured faster than 1 MiB and 4 MiB.
_NORM_BLOCK_BYTES = 256 << 10


def l2_normalize(descriptors: np.ndarray) -> np.ndarray:
    """Scale each float32 row to unit Euclidean norm in place and return the
    array; zero rows pass through unchanged (their count is logged as a
    warning).

    Each row block is copied to float64, normalized there and written back.
    """
    x = np.asarray(descriptors)
    if x.ndim != 2:
        raise InputError("descriptors must be a 2-D array")
    check_float32(x)
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
    """Persist as PRJ1 (``codec.PRJ1``); the basis is stored column-major,
    which is the row-major order of its transpose."""
    PRJ1.write(path, (projection.d_in, projection.d_out),
               [projection.mean, projection.basis.T, projection.scale])


def load_projection(path: str | Path) -> Projection:
    (d_in, d_out), sections = PRJ1.read(path)
    # Checked before the casts: casting a signalling NaN warns.
    if not all(np.isfinite(section).all() for section in sections):
        raise InputError(f"{path}: non-finite projection values")
    mean, basis, scale = (section.astype(np.float64) for section in sections)
    basis = basis.reshape(d_in, d_out, order="F")
    if np.any(scale <= 0):
        raise InputError(f"{path}: non-positive whitening scales")
    gram = basis.T @ basis
    if not np.allclose(gram, np.eye(d_out), atol=1e-4):
        raise InputError(f"{path}: basis columns are not orthonormal")
    return Projection(mean=mean, basis=basis, scale=scale)
