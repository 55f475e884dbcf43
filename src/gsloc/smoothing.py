"""Graph smoothing: repeated application of the row-stochastic operator to a
descriptor matrix (m sparse-matrix x dense-matrix products; A^m is never
materialized).

Accumulation is in the signal's own dtype: a float32 signal is smoothed by
a float32 copy of A's values (0.5 MB on the benchmark's ``city`` operator,
1.5 MB at criterion 13's 385,040 entries), a float64 one by A itself (as is
a signal of any other dtype, cast to float64 block by block).

The error bound. Let u be the dtype's unit roundoff, k the largest number
of entries in a row of A and g = (k + 1) u / (1 - (k + 1) u). Rounding A's
values costs each one u of itself, and a row's sum of k products in any
order costs g_k of the sum of their absolute values (Higham, *Accuracy
and Stability of Numerical Algorithms*, 2nd ed., 2002, section 3.1), so
one step is off A x by at most g A|x|, entrywise. A is nonnegative, so by
induction the result of m steps satisfies
    |smooth(A, X, m) - A^m X| <= ((1 + g)^m - 1) A^m |X|
entrywise, wherever no value of A, X or a product is below the dtype's
smallest normal. A^m |X| is at most each column's largest |value|, since
A's rows sum to 1. In float32 at m = 2 and 20 entries a row, that is
2.5e-6 of it; mixed-precision practice keeps the sweep in low precision
when, as here, few steps compound the error (Higham and Mary, "Mixed
precision algorithms in numerical linear algebra", Acta Numerica 31, 2022).

The dense signal is processed in column blocks: besides the output,
``smooth`` holds one contiguous input block and one product block of the
signal's dtype, together at most ``_BLOCK_BUDGET_BYTES`` (131 float32
columns on ``city``'s 8,000 rows), unless that leaves blocks narrower than
``_MIN_BLOCK_COLUMNS`` (64) columns: a block is never narrower (all the
columns, when there are fewer), so above 16,384 float32 rows the blocks
grow with the row count. Column blocking does not change any value: each
column's accumulation chain is independent of the block layout. The
budget is chosen by peak RSS at equal time. The blocks come on top of
everything a ``run`` holds when it smooths, so they set its peak: on the
float64 route, which held blocks of the same bytes, the benchmark's
``city`` job peaked at 207.0 MB with 16 MiB blocks and 197.7 MB with
8 MiB ones (fresh processes, 8 MiB score tiles in retrieval beside the
8 MiB blocks). 8 MiB blocks were no slower: on the ``city`` operator
(8,000 rows, 124,832 entries, 4,096 columns, m = 2) a float64 smooth took
0.515 s at 16 MiB and 0.506 s at 8 MiB, but 0.577 s at 4 MiB and 0.657 s
at 2 MiB (in-process medians of 6 alternating rounds, 2-vCPU VM), since a
narrower block repeats, once per block, scipy's per-nonzero loop set-up in
every product and numpy's per-row set-up when it copies a strided column
slice. Blocks of 32 MiB measured slower still. The floor is for larger
supports, where the budget alone leaves narrow blocks: on criterion 13's
operator (24,263 rows, 385,040 entries, 4,096 columns, m = 2) the float64
budget gave 21 columns, and a smooth took 2.28 s, against 1.85 s with
64-column blocks, bit for bit (in-process medians of 6 alternating rounds
at one BLAS thread, 2-vCPU VM).

The output may be the input itself (``out=signal``): each block is read
whole by its first product before its columns are written back, so
smoothing in place gives the same bits and holds no second copy of the
signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import SmoothingOperator

# Upper bound on the working set (input block + product, in the signal's
# dtype) per column block, unless that leaves blocks narrower than
# _MIN_BLOCK_COLUMNS.
_BLOCK_BUDGET_BYTES = 8 << 20
_MIN_BLOCK_COLUMNS = 64


@dataclass(frozen=True)
class SmoothConfig:
    """Number of times the operator is applied (m = 0 is the identity)."""

    m: int = 2

    def __post_init__(self) -> None:
        if self.m < 0:
            raise InputError(f"m must be nonnegative, got {self.m}")


def smooth(op: SmoothingOperator, signal: np.ndarray, cfg: SmoothConfig, *,
           out: np.ndarray | None = None) -> np.ndarray:
    """Apply the operator cfg.m times.

    Without ``out`` the input is never mutated, and m = 0 returns it as-is.
    With ``out`` (an array of the input's shape, which may be the input
    itself) the result is written there and ``out`` is returned.
    """
    s = np.asarray(signal)
    if s.ndim != 2:
        raise InputError("signal must be a 2-D array")
    if s.shape[0] != op.n:
        raise InputError(f"signal has {s.shape[0]} rows but operator expects {op.n}")
    if out is None:
        if cfg.m == 0:
            return s
        out = np.empty_like(s)
    elif out.shape != s.shape:
        raise InputError(f"out has shape {out.shape}, signal {s.shape}")
    n, d = s.shape
    dtype = np.dtype(np.float32 if s.dtype == np.float32 else np.float64)
    matrix = op.matrix.astype(dtype, copy=False)
    block = max(_MIN_BLOCK_COLUMNS,
                _BLOCK_BUDGET_BYTES // (2 * dtype.itemsize * max(1, n)))
    for start in range(0, d, block):
        cols = np.ascontiguousarray(s[:, start:start + block], dtype=dtype)
        for _ in range(cfg.m):
            cols = matrix @ cols
        out[:, start:start + block] = cols
    return out
