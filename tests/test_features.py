"""PCA + whitening: analytic solutions, covariance identity, deterministic
signs, bytes that do not depend on the BLAS thread count, PRJ1 persistence,
and L2 renormalization."""

from __future__ import annotations

import logging
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from gsloc.errors import InputError
from gsloc.features import (Projection, _blas_thread_control, apply_projection,
                            fit_projection, l2_normalize, load_projection,
                            row_norms, save_projection)
from oracles import quantized


def test_analytic_two_dimensional_case():
    # Four points with sample covariance diag(4, 1): eigenpairs are the axes.
    r6 = math.sqrt(6.0)
    r15 = math.sqrt(1.5)
    x = np.array([[r6, 0.0], [-r6, 0.0], [0.0, r15], [0.0, -r15]])
    proj = fit_projection(x, d_out=2)
    assert proj.mean == pytest.approx([0.0, 0.0], abs=1e-12)
    # Sign convention: largest-magnitude component positive.
    assert np.allclose(proj.basis, np.eye(2), atol=1e-12)
    assert proj.scale == pytest.approx([0.5, 1.0], rel=1e-6)
    z = apply_projection(proj, x)
    assert z[0] == pytest.approx([r6 / 2.0, 0.0], abs=1e-8)
    assert z[3] == pytest.approx([0.0, -r15], abs=1e-8)


def test_projected_training_data_has_identity_covariance():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((300, 20)) * np.linspace(0.5, 3.0, 20)
    proj = fit_projection(x, d_out=8)
    z = apply_projection(proj, x)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-10
    cov = z.T @ z / (z.shape[0] - 1)
    assert np.max(np.abs(cov - np.eye(8))) < 1e-6


def test_basis_is_orthonormal():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((100, 12))
    proj = fit_projection(x, d_out=6)
    gram = proj.basis.T @ proj.basis
    assert np.allclose(gram, np.eye(6), atol=1e-12)


def test_fit_is_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(6)
    # Distinct variances per axis keep the spectrum well separated.
    x = rng.standard_normal((500, 10)) * np.linspace(1.0, 4.0, 10)
    p1 = fit_projection(x, d_out=4)
    p2 = fit_projection(x.copy(), d_out=4)
    assert np.array_equal(p1.basis, p2.basis)
    assert np.array_equal(p1.mean, p2.mean)
    assert np.array_equal(p1.scale, p2.scale)
    # Row order cannot matter: the covariance is the same.
    perm = rng.permutation(x.shape[0])
    p3 = fit_projection(x[perm], d_out=4)
    probe = rng.standard_normal((20, 10))
    assert np.allclose(apply_projection(p1, probe),
                       apply_projection(p3, probe), atol=1e-6)


def test_fit_rejects_bad_d_out():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((10, 5))
    for d_out in (0, 6, -1):
        with pytest.raises(InputError, match="d_out"):
            fit_projection(x, d_out=d_out)
    # d_out can never exceed rows - 1.
    with pytest.raises(InputError, match="d_out"):
        fit_projection(x[:3], d_out=3)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(InputError, match="2-D"):
        fit_projection(np.zeros(8), d_out=1)
    with pytest.raises(InputError, match="at least 2 rows"):
        fit_projection(np.zeros((1, 4)), d_out=1)
    with pytest.raises(InputError, match="zero-variance"):
        fit_projection(np.ones((10, 4)), d_out=2)


def test_fit_rejects_a_negative_or_nonfinite_eps():
    x = np.random.default_rng(10).standard_normal((20, 6))
    for eps in (-1e9, -1e-12, float("nan"), float("inf")):
        with pytest.raises(InputError, match="eps"):
            fit_projection(x, d_out=4, eps=eps)
    assert np.all(np.isfinite(fit_projection(x, d_out=4, eps=0.0).scale))


def test_fit_rejects_rank_deficient_d_out():
    rng = np.random.default_rng(8)
    # Rank-2 data embedded in 5 dims: the third eigenvalue is numerically zero.
    x = rng.standard_normal((50, 2)) @ rng.standard_normal((2, 5))
    with pytest.raises(InputError, match="effectively zero"):
        fit_projection(x, d_out=3)


# Fits the synthetic support of the benchmark's `localize` workload for seeds
# 1-3 and saves each as <out-dir>/<seed>.prj1. A thin SVD of these supports,
# and an unpinned eigh of their Gram, round differently at one and at two
# OpenBLAS threads (seed 2 for the eigh).
_FIT_SYNTH_SUPPORTS = """
import sys
from gsloc.features import fit_projection, save_projection
from gsloc.synth import SynthConfig, generate_synthetic
config = SynthConfig(n_places=60, n_support_sequences=20, n_query_sequences=5,
                     dim=256)
for seed in (1, 2, 3):
    support, _, _ = generate_synthetic(config, seed=seed)
    save_projection(f"{sys.argv[1]}/{seed}.prj1",
                    fit_projection(support.descriptors, 128))
"""


@pytest.mark.skipif(_blas_thread_control() is None,
                    reason="numpy's bundled OpenBLAS thread-count symbols are absent")
def test_fit_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    fitted = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", _FIT_SYNTH_SUPPORTS, str(out)],
                       env=env, check=True)
        fitted[threads] = [(out / f"{seed}.prj1").read_bytes() for seed in (1, 2, 3)]
    assert fitted["1"] == fitted["2"]


def test_apply_projection_checks_dim_and_keeps_dtype():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 6))
    proj = fit_projection(x, d_out=3)
    with pytest.raises(InputError, match="does not match"):
        apply_projection(proj, np.zeros((4, 5)))
    out32 = apply_projection(proj, x.astype(np.float32))
    assert out32.dtype == np.float32
    out64 = apply_projection(proj, x)
    assert out64.dtype == np.float64


def test_prj1_round_trip_is_quantized_projection(tmp_path):
    rng = np.random.default_rng(10)
    x = rng.standard_normal((60, 9))
    proj = fit_projection(x, d_out=4)
    path = tmp_path / "p.prj1"
    save_projection(path, proj)
    loaded = load_projection(path)
    quant = quantized(proj)
    assert np.array_equal(loaded.mean, quant.mean)
    assert np.array_equal(loaded.basis, quant.basis)
    assert np.array_equal(loaded.scale, quant.scale)
    # Applying the reloaded projection reproduces the quantized output bit
    # for bit — the property the cache relies on.
    probe = rng.standard_normal((5, 9)).astype(np.float32)
    assert np.array_equal(apply_projection(loaded, probe),
                          apply_projection(quant, probe))


def test_prj1_rejects_corruption(tmp_path):
    rng = np.random.default_rng(11)
    proj = fit_projection(rng.standard_normal((40, 6)), d_out=3)
    path = tmp_path / "p.prj1"
    save_projection(path, proj)
    blob = bytearray(path.read_bytes())

    bad = tmp_path / "bad.prj1"
    bad.write_bytes(b"QRJ1" + bytes(blob[4:]))
    with pytest.raises(InputError, match="bad magic"):
        load_projection(bad)

    bad.write_bytes(bytes(blob[:-4]))
    with pytest.raises(InputError, match="payload"):
        load_projection(bad)

    # A header alone that promises a huge projection: rejected before any read.
    bad.write_bytes(struct.pack("<4sII", b"PRJ1", 0xFFFFFFFF, 0xFFFFFFFF))
    with pytest.raises(InputError, match=r"bad\.prj1: payload is 0 bytes"):
        load_projection(bad)

    bad.write_bytes(b"PR")
    with pytest.raises(InputError, match="too short"):
        load_projection(bad)

    # Overwrite a scale entry with -1.0.
    scale_off = struct.calcsize("<4sII") + (6 + 6 * 3) * 4
    corrupted = bytes(blob[:scale_off]) + struct.pack("<f", -1.0) + bytes(blob[scale_off + 4:])
    bad.write_bytes(corrupted)
    with pytest.raises(InputError, match="scales"):
        load_projection(bad)

    # NaN in the mean.
    corrupted = bytes(blob[:12]) + struct.pack("<f", float("nan")) + bytes(blob[16:])
    bad.write_bytes(corrupted)
    with pytest.raises(InputError, match="non-finite"):
        load_projection(bad)


def test_prj1_rejects_non_orthonormal_basis(tmp_path):
    proj = Projection(mean=np.zeros(3),
                      basis=np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                      scale=np.ones(2))
    path = tmp_path / "p.prj1"
    save_projection(path, proj)
    with pytest.raises(InputError, match="orthonormal"):
        load_projection(path)


def test_quantized_is_idempotent():
    rng = np.random.default_rng(12)
    proj = fit_projection(rng.standard_normal((30, 5)), d_out=2)
    q1 = quantized(proj)
    q2 = quantized(q1)
    assert np.array_equal(q1.basis, q2.basis)
    assert np.array_equal(q1.mean, q2.mean)
    assert np.array_equal(q1.scale, q2.scale)


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(13)
    x32 = rng.standard_normal((50, 7)).astype(np.float32)
    out32 = l2_normalize(x32)
    assert out32 is x32
    assert np.linalg.norm(out32.astype(np.float64), axis=1) == pytest.approx(
        np.ones(50), abs=1e-6)


def test_l2_normalize_zero_rows_pass_through(caplog):
    x = np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32)
    with caplog.at_level(logging.WARNING, logger="gsloc.features"):
        out = l2_normalize(x)
    assert np.array_equal(out[0], [0.0, 0.0])
    assert out[1].tolist() == [np.float32(0.6), np.float32(0.8)]
    assert any("zero rows" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** -600],
                         ids=["overflow", "underflow"])
def test_l2_normalize_rows_whose_squares_leave_float64(scale):
    # Only float64 rows square beyond float64 (2^600) or below it (2^-600),
    # and l2_normalize refuses them before it writes a row.
    x = np.random.default_rng(14).standard_normal((3, 16))
    x[1] *= scale
    before = x.copy()
    with pytest.raises(InputError, match="float32, got float64"):
        l2_normalize(x)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("scale", [2.0 ** 100, 2.0 ** -100, 2.0 ** -149],
                         ids=["overflow", "underflow", "subnormal"])
def test_l2_normalize_rows_whose_squares_leave_float32(scale):
    # The row's float32 squared norm overflows (2^100) or underflows (2^-100,
    # and subnormal entries, whole multiples of 2^-149); its float64 one
    # does neither, and a power-of-two scale changes no bit of its unit row.
    x = np.random.default_rng(14).integers(-2 ** 20, 2 ** 20, (3, 16))
    x = x.astype(np.float32)
    scaled = x.copy()
    scaled[1] *= np.float32(scale)
    assert l2_normalize(scaled).tobytes() == l2_normalize(x).tobytes()


def test_row_norms_are_numpys_wherever_squares_stay_normal():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((40, 33)) * rng.uniform(1e-150, 1e150, (40, 1))
    norms, zero = row_norms(x, 8 * 33 * 7)
    assert zero == 0
    assert norms.tobytes() == np.linalg.norm(x, axis=1).tobytes()


def test_l2_normalize_rejects_non_2d():
    with pytest.raises(InputError, match="2-D"):
        l2_normalize(np.zeros(4))
