"""Acceptance gate: one test per shipping criterion.

Every test prints a single `[PASS]`/`[FAIL]` line with the measured quantity
(visible even under capture via capsys.disabled) and then asserts, so a plain
`pytest tests/test_acceptance.py` doubles as the release checklist.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
from gsloc.cli import main
from gsloc.dataset import (ImageRecord, filter_reachable_queries,
                           write_descriptors, write_metadata)
from gsloc.evaluation import run_ablation, sweep_m
from gsloc.features import apply_projection, fit_projection
from gsloc.geodesy import METERS_PER_DEGREE
from gsloc.graph import (GraphParams, build_operator, build_w_dist,
                         kernel_geometry, normalize)
from gsloc.retrieval import cosine_knn
from gsloc.smoothing import SmoothConfig, smooth
from gsloc.synth import SynthConfig, generate_synthetic


def _verdict(capsys, criterion: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _random_operator(rng, n_max: int, *, density: float = 0.08,
                     with_isolated: bool = False,
                     self_edges: bool = False):
    n = int(rng.integers(2, n_max + 1))
    n_isolated = int(rng.integers(0, max(2, n // 10))) if with_isolated else 0
    n_isolated = min(n_isolated, n - 2)
    graph, dense = oracles.random_weighted_graph(rng, n, density=density,
                                                 n_isolated=n_isolated)
    op = normalize(graph, GraphParams(include_self_edges=self_edges))
    return op, dense, n


# ---------------------------------------------------------------------------
# Smoothing invariants (criteria 1-6)


def test_criterion_01_zero_steps_is_identity(capsys):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    all_equal = True
    for _ in range(50):
        op, _, n = _random_operator(rng, 300)
        signal = rng.standard_normal((n, int(rng.integers(1, 17))))
        before = signal.copy()
        out = smooth(op, signal, SmoothConfig(m=0))
        all_equal &= np.array_equal(out, before)
    elapsed = time.perf_counter() - start
    ok = all_equal and elapsed < 5.0
    _verdict(capsys, "m=0 identity",
             ok, f"50 operators unchanged bit-for-bit in {elapsed:.2f}s (< 5s)")


def test_criterion_02_rows_sum_to_one(capsys):
    rng = np.random.default_rng(102)
    worst = 0.0
    for trial in range(100):
        op, _, _ = _random_operator(rng, 500, with_isolated=trial % 2 == 0,
                                    self_edges=trial % 3 == 0)
        sums = np.asarray(op.matrix.sum(axis=1)).ravel()
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    ok = worst <= 1e-9
    _verdict(capsys, "row-stochastic normalization",
             ok, f"100 graphs (isolated vertices included), max |row sum - 1| "
                 f"= {worst:.2e} (<= 1e-9)")


def test_criterion_03_matches_dense_oracle(capsys):
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(25):
        op, dense, n = _random_operator(rng, 200, density=0.1,
                                        with_isolated=trial % 4 == 0,
                                        self_edges=trial % 5 == 0)
        a, _ = oracles.dense_normalize(dense, include_self_edges=trial % 5 == 0)
        signal = rng.standard_normal((n, int(rng.integers(1, 65))))
        m = trial % 3 + 1
        want = signal
        for _ in range(m):
            want = a @ want
        got = smooth(op, signal, SmoothConfig(m=m))
        rel = np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    _verdict(capsys, "dense-oracle equivalence",
             ok, f"25 instances (n<=200, d<=64, m in 1..3), max rel Frobenius "
                 f"error = {worst:.2e} (<= 1e-10) in {elapsed:.1f}s (< 30s)")


def test_criterion_04_output_range_never_expands(capsys):
    rng = np.random.default_rng(104)
    worst = 0.0
    for trial in range(100):
        op, _, n = _random_operator(rng, 200, with_isolated=trial % 3 == 0)
        signal = rng.uniform(-50.0, 50.0, size=(n, int(rng.integers(1, 9))))
        out = smooth(op, signal, SmoothConfig(m=int(rng.integers(1, 6))))
        over = np.maximum(out.max(axis=0) - signal.max(axis=0), 0.0).max()
        under = np.maximum(signal.min(axis=0) - out.min(axis=0), 0.0).max()
        worst = max(worst, float(over), float(under))
    ok = worst <= 1e-12
    _verdict(capsys, "range contraction",
             ok, f"100 instances, max per-column range overshoot = {worst:.2e} "
                 f"(<= 1e-12)")


def test_criterion_05_constant_signals_are_fixed_points(capsys):
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(100):
        op, _, n = _random_operator(rng, 200, with_isolated=trial % 3 == 0)
        values = rng.uniform(-100.0, 100.0, size=4)
        signal = np.tile(values, (n, 1))
        out = smooth(op, signal, SmoothConfig(m=int(rng.integers(1, 6))))
        worst = max(worst, float(np.abs(out - signal).max()))
    ok = worst <= 1e-12
    _verdict(capsys, "constant preservation",
             ok, f"100 instances, max drift of constant columns = {worst:.2e} "
                 f"(<= 1e-12)")


def test_criterion_06_spectrum_stays_in_unit_interval(capsys):
    rng = np.random.default_rng(106)
    low, high, max_imag = np.inf, -np.inf, 0.0
    for trial in range(25):
        op, _, _ = _random_operator(rng, 50, density=0.15,
                                    with_isolated=trial % 3 == 0,
                                    self_edges=trial % 4 == 0)
        eigs = np.linalg.eigvals(op.matrix.toarray())
        low = min(low, float(eigs.real.min()))
        high = max(high, float(eigs.real.max()))
        max_imag = max(max_imag, float(np.abs(eigs.imag).max()))
    ok = low >= -1.0 - 1e-9 and high <= 1.0 + 1e-9 and max_imag < 1e-8
    _verdict(capsys, "eigenvalue bounds",
             ok, f"25 operators (n<=50), spectrum in [{low:.6f}, {high:.6f}] "
                 f"within [-1-1e-9, 1+1e-9], max |imag| = {max_imag:.1e}")


# ---------------------------------------------------------------------------
# Candidate generation and retrieval oracles (criteria 7-9)


def _clouds(rng):
    """Ten point clouds at mixed scales, incl. one polar and one antimeridian."""
    clouds = []
    for n, lat0, lon0, side_m in [(2000, -35.0, 138.6, 1000.0),
                                  (1400, 48.1, 11.6, 300.0),
                                  (1000, 0.0, 0.0, 600.0),
                                  (800, 37.4, -122.1, 2000.0),
                                  (600, -12.0, 77.0, 150.0),
                                  (400, 60.2, 24.9, 5000.0),
                                  (250, 22.3, 114.2, 80.0),
                                  (120, -50.0, -70.0, 400.0)]:
        dlat = side_m / METERS_PER_DEGREE
        dlon = side_m / (METERS_PER_DEGREE * math.cos(math.radians(lat0)))
        clouds.append((lat0 + rng.uniform(0.0, dlat, size=n),
                       lon0 + rng.uniform(0.0, dlon, size=n)))
    # Dense polar cap: wide longitude fan, small metric footprint.
    clouds.append((89.9 + rng.uniform(0.0, 300.0 / METERS_PER_DEGREE, size=400),
                   rng.uniform(-2.0, 2.0, size=400)))
    # Cluster straddling the antimeridian.
    lon = 179.999 + rng.uniform(0.0, 0.003, size=300)
    clouds.append((-44.9 + rng.uniform(0.0, 150.0 / METERS_PER_DEGREE, size=300),
                   (lon + 180.0) % 360.0 - 180.0))
    return clouds


def test_criterion_07_hashed_edges_match_all_pairs_scan(capsys):
    rng = np.random.default_rng(107)
    params = GraphParams()
    # The distance kernel on the distance-only cell's geometry.
    dist_only = replace(params, include_seq=False, include_latent=False)
    total_edges = 0
    worst = 0.0
    for lats, lons in _clouds(rng):
        records = [ImageRecord(f"p{i}", "cloud", i, float(a), float(b))
                   for i, (a, b) in enumerate(zip(lats, lons))]
        geometry = kernel_geometry(records, None, [dist_only])
        i_arr, j_arr, w_arr = oracles.coo_edges(build_w_dist(geometry, dist_only))
        got = {(int(i), int(j)): float(w)
               for i, j, w in zip(i_arr, j_arr, w_arr)}
        want = oracles.all_pairs_dist_edges(lats, lons, params.max_distance_m,
                                            params.alpha, params.decay_factor)
        assert got.keys() == want.keys()
        for pair, weight in want.items():
            worst = max(worst, abs(got[pair] - weight) / weight)
        total_edges += len(want)
    ok = worst <= 1e-9
    _verdict(capsys, "spatial-hash candidate completeness",
             ok, f"10 clouds (n up to 2000, polar + antimeridian), "
                 f"{total_edges} edges identical to O(n^2) scan, "
                 f"max weight rel err = {worst:.1e}")


def test_criterion_08_knn_matches_quadratic_oracle(capsys):
    rng = np.random.default_rng(108)
    queries = rng.standard_normal((1000, 64)).astype(np.float32)
    support = rng.standard_normal((5000, 64)).astype(np.float32)
    indices, scores = cosine_knn(queries, support, k=5)
    want = oracles.quadratic_knn(queries, support, k=5)
    indices_equal = len(indices) == len(want) and all(
        row == [idx for idx, _ in oracle]
        for row, oracle in zip(indices.tolist(), want))
    worst = max(abs(s_got - s_want)
                for row_scores, oracle in zip(scores.tolist(), want)
                for s_got, (_, s_want) in zip(row_scores, oracle))
    ok = indices_equal and worst <= 1e-9
    _verdict(capsys, "top-k retrieval exactness",
             ok, f"1000 queries x 5000 support, k=5: neighbor sets identical "
                 f"to quadratic oracle, max score diff = {worst:.1e}")


def test_criterion_09_whitening_yields_identity_covariance(capsys):
    rng = np.random.default_rng(109)
    mixing = rng.standard_normal((128, 128)) / math.sqrt(128.0)
    x = rng.standard_normal((5000, 128)) @ mixing + rng.standard_normal(128)
    proj = fit_projection(x, d_out=32)
    z = apply_projection(proj, x)
    cov = z.T @ z / (z.shape[0] - 1)
    worst = float(np.abs(cov - np.eye(32)).max())
    ok = worst <= 1e-4
    _verdict(capsys, "projection whitening",
             ok, f"128 -> 32 on 5000 rows, max |cov - I| = {worst:.2e} "
                 f"(<= 1e-4)")


# ---------------------------------------------------------------------------
# End-to-end localization quality (criteria 10-12)


@pytest.fixture(scope="module")
def study():
    """Ten-seed synthetic benchmark shared by the quality criteria."""
    start = time.perf_counter()
    results = {"baseline": [], "gs_both": [], "m10": [], "all_on": [],
               "dist": [], "seq": [], "latent": []}
    for seed in range(10):
        support, query, _ = generate_synthetic(SynthConfig(), seed=seed)
        query = filter_reachable_queries(query, support, radius_m=25.0)
        rows = sweep_m(support, query, GraphParams(), [0, 2, 10],
                       threshold_m=25.0, k=1, strategy="top1", query_gps=False)
        results["baseline"].append(rows[0][1])
        results["gs_both"].append(rows[1][1])
        results["m10"].append(rows[2][1])
        ablation = run_ablation(support, query, GraphParams(), SmoothConfig(m=2),
                                threshold_m=25.0, k=1, strategy="top1")
        acc = {(r.use_dist, r.use_seq, r.use_latent): r.acc_at_threshold
               for r in ablation}
        results["dist"].append(acc[(True, False, False)])
        results["seq"].append(acc[(False, True, False)])
        results["latent"].append(acc[(False, False, True)])
        results["all_on"].append(acc[(True, True, True)])
    results["elapsed"] = time.perf_counter() - start
    return {key: np.asarray(val) if key != "elapsed" else val
            for key, val in results.items()}


def test_criterion_10_smoothing_beats_baseline(capsys, study):
    base, both = study["baseline"], study["gs_both"]
    in_band = bool(((base >= 0.30) & (base <= 0.70)).all())
    wins = int((both >= base).sum())
    gain = float(both.mean() - base.mean())
    ok = (in_band and wins >= 8 and gain > 0.0 and study["elapsed"] < 120.0)
    _verdict(capsys, "synthetic end-to-end gain",
             ok, f"baseline acc {base.min():.3f}-{base.max():.3f} "
                 f"(all in [0.30, 0.70]), gs_both wins {wins}/10 seeds, "
                 f"mean gain {gain:+.3f}, study took {study['elapsed']:.1f}s "
                 f"(< 120s)")


def test_criterion_11_moderate_smoothing_is_the_sweet_spot(capsys, study):
    m0 = float(study["baseline"].mean())
    m2 = float(study["gs_both"].mean())
    m10 = float(study["m10"].mean())
    ok = m2 > m0 and m10 >= m0
    _verdict(capsys, "diffusion-depth sweep",
             ok, f"mean acc over 10 seeds: m=0 {m0:.3f}, m=2 {m2:.3f} (> m0), "
                 f"m=10 {m10:.3f} (>= m0)")


def test_criterion_12_kernels_help_jointly(capsys, study):
    singles = {name: float(study[name].mean())
               for name in ("dist", "seq", "latent")}
    best_name = max(singles, key=singles.get)
    all_on = float(study["all_on"].mean())
    ok = all_on >= singles[best_name]
    _verdict(capsys, "ablation synergy",
             ok, f"mean acc all-three {all_on:.4f} >= best single kernel "
                 f"({best_name} {singles[best_name]:.4f}); "
                 f"singles: " + ", ".join(f"{k} {v:.3f}"
                                          for k, v in singles.items()))


# ---------------------------------------------------------------------------
# Scale and reproducibility (criteria 13-14)


@pytest.fixture(scope="module")
def city() -> tuple[list[ImageRecord], np.ndarray]:
    """Criterion 13's city: 24,263 images in 44 sequences 100 m apart,
    frames 3 m apart, with i.i.d. normal 4,096-d descriptors; the tests
    only read it."""
    n, dim, n_seq = 24_263, 4_096, 44
    base, extra = divmod(n, n_seq)
    records = []
    for s in range(n_seq):
        lat0 = s * (100.0 / METERS_PER_DEGREE)
        for f in range(base + (1 if s < extra else 0)):
            records.append(ImageRecord(f"s{s}f{f}", f"s{s}", f,
                                       lat0, f * (3.0 / METERS_PER_DEGREE)))
    assert len(records) == n
    rng = np.random.default_rng(113)
    return records, rng.standard_normal((n, dim), dtype=np.float32)


def test_criterion_13_city_scale_performance(capsys, city):
    records, descriptors = city
    n, dim = descriptors.shape

    start = time.perf_counter()
    op = build_operator(records, descriptors, GraphParams())
    t_build = time.perf_counter() - start
    degree = op.matrix.nnz / n

    start = time.perf_counter()
    smoothed = smooth(op, descriptors, SmoothConfig(m=2))
    t_smooth = time.perf_counter() - start

    ok = (t_build < 30.0 and t_smooth < 60.0 and smoothed.shape == (n, dim)
          and smoothed.dtype == np.float32)
    _verdict(capsys, "city-scale performance",
             ok, f"{n} x {dim} descriptors, {degree:.1f} edges/vertex: "
                 f"graph build {t_build:.1f}s (< 30s), m=2 smoothing "
                 f"{t_smooth:.1f}s (< 60s)")


# A child that runs the command line once gsloc is imported, then prints its
# wall time from there and its peak resident memory (VmHWM) as a JSON line.
_TIMED_RUN = """
import json, sys, time
import gsloc.cli
start = time.perf_counter()
rc = gsloc.cli.main(sys.argv[1:])
wall_s = time.perf_counter() - start
with open("/proc/self/status") as fh:
    kib = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"rc": rc, "wall_s": wall_s, "peak_mb": kib / 1024}))
"""


@pytest.fixture(scope="module")
def city_files(tmp_path_factory, city):
    """Criterion 13's city written as the four input files, with 256 noisy
    queries at support fixes; about 0.4 GB, removed when the module is done."""
    records, descriptors = city
    rng = np.random.default_rng(114)
    picks = np.sort(rng.choice(len(records), 256, replace=False))
    queries = [ImageRecord(f"q{i}", f"q{i // 32}", i % 32, records[p].lat,
                           records[p].lon) for i, p in enumerate(picks.tolist())]
    noisy = descriptors[picks] + 0.5 * rng.standard_normal(
        (picks.size, descriptors.shape[1]), dtype=np.float32)
    data = tmp_path_factory.mktemp("city_files")
    try:
        flags = []
        for role, rows, desc in (("support", records, descriptors),
                                 ("query", queries, noisy)):
            write_metadata(data / f"{role}_metadata.csv", rows)
            write_descriptors(data / f"{role}_descriptors.emb1", desc)
            flags += [f"--{role}-metadata", str(data / f"{role}_metadata.csv"),
                      f"--{role}-descriptors",
                      str(data / f"{role}_descriptors.emb1")]
        yield flags
    finally:
        shutil.rmtree(data)


def _timed_child(argv: list[str]) -> dict:
    """One fresh child running the command line: its exit code, wall time
    and peak resident memory (``_TIMED_RUN``)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", _TIMED_RUN, *argv],
                           env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_criterion_13_city_scale_run_end_to_end(capsys, tmp_path, city_files):
    # The whole `run` at criterion 13's size, from the four input files:
    # load, hashes, normalization, graph, smoothing, both cache writes,
    # retrieval and the reports, cold and then warm on one cache.
    try:  # about 0.4 GB of artifacts, removed when done
        runs, outputs = {}, {}
        for label in ("cold", "warm"):
            out = tmp_path / label
            runs[label] = _timed_child(
                ["run", "--regime", "gs_support", "--m", "2", "--out-dir",
                 str(out), "--cache-dir", str(tmp_path / "cache"), *city_files])
            outputs[label] = {path.name: path.read_bytes()
                              for path in sorted(out.iterdir())
                              if path.name != ".lock"}
    finally:
        shutil.rmtree(tmp_path)
    cold, warm = runs["cold"], runs["warm"]
    peak = max(cold["peak_mb"], warm["peak_mb"])
    same = outputs["cold"] == outputs["warm"] and len(outputs["cold"]) == 4
    ok = (cold["rc"] == warm["rc"] == 0 and cold["wall_s"] < 60.0
          and peak < 1024.0 and same)
    _verdict(capsys, "city-scale run",
             ok, f"gsloc run at 24263 x 4096, 256 queries, "
                 f"gs_support m=2: cold {cold['wall_s']:.1f}s (< 60s), warm "
                 f"{warm['wall_s']:.1f}s, peak {peak:.0f} MB (< 1024 MB), "
                 f"cold and warm outputs {'identical' if same else 'DIFFER'}")


def test_criterion_13_city_scale_sweep_m_within_memory(capsys, tmp_path,
                                                       city_files):
    # The m-ladder at criterion 13's size: sweep-m walks m = 0, 1, 2 on the
    # support in one float32 iterate, under run's 1 GB ceiling.
    sweep = _timed_child(["sweep-m", "--regime", "gs_support", "--m-values",
                          "0,1,2", "--out-dir", str(tmp_path / "sweep"),
                          *city_files])
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    ok = sweep["rc"] == 0 and sweep["peak_mb"] < 1024.0 and len(rows) == 4
    _verdict(capsys, "city-scale sweep-m",
             ok, f"gsloc sweep-m at 24263 x 4096, 256 queries, gs_support "
                 f"m=0,1,2: {sweep['wall_s']:.1f}s, peak "
                 f"{sweep['peak_mb']:.0f} MB (< 1024 MB)")


def test_criterion_14_reports_are_byte_reproducible(capsys, tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--n-places", "8",
                 "--n-support-sequences", "2", "--n-query-sequences", "1",
                 "--frames-per-place", "2", "--dim", "16", "--seed", "5"]) == 0
    dataset_flags = ["--support-metadata", str(data / "support_metadata.csv"),
                     "--support-descriptors",
                     str(data / "support_descriptors.emb1"),
                     "--query-metadata", str(data / "query_metadata.csv"),
                     "--query-descriptors", str(data / "query_descriptors.emb1")]
    pipeline_flags = ["--projection", "--d-out", "8"]

    def run(name: str, cache: str, threads: int) -> dict[str, bytes]:
        out = tmp_path / name
        rc = main(["run", "--out-dir", str(out), "--cache-dir",
                   str(tmp_path / cache), "--threads", str(threads)]
                  + dataset_flags + pipeline_flags)
        assert rc == 0
        return {fname: (out / fname).read_bytes()
                for fname in ("report.json", "report.csv", "matches.csv",
                              "manifest.json")}

    first = run("a", cache="c1", threads=1)
    warm = run("b", cache="c1", threads=1)    # every stage served from cache
    cold = run("c", cache="c2", threads=4)    # recomputed, different threads
    mismatches = [f"{name} ({label})"
                  for label, other in (("warm cache", warm), ("cold cache", cold))
                  for name, blob in first.items() if other[name] != blob]
    ok = not mismatches
    report = json.loads(first["report.json"].decode())
    _verdict(capsys, "byte-level reproducibility",
             ok, "report.json/report.csv/matches.csv/manifest.json identical "
                 "across cache reuse, cold rebuild, and --threads 4"
                 + (f" (acc {report['acc_at_threshold']:.3f})" if ok else
                    f"; mismatched: {', '.join(mismatches)}"))
