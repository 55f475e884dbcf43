"""Seeded inputs, CLI commands and output checks for the three workloads.

Inputs are written once per benchmark run, before anything is timed; the
program under test only ever sees the CSV and EMB1 files. The checks re-derive
each reported number by a route of their own (3-D chords on the sphere and a
k-d tree) instead of calling back into gsloc's scoring code.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = math.pi / 180.0 * EARTH_RADIUS_M
THRESHOLD_M = 25.0

# Graph parameters of configs/quickstart.json, spelled out so that a change to
# the CLI defaults cannot silently change what a workload runs.
GRAPH_FLAGS = ["--alpha", "0.25", "--max-distance-m", "25",
               "--betas", "0.75,0.0625,0.0625", "--gamma", "0.33",
               "--threshold-m", "25", "--k", "1", "--strategy", "top1"]

# The ROADMAP grid: 3 x 2 x 2 x 3 x 5 = 180 cells in 36 graph groups.
GRID_FLAGS = ["--grid-alpha", "0.1,0.25,0.5",
              "--grid-betas", "0.75,0.0625,0.0625;0.5,0.25",
              "--grid-gamma", "0,0.33", "--grid-max-distance-m", "15,25,40",
              "--grid-m", "0,1,2,3,4"]
GRID_CELLS = 180
SWEEP_M = list(range(11))
ABLATION_ROWS = 8

# Sizes are cut from the ones the workloads are modelled on (localize: 20,000
# x 5,000 at d=256; study: SynthConfig() with 1,600 x 480; city: 24,263 x
# 4,096) so that one repetition takes a few seconds and a run can take the
# median of several.
LOCALIZE_SYNTH = dict(n_places=60, n_support_sequences=20,
                      n_query_sequences=5, dim=256)
STUDY_SYNTH = dict(n_places=20)
CITY_IMAGES, CITY_DIM, CITY_SEQUENCES = 8_000, 4_096, 44
CITY_QUERIES, CITY_QUERY_NOISE, CITY_GPS_JITTER_M = 256, 0.5, 2.0

WORKLOADS = ("localize", "study", "city")


def _write_split(data_dir: Path, role: str, records, descriptors) -> None:
    from gsloc.dataset import write_descriptors, write_metadata
    write_metadata(data_dir / f"{role}_metadata.csv", records)
    write_descriptors(data_dir / f"{role}_descriptors.emb1", descriptors)


def _city_splits(seed: int):
    """Criterion 13's layout (sequences 100 m apart, frames 3 m apart, i.i.d.
    normal descriptors) plus queries that are noisy copies of support frames
    with metre-scale GPS jitter."""
    from gsloc.dataset import ImageRecord
    rng = np.random.default_rng(seed)
    base, extra = divmod(CITY_IMAGES, CITY_SEQUENCES)
    support = []
    for s in range(CITY_SEQUENCES):
        lat0 = s * (100.0 / METERS_PER_DEGREE)
        for f in range(base + (1 if s < extra else 0)):
            support.append(ImageRecord(f"s{s}f{f}", f"s{s}", f, lat0,
                                       f * (3.0 / METERS_PER_DEGREE)))
    desc = rng.standard_normal((CITY_IMAGES, CITY_DIM), dtype=np.float32)
    picks = np.sort(rng.choice(CITY_IMAGES, CITY_QUERIES, replace=False))
    jitter = rng.normal(0.0, CITY_GPS_JITTER_M, (CITY_QUERIES, 2)) / METERS_PER_DEGREE
    query = [ImageRecord(f"q{i}", f"q{i // 32}", i % 32,
                         support[p].lat + jitter[i, 0], support[p].lon + jitter[i, 1])
             for i, p in enumerate(picks.tolist())]
    qdesc = desc[picks] + CITY_QUERY_NOISE * rng.standard_normal(
        (CITY_QUERIES, CITY_DIM), dtype=np.float32)
    return support, desc, query, qdesc


def make_inputs(workload: str, seed: int, data_dir: Path) -> dict:
    """Write the workload's four input files and return their sizes."""
    data_dir.mkdir(parents=True, exist_ok=True)
    if workload == "city":
        support, desc, query, qdesc = _city_splits(seed)
    else:
        from gsloc.synth import SynthConfig, generate_synthetic
        synth = LOCALIZE_SYNTH if workload == "localize" else STUDY_SYNTH
        s, q, _ = generate_synthetic(SynthConfig(**synth), seed=seed)
        support, desc, query, qdesc = s.records, s.descriptors, q.records, q.descriptors
    _write_split(data_dir, "support", support, desc)
    _write_split(data_dir, "query", query, qdesc)
    files = {p.name: p.stat().st_size for p in sorted(data_dir.iterdir())}
    return {
        "n_support": len(support), "n_query": len(query),
        "dim": int(desc.shape[1]),
        "bytes_on_disk": files,
        # computed: the support matrix as loaded, and one float64 copy of it
        "support_bytes_f32": int(desc.shape[0] * desc.shape[1] * 4),
        "support_bytes_f64": int(desc.shape[0] * desc.shape[1] * 8),
    }


def data_flags(data_dir: Path) -> list[str]:
    return ["--support-metadata", str(data_dir / "support_metadata.csv"),
            "--support-descriptors", str(data_dir / "support_descriptors.emb1"),
            "--query-metadata", str(data_dir / "query_metadata.csv"),
            "--query-descriptors", str(data_dir / "query_descriptors.emb1")]


def commands(workload: str, data_dir: Path, rep_dir: Path, nproc: int,
             ) -> tuple[list[list[str]], list[list[str]]]:
    """(timed job commands, untimed check commands) for one repetition.

    All commands of a repetition share one cache directory; each writes into
    its own output directory named after the command.
    """
    common = ["--cache-dir", str(rep_dir / "cache")] + GRAPH_FLAGS + data_flags(data_dir)

    def out(name: str) -> list[str]:
        return ["--out-dir", str(rep_dir / name)]

    if workload == "localize":
        return [["run"] + out("run") + common + [
            "--regime", "gs_both", "--m", "2", "--projection", "--d-out", "128",
            "--threads", "1"]], []
    if workload == "city":
        return [["run"] + out("run") + common + [
            "--regime", "gs_support", "--m", "2", "--threads", "1"]], []
    job = [
        ["gridsearch"] + out("gridsearch") + common + GRID_FLAGS
        + ["--threads", str(nproc)],
        ["sweep-m"] + out("sweep-m") + common
        + ["--m-values", ",".join(map(str, SWEEP_M))],
        ["ablate"] + out("ablate") + common + ["--m", "2"],
    ]
    # A gs_support m=2 run gives a matches.csv to re-score, and must agree
    # with the ablation's all-on row.
    check = [["run"] + out("run") + common + ["--regime", "gs_support", "--m", "2"]]
    return job, check


def queries_scored(workload: str, n_query_reachable: int) -> int:
    """Queries scored by one repetition's timed job."""
    if workload == "study":
        return n_query_reachable * (GRID_CELLS + len(SWEEP_M) + ABLATION_ROWS)
    return n_query_reachable


# ---------------------------------------------------------------------------
# Independent geometry


def _read_positions(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ids = [r["image_id"] for r in rows]
    latlon = np.array([[float(r["lat"]), float(r["lon"])] for r in rows]).reshape(-1, 2)
    return ids, latlon


def _unit_vectors(latlon: np.ndarray) -> np.ndarray:
    lat, lon = np.radians(latlon[:, 0]), np.radians(latlon[:, 1])
    return np.stack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                     np.sin(lat)], axis=1)


def _arc_m(chord: np.ndarray) -> np.ndarray:
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(chord / 2.0, 1.0))


def reachable_query_ids(data_dir: Path) -> set[str]:
    """Query ids within THRESHOLD_M of some support image, by nearest
    neighbour on 3-D unit vectors."""
    from scipy.spatial import cKDTree
    _, support = _read_positions(data_dir / "support_metadata.csv")
    qids, query = _read_positions(data_dir / "query_metadata.csv")
    chord, _ = cKDTree(_unit_vectors(support)).query(_unit_vectors(query), k=1)
    return {qid for qid, d in zip(qids, _arc_m(chord)) if d <= THRESHOLD_M}


# ---------------------------------------------------------------------------
# Output checks; each returns a list of problems, empty when the output holds


def check_run(out_dir: Path, data_dir: Path, reachable: set[str]) -> list[str]:
    """Re-score matches.csv from the metadata and compare with report.json."""
    needed = ["report.json", "report.csv", "matches.csv", "manifest.json"]
    missing = [name for name in needed if not (out_dir / name).is_file()]
    if missing:
        return [f"missing {', '.join(missing)}"]
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    sids, spos = _read_positions(data_dir / "support_metadata.csv")
    qids, qpos = _read_positions(data_dir / "query_metadata.csv")
    s_index = {sid: i for i, sid in enumerate(sids)}
    q_index = {qid: i for i, qid in enumerate(qids)}
    with (out_dir / "matches.csv").open(newline="", encoding="utf-8") as fh:
        top1 = [(r["query_id"], r["support_id"]) for r in csv.DictReader(fh)
                if r["rank"] == "1"]
    problems = []
    if {q for q, _ in top1} != reachable or len(top1) != len(reachable):
        problems.append(f"{len(top1)} matched queries, "
                        f"{len(reachable)} reachable")
    if not top1:
        return problems + ["no matches"]
    est = _unit_vectors(spos[[s_index[s] for _, s in top1]])
    truth = _unit_vectors(qpos[[q_index[q] for q, _ in top1]])
    err = _arc_m(np.linalg.norm(est - truth, axis=1))
    acc = float(np.count_nonzero(err < THRESHOLD_M) / err.size)
    median = float(np.median(err))
    if acc != report["acc_at_threshold"]:
        problems.append(f"acc {report['acc_at_threshold']!r} "
                        f"!= re-scored {acc!r}")
    if abs(median - report["median_error_m"]) > 1e-6:
        problems.append(f"median {report['median_error_m']!r} m "
                        f"!= re-scored {median!r} m")
    return problems


def _csv_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _score(row: dict) -> tuple[float, float]:
    return float(row["acc_at_threshold"]), float(row["median_error_m"])


def check_study(rep_dir: Path) -> dict[str, list[str]]:
    """Identities that tie the study's tables together, per command.

    Every m=0 grid cell, the sweep's m=0 row and the ablation's all-off row
    are the same unsmoothed retrieval; the grid cell at the base parameters
    with m=2, the ablation's all-on row and a gs_support m=2 run are the same
    smoothed retrieval.
    """
    paths = {"gridsearch": rep_dir / "gridsearch" / "gridsearch.csv",
             "sweep-m": rep_dir / "sweep-m" / "sweep.csv",
             "ablate": rep_dir / "ablate" / "ablation.csv",
             "run": rep_dir / "run" / "report.json"}
    problems = {cmd: [] for cmd in paths}
    if not all(p.is_file() for p in paths.values()):
        for cmd, p in paths.items():
            if not p.is_file():
                problems[cmd].append(f"missing {p.name}")
        return problems
    grid = _csv_rows(paths["gridsearch"])
    sweep = _csv_rows(paths["sweep-m"])
    ablation = _csv_rows(paths["ablate"])
    report = json.loads(paths["run"].read_text(encoding="utf-8"))
    if len(grid) != GRID_CELLS:
        problems["gridsearch"].append(f"{len(grid)} grid cells, expected {GRID_CELLS}")
    if [int(r["m"]) for r in sweep] != SWEEP_M:
        problems["sweep-m"].append("sweep rows do not cover m=0..10")
    if len(ablation) != ABLATION_ROWS:
        problems["ablate"].append(f"{len(ablation)} ablation rows")
    if problems["gridsearch"] or problems["sweep-m"] or problems["ablate"]:
        return problems
    all_off = _score(ablation[0])
    all_on = _score(ablation[-1])
    if any(_score(r) != all_off for r in grid if r["m"] == "0"):
        problems["gridsearch"].append(f"an m=0 cell differs from the ablation "
                                      f"all-off row {all_off}")
    if _score(sweep[0]) != all_off:
        problems["sweep-m"].append(f"m=0 row {_score(sweep[0])} != ablation "
                                   f"all-off row {all_off}")
    base = [r for r in grid if (r["alpha"], r["betas"], r["gamma"],
                                r["max_distance_m"], r["m"])
            == ("0.25", "0.75;0.0625;0.0625", "0.33", "25.0", "2")]
    if len(base) != 1 or _score(base[0]) != all_on:
        problems["ablate"].append(f"all-on row {all_on} != grid cell "
                                  f"(0.25, default betas, 0.33, 25, m=2)")
    if (report["acc_at_threshold"], report["median_error_m"]) != all_on:
        problems["run"].append(f"gs_support m=2 run != ablation all-on row {all_on}")
    return problems
