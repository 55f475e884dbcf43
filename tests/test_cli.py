"""End-to-end command-line behavior: synth/ingest/run/ablate/sweep-m/gridsearch,
config layering, exit codes, locking, and byte-identical reruns."""

from __future__ import annotations

import argparse
import dataclasses
import fcntl
import functools
import hashlib
import itertools
import json
import logging
import os
import shutil
import signal
import stat
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import gsloc.cli as cli_mod
import gsloc.dataset as dataset_mod
import gsloc.evaluation as evaluation
from gsloc.cache import TEMP_PREFIX
from gsloc.cli import OPTIONS, build_parser, main, resolve_config
from gsloc.dataset import (filter_reachable_queries, load_dataset,
                           load_descriptors, load_metadata, write_descriptors,
                           write_metadata)
from gsloc.errors import InputError
from gsloc.evaluation import REGIMES, evaluate_regime, grid_search
from gsloc.geodesy import METERS_PER_DEGREE
from gsloc.graph import GraphParams
from gsloc.smoothing import SmoothConfig
from gsloc.synth import SynthConfig

SYNTH_ARGS = ["--n-places", "6", "--n-support-sequences", "2",
              "--n-query-sequences", "1", "--frames-per-place", "2",
              "--dim", "16", "--seed", "3"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out-dir", str(out)] + SYNTH_ARGS) == 0
    return out


def _dataset_flags(data_dir):
    return ["--support-metadata", str(data_dir / "support_metadata.csv"),
            "--support-descriptors", str(data_dir / "support_descriptors.emb1"),
            "--query-metadata", str(data_dir / "query_metadata.csv"),
            "--query-descriptors", str(data_dir / "query_descriptors.emb1")]


def _command_argv(command, data_dir, out, cache):
    """Arguments that run ``command`` on data_dir into out, with cache as
    the cache directory of an evaluating command."""
    argv = [command, "--out-dir", str(out)]
    if command == "synth":
        return argv + SYNTH_ARGS
    argv += _dataset_flags(data_dir)
    if command == "ingest":
        return argv
    argv += ["--cache-dir", str(cache)]
    return argv + (["--grid-m", "0,2"] if command == "gridsearch" else [])


def _run(tmp_path, data_dir, name, extra=()):
    out = tmp_path / name
    cache = tmp_path / f"{name}-cache"
    rc = main(["run", "--out-dir", str(out), "--cache-dir", str(cache)]
              + _dataset_flags(data_dir) + list(extra))
    return rc, out


# ---------------------------------------------------------------------------
# synth + ingest


def test_synth_writes_complete_dataset(data_dir):
    for name in ("support_metadata.csv", "support_descriptors.emb1",
                 "query_metadata.csv", "query_descriptors.emb1",
                 "ground_truth.json", "synth_manifest.json"):
        assert (data_dir / name).exists()
    records = load_metadata(data_dir / "support_metadata.csv")
    assert len(records) == 2 * 6 * 2
    truth = json.loads((data_dir / "ground_truth.json").read_text())
    assert truth[records[0].image_id] == 0


def test_synth_is_seed_reproducible(tmp_path, data_dir):
    again = tmp_path / "again"
    assert main(["synth", "--out-dir", str(again)] + SYNTH_ARGS) == 0
    for name in ("support_metadata.csv", "support_descriptors.emb1",
                 "query_metadata.csv", "query_descriptors.emb1"):
        assert (again / name).read_bytes() == (data_dir / name).read_bytes()


def test_synth_config_checks_itself_on_construction():
    with pytest.raises(InputError, match="dim must be positive"):
        SynthConfig(dim=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        SynthConfig().dim = 8


def test_ingest_prints_count_table(tmp_path, data_dir, capsys):
    out = tmp_path / "ingest"
    rc = main(["ingest", "--out-dir", str(out)] + _dataset_flags(data_dir))
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["split", "sequences", "images"]
    assert lines[1].split() == ["support", "2", "24"]
    assert lines[2].split() == ["query", "1", "12"]
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    assert manifest["splits"]["support"]["n_images"] == 24
    assert manifest["splits"]["query"]["dim"] == 16


def test_ingest_of_the_support_split_alone_writes_one_split(tmp_path, data_dir,
                                                            capsys):
    out = tmp_path / "ingest"
    assert main(["ingest", "--out-dir", str(out)] + _dataset_flags(data_dir)[:4]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:-1]] == ["support"]
    manifest = json.loads((out / "ingest_manifest.json").read_text())
    assert list(manifest["splits"]) == ["support"]


@pytest.mark.parametrize("command", ["ingest", "run"])
def test_the_manifest_holds_each_input_files_sha256_taken_once(
        tmp_path, data_dir, monkeypatch, command):
    flags = _dataset_flags(data_dir)
    expected = {flag[2:].replace("-", "_"):
                hashlib.sha256(Path(path).read_bytes()).hexdigest()
                for flag, path in zip(flags[::2], flags[1::2])}
    hashed = []
    real = cli_mod.sha256_file
    monkeypatch.setattr(cli_mod, "sha256_file",
                        lambda path: hashed.append(path) or real(path))
    out = tmp_path / "out"
    assert main(_command_argv(command, data_dir, out, tmp_path / "cache")) == 0
    assert sorted(hashed) == sorted(flags[1::2])
    if command == "ingest":
        splits = json.loads((out / "ingest_manifest.json").read_text())["splits"]
        recorded = {f"{role}_{kind}": split[f"{kind}_sha256"]
                    for role, split in splits.items()
                    for kind in ("metadata", "descriptors")}
    else:
        recorded = json.loads((out / "manifest.json").read_text())[
            "provenance"]["input_sha256"]
    assert recorded == expected


def test_ingest_row_count_mismatch_exits_2(tmp_path, capsys):
    meta = tmp_path / "m.csv"
    desc = tmp_path / "d.emb1"
    from gsloc.dataset import ImageRecord
    write_metadata(meta, [ImageRecord(f"x{i}", "s", i, 0.0, 0.0)
                          for i in range(3)])
    write_descriptors(desc, np.zeros((2, 4), dtype=np.float32))
    rc = main(["ingest", "--out-dir", str(tmp_path / "out"),
               "--support-metadata", str(meta),
               "--support-descriptors", str(desc)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "2 descriptor rows, expected 3" in err


@pytest.mark.parametrize("bad_row, reason", [
    (b"y,s\xff,1,0.0,0.0\n", "not UTF-8"),
    # A csv.Error; on Python 3.10 a NUL byte raises one too.
    (b"y,s," + b"1" * 200_000 + b",0.0,0.0\n", "field larger than field limit"),
], ids=["not-utf8", "csv-error"])
def test_ingest_unreadable_metadata_exits_2(tmp_path, data_dir, capsys,
                                            bad_row, reason):
    meta = tmp_path / "m.csv"
    meta.write_bytes(b"image_id,sequence_id,frame_index,lat,lon\n"
                     b"x,s,0,0.0,0.0\n" + bad_row)
    rc = main(["ingest", "--out-dir", str(tmp_path / "out"),
               "--support-metadata", str(meta), "--support-descriptors",
               str(data_dir / "support_descriptors.emb1")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{meta}:3: " in err and reason in err


def test_ingest_duplicate_image_id_exits_2(tmp_path, data_dir, capsys):
    meta = tmp_path / "m.csv"
    records = load_metadata(data_dir / "support_metadata.csv")
    records[1] = dataclasses.replace(records[1], image_id=records[0].image_id)
    write_metadata(meta, records)
    out = tmp_path / "out"
    rc = main(["ingest", "--out-dir", str(out), "--support-metadata", str(meta),
               "--support-descriptors", str(data_dir / "support_descriptors.emb1")])
    assert rc == 2
    assert f"{meta}: duplicate image_id {records[0].image_id!r}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_input_file_exits_2(tmp_path, data_dir, capsys):
    flags = _dataset_flags(data_dir)
    flags[1] = str(tmp_path / "nope.csv")
    rc = main(["run", "--out-dir", str(tmp_path / "o")] + flags)
    assert rc == 2
    assert "not found" in capsys.readouterr().err


_BROKEN_MESSAGES = {"missing-file": "not found", "no-grid": "grid axis",
                    "dim-0": "dim must be positive",
                    "nan-radius": "max_distance_m must be positive",
                    "nan-threshold": "threshold_m must be positive",
                    "nan-spacing": "place_spacing_m must be positive",
                    "nan-noise": "noise_sigma must be >= 0",
                    "nan-jitter": "gps_jitter_m must be >= 0",
                    "nan-grid-radius": "max_distance_m must be positive",
                    "negative-grid-radius": "max_distance_m must be positive",
                    "nan-grid-gamma": "gamma must be nonnegative",
                    "negative-grid-m": "m must be nonnegative",
                    "empty-grid-axis": "grid axis 'alpha' is empty",
                    "k-0": "k=0 must be in [1,",
                    "d-out-0": "d_out=0 must be in [1,",
                    "negative-eps": "eps must be finite and nonnegative",
                    "nan-eps": "eps must be finite and nonnegative",
                    "negative-m-value": "m must be nonnegative, got -2",
                    "huge-k": "k=100000 must be in [1, 24]",
                    "huge-d-out": "d_out=100000 must be in [1, min(rows-1=23, dim=16)]",
                    "short-metadata": "24 descriptor rows, expected 8"}
_NAN_FLAGS = {"nan-radius": "--max-distance-m", "nan-threshold": "--threshold-m",
              "nan-spacing": "--place-spacing-m", "nan-noise": "--noise-sigma",
              "nan-jitter": "--gps-jitter-m"}
# Each broken grid axis, as the flag and its value; the first value of each
# is valid, so that only the check of every value refuses it.
_GRID_FLAGS = {"nan-grid-radius": ("--grid-max-distance-m", "15,nan"),
               "negative-grid-radius": ("--grid-max-distance-m", "15,-5"),
               "nan-grid-gamma": ("--grid-gamma", "0.3,nan"),
               "negative-grid-m": ("--grid-m", "0,-1"),
               "empty-grid-axis": ("--grid-alpha", "")}
# Settings that the library refuses only once the data are loaded, but whose
# value alone shows them wrong.
_EARLY_FLAGS = {"k-0": ("--k", "0"),
                "d-out-0": ("--projection", "--d-out", "0"),
                "negative-eps": ("--projection", "--d-out", "4", "--eps", "-1"),
                "nan-eps": ("--projection", "--d-out", "4", "--eps", "nan"),
                "negative-m-value": ("--m-values", "1,-2"),
                # Settings that only the loaded data show wrong: main loads
                # and checks both splits before it makes anything.
                "huge-k": ("--k", "100000"),
                "huge-d-out": ("--projection", "--d-out", "100000")}


@pytest.mark.parametrize("command, broken", [
    ("run", "missing-file"), ("ablate", "missing-file"),
    ("sweep-m", "missing-file"), ("gridsearch", "missing-file"),
    ("gridsearch", "no-grid"), ("synth", "dim-0"),
    ("run", "nan-radius"), ("run", "nan-threshold"),
    ("synth", "nan-spacing"), ("synth", "nan-noise"), ("synth", "nan-jitter"),
    ("gridsearch", "nan-grid-radius"), ("gridsearch", "negative-grid-radius"),
    ("gridsearch", "nan-grid-gamma"), ("gridsearch", "negative-grid-m"),
    ("gridsearch", "empty-grid-axis"),
    ("run", "k-0"), ("ablate", "k-0"), ("run", "d-out-0"),
    ("run", "negative-eps"), ("run", "nan-eps"),
    ("sweep-m", "negative-m-value"),
    ("run", "huge-k"), ("ablate", "huge-k"), ("run", "huge-d-out"),
    ("ingest", "short-metadata"),
])
def test_invalid_invocation_leaves_nothing_behind(tmp_path, data_dir, capsys,
                                                  command, broken):
    out, cache = tmp_path / "out", tmp_path / "cache"
    argv = _command_argv(command, data_dir, out, cache)
    if broken == "missing-file":
        argv[argv.index("--query-descriptors") + 1] = str(tmp_path / "nope.emb1")
    elif broken == "no-grid":
        argv = argv[:argv.index("--grid-m")]
    elif broken == "dim-0":
        argv += ["--dim", "0"]
    elif broken == "short-metadata":
        # The first 8 of the support split's 24 records.
        short = tmp_path / "short_metadata.csv"
        write_metadata(short, load_metadata(data_dir / "support_metadata.csv")[:8])
        argv[argv.index("--support-metadata") + 1] = str(short)
    elif broken in _GRID_FLAGS:
        argv += list(_GRID_FLAGS[broken])
    elif broken in _EARLY_FLAGS:
        argv += list(_EARLY_FLAGS[broken])
    else:
        argv += [_NAN_FLAGS[broken], "nan"]
    assert main(argv) == 2
    assert _BROKEN_MESSAGES[broken] in capsys.readouterr().err
    assert not out.exists() and not cache.exists()


def test_unset_input_path_exits_2(tmp_path, capsys):
    rc = main(["run", "--out-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "path not set" in capsys.readouterr().err


def test_run_with_no_query_within_threshold_exits_2_and_makes_nothing(
        tmp_path, data_dir, capsys):
    # Every query fix moved a tenth of a degree north, about 11 km.
    far = tmp_path / "far_metadata.csv"
    write_metadata(far, [dataclasses.replace(r, lat=r.lat + 0.1) for r
                         in load_metadata(data_dir / "query_metadata.csv")])
    out, cache = tmp_path / "out", tmp_path / "cache"
    argv = _command_argv("run", data_dir, out, cache)
    argv[argv.index("--query-metadata") + 1] = str(far)
    assert main(argv) == 2
    assert ("no query image lies within 25.0 m of the support set"
            in capsys.readouterr().err)
    assert not out.exists() and not cache.exists()


# ---------------------------------------------------------------------------
# run


def test_run_writes_reports(tmp_path, data_dir, capsys):
    rc, out = _run(tmp_path, data_dir, "a")
    assert rc == 0
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        assert (out / name).exists()
    assert _lock_is_free(out), "lock must be released"
    report = json.loads((out / "report.json").read_text())
    assert report["regime"] == "gs_both"
    assert 0.0 <= report["acc_at_threshold"] <= 1.0
    assert len(report["per_query_error_m"]) == 12
    stdout = capsys.readouterr().out
    assert "regime=gs_both: median" in stdout


def test_run_reruns_are_byte_identical(tmp_path, data_dir):
    rc1, out1 = _run(tmp_path, data_dir, "warm")
    # Same cache directory: every stage hits.
    out2 = tmp_path / "warm2"
    rc2 = main(["run", "--out-dir", str(out2), "--cache-dir",
                str(tmp_path / "warm-cache")] + _dataset_flags(data_dir))
    # Fresh cache directory: every stage recomputes.
    rc3, out3 = _run(tmp_path, data_dir, "cold")
    assert rc1 == rc2 == rc3 == 0
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        reference = (out1 / name).read_bytes()
        assert (out2 / name).read_bytes() == reference, f"{name} (warm cache)"
        assert (out3 / name).read_bytes() == reference, f"{name} (cold cache)"


def test_run_reports_its_graphs_in_the_manifest(tmp_path, data_dir):
    # One more support fix, kilometres from the rest and the only frame of
    # its sequence, has no edge.
    lone_dir = tmp_path / "lone-data"
    shutil.copytree(data_dir, lone_dir)
    records = load_metadata(lone_dir / "support_metadata.csv")
    records.append(dataclasses.replace(records[0], image_id="lone",
                                       sequence_id="lone", frame_index=0,
                                       lat=records[0].lat + 0.1))
    write_metadata(lone_dir / "support_metadata.csv", records)
    desc = load_descriptors(lone_dir / "support_descriptors.emb1", None)
    write_descriptors(lone_dir / "support_descriptors.emb1",
                      np.vstack([desc, desc[:1]]))
    argv = ["run", "--cache-dir", str(tmp_path / "cache")] + _dataset_flags(lone_dir)
    assert main(argv + ["--out-dir", str(tmp_path / "cold")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "warm")]) == 0
    cold = (tmp_path / "cold" / "manifest.json").read_bytes()
    assert (tmp_path / "warm" / "manifest.json").read_bytes() == cold
    graphs = json.loads(cold)["graphs"]
    assert set(graphs) == {"support", "query"}
    support = graphs["support"]
    assert support["n_isolated"] >= 1 and "lone" in support["isolated_ids"]
    assert support["isolated_ids"] == sorted(
        support["isolated_ids"], key=[r.image_id for r in records].index)
    edges = support["edges_per_vertex"]
    assert edges["min"] == 0 and edges["min"] <= edges["median"] <= edges["max"]
    assert edges["max"] > 0


# Five places 24 m apart, so that each distance weight is exp(-30 * 24),
# about 1e-313, and every degree is subnormal; or 24.9 m apart under the
# growing kernel, so that each weight is exp(28.5 * 24.9), about 1.7e308,
# and the degree of each middle place overflows.
_EXTREME_DEGREES = {
    "subnormal": ("24", ["--alpha", "30"]),
    "overflow": ("24.9", ["--decay-sign", "positive", "--alpha", "28.5"]),
}


@pytest.mark.parametrize("case", sorted(_EXTREME_DEGREES))
def test_run_at_an_extreme_degree_exits_0_cold_and_warm(tmp_path, capsys, case):
    spacing, flags = _EXTREME_DEGREES[case]
    data = tmp_path / "data"
    assert main(["synth", "--out-dir", str(data), "--n-places", "5",
                 "--n-support-sequences", "1", "--n-query-sequences", "1",
                 "--frames-per-place", "1", "--place-spacing-m", spacing,
                 "--gps-jitter-m", "0"]) == 0
    argv = (["run", "--cache-dir", str(tmp_path / "cache"), *_dataset_flags(data),
             "--no-include-seq", "--no-include-latent"] + flags)
    states = []
    for name in ("cold", "warm"):
        capsys.readouterr()
        rc = main(argv + ["--out-dir", str(tmp_path / name)])
        text = capsys.readouterr()
        assert rc == 0, text.err
        states.append(_cache_states(text.out)[:2])
    assert states == [["support graph cache miss", "support smoothing cache miss"],
                      ["support graph cache hit", "support smoothing cache hit"]]
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        assert ((tmp_path / "warm" / name).read_bytes()
                == (tmp_path / "cold" / name).read_bytes()), name


def test_cold_run_scans_each_loaded_split_once(tmp_path, data_dir,
                                               monkeypatch):
    scanned = []
    count = dataset_mod._nonfinite_count
    monkeypatch.setattr(dataset_mod, "_nonfinite_count",
                        lambda arr: scanned.append(arr.shape) or count(arr))
    rc, _ = _run(tmp_path, data_dir, "scans", ["--regime", "gs_support", "--m", "2"])
    assert rc == 0
    # Neither the reachable query rows nor the smoothed support written to
    # the cache are scanned again: both come from checked rows.
    assert scanned == [(24, 16), (12, 16)]


def test_cache_artifacts_are_readable_by_other_users(tmp_path, data_dir):
    rc, _ = _run(tmp_path, data_dir, "modes", ["--projection", "--d-out", "8"])
    assert rc == 0
    artifacts = list((tmp_path / "modes-cache").iterdir())
    assert {path.suffix for path in artifacts} == {".prj1", ".adj1", ".emb1"}
    for path in artifacts:
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


# ---------------------------------------------------------------------------
# Cache keys by provenance, and damaged artifacts


def _graph_keys(tmp_path, data_dir, name, extra=()):
    """(support, query) graph keys of a gs_both run in a fresh cache."""
    rc, out = _run(tmp_path, data_dir, name, ["--regime", "gs_both", *extra])
    assert rc == 0
    provenance = json.loads((out / "manifest.json").read_text())["provenance"]
    return provenance["support_graph_key"], provenance["query_graph_key"]


def _changed_input(tmp_path, data_dir, split, kind):
    """A copy of the dataset with one value of one input file moved a little;
    every query stays reachable."""
    changed = tmp_path / f"{split}-{kind}"
    shutil.copytree(data_dir, changed)
    if kind == "metadata":
        path = changed / f"{split}_metadata.csv"
        records = load_metadata(path)
        records[0] = dataclasses.replace(records[0], lon=records[0].lon + 1e-7)
        write_metadata(path, records)
    else:
        path = changed / f"{split}_descriptors.emb1"
        desc = load_descriptors(path, expected_rows=None)
        desc[0, 0] += 0.25
        write_descriptors(path, desc)
    return changed


@pytest.mark.parametrize("split, kind, changes", [
    # The query rows are those near the support fixes.
    ("support", "metadata", (True, True)),
    ("support", "descriptors", (True, False)),
    ("query", "metadata", (False, True)),
    ("query", "descriptors", (False, True)),
])
def test_graph_keys_follow_the_input_files(tmp_path, data_dir, split, kind,
                                           changes):
    base = _graph_keys(tmp_path, data_dir, "base")
    changed = _graph_keys(tmp_path, _changed_input(tmp_path, data_dir, split, kind),
                          "changed")
    assert tuple(a != b for a, b in zip(changed, base)) == changes


@pytest.mark.parametrize("base_flags, flags, changes", [
    ((), ("--threshold-m", "40"), (False, True)),
    ((), ("--no-renormalize",), (True, True)),
    ((), ("--alpha", "0.3"), (True, True)),
    ((), ("--betas", "0.5,0.25"), (True, True)),
    ((), ("--query-gps",), (False, True)),
    ((), ("--projection", "--d-out", "8"), (True, True)),
    (("--projection", "--d-out", "8"), ("--projection", "--d-out", "6"),
     (True, True)),
    (("--projection", "--d-out", "8"),
     ("--projection", "--d-out", "8", "--eps", "1e-6"), (True, True)),
])
def test_graph_keys_follow_the_settings(tmp_path, data_dir, base_flags, flags,
                                        changes):
    base = _graph_keys(tmp_path, data_dir, "base", base_flags)
    changed = _graph_keys(tmp_path, data_dir, "changed", flags)
    assert tuple(a != b for a, b in zip(changed, base)) == changes


def _cache_states(text):
    return [line.split(":")[0] for line in text.splitlines()
            if " cache " in line]


def test_warm_rerun_hits_every_stage_and_writes_the_same_bytes(
        tmp_path, data_dir, capsys):
    flags = ["--regime", "gs_both", "--projection", "--d-out", "8",
             "--query-gps"]
    rc, cold = _run(tmp_path, data_dir, "prov", flags)
    assert rc == 0
    assert _cache_states(capsys.readouterr().out) == [
        "projection cache miss", "support graph cache miss",
        "support smoothing cache miss", "query graph cache miss",
        "query smoothing cache miss"]
    cache = tmp_path / "prov-cache"
    cached = {p.name: p.read_bytes() for p in cache.iterdir()}
    warm = tmp_path / "prov-warm"
    assert main(["run", "--out-dir", str(warm), "--cache-dir", str(cache)]
                + _dataset_flags(data_dir) + flags) == 0
    assert _cache_states(capsys.readouterr().out) == [
        "projection cache hit", "support graph cache hit",
        "support smoothing cache hit", "query graph cache hit",
        "query smoothing cache hit"]
    assert {p.name: p.read_bytes() for p in cache.iterdir()} == cached
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        assert (warm / name).read_bytes() == (cold / name).read_bytes(), name


def _rerun(tmp_path, data_dir, name, flags):
    """A run into out dir `name` on the cache of _run(..., "damaged")."""
    return main(["run", "--out-dir", str(tmp_path / name), "--cache-dir",
                 str(tmp_path / "damaged-cache")]
                + _dataset_flags(data_dir) + flags)


@pytest.mark.parametrize("pattern, flags, new_m", [
    ("smoothed-*.emb1", ["--regime", "gs_support"], False),
    ("projection-*.prj1", ["--regime", "none", "--projection", "--d-out", "8"],
     False),
    # The graph is read when smoothing misses: a new m.
    ("graph-*.adj1", ["--regime", "gs_support"], True),
])
def test_a_truncated_artifact_is_rebuilt(tmp_path, data_dir, caplog, pattern,
                                         flags, new_m):
    rc, cold = _run(tmp_path, data_dir, "damaged", flags)
    assert rc == 0
    (artifact,) = (tmp_path / "damaged-cache").glob(pattern)
    whole = artifact.read_bytes()
    artifact.write_bytes(whole[:len(whole) // 2])
    with caplog.at_level(logging.WARNING, logger="gsloc.cache"):
        assert _rerun(tmp_path, data_dir, "rebuilt",
                      flags + (["--m", "1"] if new_m else [])) == 0
    assert any(artifact.name in rec.getMessage() and "rebuilding" in rec.getMessage()
               for rec in caplog.records)
    assert artifact.read_bytes() == whole
    if not new_m:
        for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
            assert ((tmp_path / "rebuilt" / name).read_bytes()
                    == (cold / name).read_bytes()), name


def test_a_non_finite_cached_payload_exits_2_and_is_removed(tmp_path, data_dir,
                                                            capsys):
    flags = ["--regime", "gs_support"]
    rc, cold = _run(tmp_path, data_dir, "damaged", flags)
    assert rc == 0
    (artifact,) = (tmp_path / "damaged-cache").glob("smoothed-*.emb1")
    whole = artifact.read_bytes()
    # The size still matches the header; the last value is a NaN.
    artifact.write_bytes(whole[:-4] + np.array([np.nan], "<f4").tobytes())
    assert _rerun(tmp_path, data_dir, "nan", flags) == 2
    err = capsys.readouterr().err
    assert artifact.name in err and "non-finite" in err
    assert not artifact.exists()
    # The next run rebuilds it.
    assert _rerun(tmp_path, data_dir, "after", flags) == 0
    assert artifact.read_bytes() == whole
    for name in ("report.json", "report.csv", "matches.csv", "manifest.json"):
        assert ((tmp_path / "after" / name).read_bytes()
                == (cold / name).read_bytes()), name


def test_a_corrupt_cached_graph_exits_2_and_is_removed(tmp_path, data_dir,
                                                       capsys):
    flags = ["--regime", "gs_support"]
    assert _run(tmp_path, data_dir, "damaged", flags)[0] == 0
    (artifact,) = (tmp_path / "damaged-cache").glob("graph-*.adj1")
    whole = artifact.read_bytes()
    # The last operator value, a float64, becomes a NaN.
    artifact.write_bytes(whole[:-8] + np.array([np.nan], "<f8").tobytes())
    assert _rerun(tmp_path, data_dir, "nan", flags + ["--m", "1"]) == 2
    assert artifact.name in capsys.readouterr().err
    assert not artifact.exists()
    assert _rerun(tmp_path, data_dir, "after", flags + ["--m", "1"]) == 0
    assert artifact.read_bytes() == whole


def test_run_regime_none_warns_about_ignored_m(tmp_path, data_dir, capsys):
    rc, _ = _run(tmp_path, data_dir, "none", ["--regime", "none"])
    assert rc == 0
    assert "ignores m=2" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags, regime, warns", [
    ("run", (), "gs_both", False),
    ("sweep-m", (), "gs_both", False),
    ("ablate", (), "gs_support", True),
    ("gridsearch", ("--grid-m", "2"), "gs_support", True),
    ("run", ("--regime", "none"), "none", True),
    ("ablate", ("--regime", "gs_query"), "gs_query", False),
], ids=["run", "sweep-m", "ablate", "gridsearch", "run-none", "ablate-gs_query"])
def test_regime_defaults_by_command_and_warns_about_ignored_query_gps(
        data_dir, capsys, command, flags, regime, warns):
    # ablate and gridsearch default to gs_support, which they have always
    # scored, and the manifest echoes it; a regime that smooths no query
    # side ignores --query-gps, and says so.
    config = resolve_config(build_parser().parse_args(
        [command, "--query-gps", *flags, *_dataset_flags(data_dir)]))
    assert config.regime == config.echo["regime"] == regime
    err = capsys.readouterr().err
    assert (f"warning: regime={regime} ignores query_gps" in err) is warns


@pytest.mark.parametrize("flags, ignored", [
    (("--eps=-1",), "ignores eps=-1.0"),
    (("--d-out", "100000"), "ignores d_out=100000"),
], ids=["eps", "d-out"])
def test_run_without_projection_warns_about_ignored_settings(
        tmp_path, data_dir, capsys, flags, ignored):
    rc, out = _run(tmp_path, data_dir, "no-projection", flags)
    assert rc == 0
    assert f"warning: projection off {ignored}" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())[
        "provenance"]["projection_key"] is None


def test_run_latent_only_graph_matches_regime_none(tmp_path, data_dir):
    # With both structural kernels off the latent kernel's gate is empty, so
    # the operator would be the identity: neither side is smoothed, and no
    # graph or smoothed descriptors are built or cached for it.
    rc1, latent = _run(tmp_path, data_dir, "latent-only",
                       ["--no-include-dist", "--no-include-seq"])
    rc2, none = _run(tmp_path, data_dir, "none", ["--regime", "none"])
    assert rc1 == rc2 == 0
    assert (latent / "matches.csv").read_bytes() == \
        (none / "matches.csv").read_bytes()
    cache = tmp_path / "latent-only-cache"
    assert not list(cache.glob("graph-*")) + list(cache.glob("smoothed-*"))
    provenance = json.loads((latent / "manifest.json").read_text())["provenance"]
    assert not [key for key in provenance
                if key.endswith(("_graph_key", "_smoothed_key"))]


def test_run_noiseless_world_is_perfect(tmp_path, capsys):
    data = tmp_path / "clean"
    assert main(["synth", "--out-dir", str(data), "--n-places", "5",
                 "--n-support-sequences", "2", "--n-query-sequences", "1",
                 "--frames-per-place", "2", "--dim", "16",
                 "--noise-sigma", "0", "--gps-jitter-m", "0"]) == 0
    rc, out = _run(tmp_path, data, "clean-run", ["--regime", "none", "--m", "0"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["acc_at_threshold"] == 1.0
    assert report["median_error_m"] == 0.0


def test_run_with_projection(tmp_path, data_dir):
    rc, out = _run(tmp_path, data_dir, "proj",
                   ["--projection", "--d-out", "8"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["projection"] == {"enabled": True, "d_out": 8,
                                                "eps": None}
    assert manifest["provenance"]["projection_key"]
    cache = tmp_path / "proj-cache"
    assert list(cache.glob("projection-*.prj1"))


def test_run_projection_without_d_out_exits_2(tmp_path, data_dir, capsys):
    rc, _ = _run(tmp_path, data_dir, "noproj", ["--projection"])
    assert rc == 2
    assert "d_out" in capsys.readouterr().err


def test_run_negative_eps_exits_2_and_caches_nothing(tmp_path, data_dir,
                                                     capsys):
    rc, _ = _run(tmp_path, data_dir, "eps",
                 ["--projection", "--d-out", "8", "--eps=-1e9"])
    assert rc == 2
    assert "eps must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "eps-cache").exists()


def _lock_is_free(out_dir):
    fd = os.open(out_dir / ".lock", os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return True
    except BlockingIOError:
        return False
    finally:
        os.close(fd)


@pytest.mark.parametrize("command", ["ingest", "synth", "run", "ablate",
                                     "sweep-m", "gridsearch"])
def test_locked_out_dir_exits_1(tmp_path, data_dir, capsys, command):
    out, cache = tmp_path / "locked", tmp_path / "c"
    out.mkdir()
    fd = os.open(out / ".lock", os.O_CREAT | os.O_WRONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        rc = main(_command_argv(command, data_dir, out, cache))
    finally:
        os.close(fd)
    assert rc == 1
    assert "locked" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == [".lock"]
    assert not cache.exists()


def test_leftover_lock_file_does_not_block_a_run(tmp_path, data_dir):
    # A run killed with SIGKILL leaves its .lock behind with no holder.
    out = tmp_path / "killed"
    out.mkdir()
    holder = subprocess.Popen(
        [sys.executable, "-c",
         "import fcntl, os, sys, time\n"
         "fd = os.open(sys.argv[1], os.O_CREAT | os.O_WRONLY)\n"
         "fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)\n"
         "print('held', flush=True)\n"
         "time.sleep(60)\n",
         str(out / ".lock")],
        stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline().strip() == "held"
        assert not _lock_is_free(out)
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    assert (out / ".lock").exists()
    rc = main(["run", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c")] + _dataset_flags(data_dir))
    assert rc == 0
    assert (out / "report.json").exists()
    assert _lock_is_free(out)


# A child that runs main(argv) with the one writer patched to SIGKILL the
# process at its N-th write into the output directory, once the temp file is
# filled and before it is renamed into place.
_KILL_AT_NTH_WRITE = """
import os, signal, sys
import gsloc.cli
n, out_dir, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
real = sys.modules["gsloc.cache"].write_file
writes = []

def dying(path, fill):
    def fill_then_die(fh):
        fill(fh)
        if os.path.dirname(os.path.abspath(path)) == out_dir:
            writes.append(path)
            if len(writes) == n:
                fh.flush()
                os.kill(os.getpid(), signal.SIGKILL)
    real(path, fill_then_die)

for module in list(sys.modules.values()):
    if module.__name__.startswith("gsloc") and getattr(module, "write_file", None) is real:
        module.write_file = dying
sys.exit(gsloc.cli.main(argv))
"""


def test_a_killed_run_leaves_no_manifest_and_no_cut_output(tmp_path, data_dir):
    # Over a complete earlier run, a run killed at any output write leaves
    # each output old or new, never cut, and no manifest to vouch for the
    # mix; a rerun clears its temp file and writes a fresh run's bytes.
    cache = tmp_path / "cache"

    def argv(out, *extra):
        return (["run", "--out-dir", str(out), "--cache-dir", str(cache)]
                + _dataset_flags(data_dir) + list(extra))

    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()
                if path.name != ".lock"}

    new_flags = ["--k", "5", "--strategy", "weighted_topk"]
    assert main(argv(tmp_path / "old")) == 0
    assert main(argv(tmp_path / "new", *new_flags)) == 0
    old, new = files(tmp_path / "old"), files(tmp_path / "new")
    assert old.keys() == new.keys() and "manifest.json" in old
    assert all(old[name] != new[name] for name in old)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for n in itertools.count(1):
        out = tmp_path / f"killed-{n}"
        shutil.copytree(tmp_path / "old", out)
        child = subprocess.run(
            [sys.executable, "-c", _KILL_AT_NTH_WRITE, str(n), str(out),
             *argv(out, *new_flags)], env=env, capture_output=True)
        if child.returncode == 0:
            break
        assert child.returncode == -signal.SIGKILL, child.stderr
        left = files(out)
        temps = [name for name in left if name.startswith(TEMP_PREFIX)]
        assert len(temps) == 1
        del left[temps[0]]
        assert "manifest.json" not in left
        assert left.keys() == old.keys() - {"manifest.json"}
        assert all(blob in (old[name], new[name]) for name, blob in left.items())
        assert main(argv(out, *new_flags)) == 0
        assert files(out) == new
    # Every output write was killed once, the manifest's last.
    assert n == len(new) + 1


# Per writing command but run, the flags that make a second run whose every
# file differs from the first one's; the first ingest reads the support
# split alone, the second both splits.
_SECOND_RUN_FLAGS = {"ablate": ["--k", "5", "--strategy", "weighted_topk"],
                     "sweep-m": ["--k", "5", "--strategy", "weighted_topk"],
                     "gridsearch": ["--grid-gamma", "0.25"],
                     "synth": ["--seed", "4", "--n-places", "5"], "ingest": []}


@pytest.mark.parametrize("command", list(_SECOND_RUN_FLAGS))
def test_a_killed_command_leaves_no_manifest_and_no_cut_output(tmp_path,
                                                               data_dir, command):
    # As for run above: over a complete earlier run, a command killed at any
    # output write leaves each output old or new, never cut, and no manifest.
    manifest = ("manifest.json" if command in ("ablate", "sweep-m", "gridsearch")
                else f"{command}_manifest.json")

    def argv(out, second):
        args = _command_argv(command, data_dir, out, tmp_path / "cache")
        if command == "ingest" and not second:
            return args[:args.index("--query-metadata")]
        return args + (_SECOND_RUN_FLAGS[command] if second else [])

    def files(out):
        return {path.name: path.read_bytes() for path in out.iterdir()
                if path.name != ".lock"}

    assert main(argv(tmp_path / "old", False)) == 0
    assert main(argv(tmp_path / "new", True)) == 0
    old, new = files(tmp_path / "old"), files(tmp_path / "new")
    assert manifest in new and old.keys() <= new.keys()
    assert all(old[name] != new[name] for name in old)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for n in itertools.count(1):
        out = tmp_path / f"killed-{n}"
        shutil.copytree(tmp_path / "old", out)
        child = subprocess.run(
            [sys.executable, "-c", _KILL_AT_NTH_WRITE, str(n), str(out),
             *argv(out, True)], env=env, capture_output=True)
        if child.returncode == 0:
            break
        assert child.returncode == -signal.SIGKILL, child.stderr
        left = files(out)
        temps = [name for name in left if name.startswith(TEMP_PREFIX)]
        assert len(temps) == 1
        del left[temps[0]]
        assert manifest not in left
        assert left.keys() == old.keys() - {manifest}
        assert all(blob in (old[name], new[name]) for name, blob in left.items())
        assert main(argv(out, True)) == 0
        assert files(out) == new
    assert n == len(new) + 1


# ---------------------------------------------------------------------------
# Config file layering


def test_config_file_applies_and_flags_win(tmp_path, data_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"graph": {"alpha": 0.5}, "m": 1}))
    rc, out = _run(tmp_path, data_dir, "cfg",
                   ["--config", str(config), "--alpha", "0.7"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["graph"]["alpha"] == 0.7  # flag beats file
    assert manifest["config"]["m"] == 1                 # file beats default


def test_config_unknown_key_exits_2(tmp_path, data_dir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"graph": {"alhpa": 0.5}}))
    rc, _ = _run(tmp_path, data_dir, "badcfg", ["--config", str(config)])
    assert rc == 2
    assert f"{config}: unknown config key 'graph.alhpa'" in capsys.readouterr().err


def test_config_invalid_json_exits_2(tmp_path, data_dir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    rc, _ = _run(tmp_path, data_dir, "badjson", ["--config", str(config)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_config_unknown_regime_exits_2(tmp_path, data_dir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"regime": "gs_bogus"}))
    rc, out = _run(tmp_path, data_dir, "badregime", ["--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'gs_bogus'" in err
    assert all(regime in err for regime in REGIMES)
    assert not (out / "report.json").exists()


def test_config_missing_file_exits_2(tmp_path, data_dir):
    rc, _ = _run(tmp_path, data_dir, "nocfg",
                 ["--config", str(tmp_path / "absent.json")])
    assert rc == 2


def test_config_top_level_list_exits_2(tmp_path, data_dir, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps([{"m": 1}]))
    rc, out = _run(tmp_path, data_dir, "listcfg", ["--config", str(config)])
    assert rc == 2
    assert f"{config}: config must be a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_config_null_for_an_option_whose_default_is_null_is_echoed(
        tmp_path, data_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(
        {"projection": {"enabled": True, "d_out": 8, "eps": None}}))
    rc, out = _run(tmp_path, data_dir, "nullcfg", ["--config", str(config)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["projection"] == {"enabled": True, "d_out": 8,
                                                "eps": None}


@pytest.mark.parametrize("settings, key", [
    ({"k": "x"}, "k"),
    ({"k": 1.5}, "k"),
    ({"graph": {"alpha": "x"}}, "graph.alpha"),
    ({"m": None}, "m"),
    ({"threshold_m": "25"}, "threshold_m"),
    ({"graph": {"betas": 0.5}}, "graph.betas"),
    ({"graph": 5}, "graph"),
    ({"m_values": 3}, "m_values"),
    ({"projection": {"enabled": True, "d_out": "a"}}, "projection.d_out"),
    ({"threads": "two"}, "threads"),
    ({"renormalize": 1}, "renormalize"),
    ({"grid": {"m": [1.5]}}, "grid.m"),
])
def test_config_wrongly_typed_value_exits_2(tmp_path, data_dir, capsys,
                                            settings, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(settings))
    rc, out = _run(tmp_path, data_dir, "badtype", ["--config", str(config)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{config}: {key} must be " in err
    assert not (out / "report.json").exists()


def test_config_integers_for_floats_match_the_flags(tmp_path, data_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"graph": {"alpha": 1, "max_distance_m": 25},
                                  "threshold_m": 25}))
    rc_file, out_file = _run(tmp_path, data_dir, "ints", ["--config", str(config)])
    rc_flag, out_flag = _run(tmp_path, data_dir, "floats",
                             ["--alpha", "1", "--max-distance-m", "25",
                              "--threshold-m", "25"])
    assert rc_file == rc_flag == 0
    for name in ("manifest.json", "report.json", "report.csv", "matches.csv"):
        assert (out_file / name).read_bytes() == (out_flag / name).read_bytes(), name
    cached = {p.name for p in (tmp_path / "ints-cache").iterdir()}
    assert cached == {p.name for p in (tmp_path / "floats-cache").iterdir()}


def test_run_manifest_config_echo(tmp_path, data_dir):
    """The whole config echo of a run layered from a file and flags. A
    file's seed, which only synth reads, is accepted and left out."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "graph": {"alpha": 0.5, "betas": [0.5, 0.25], "include_seq": False},
        "m": 1, "k": 2, "strategy": "weighted_topk", "threads": 2,
        "projection": {"enabled": True, "d_out": 8}, "query_gps": True,
        "m_values": [0, 1], "grid": {"m": [0, 1]}, "seed": 5}))
    rc, out = _run(tmp_path, data_dir, "echo",
                   ["--config", str(config), "--alpha", "0.7", "--eps", "0.01",
                    "--regime", "gs_support", "--threshold-m", "30",
                    "--no-renormalize"])
    assert rc == 0
    flags = _dataset_flags(data_dir)
    assert json.loads((out / "manifest.json").read_text())["config"] == {
        "inputs": {"support_metadata": flags[1], "support_descriptors": flags[3],
                   "query_metadata": flags[5], "query_descriptors": flags[7]},
        "graph": {"alpha": 0.7, "max_distance_m": 25.0, "betas": [0.5, 0.25],
                  "gamma": 0.33, "include_dist": True, "include_seq": False,
                  "include_latent": True, "decay_sign": "negative",
                  "include_self_edges": False},
        "m": 1, "regime": "gs_support", "k": 2, "strategy": "weighted_topk",
        "threshold_m": 30.0,
        "projection": {"enabled": True, "d_out": 8, "eps": 0.01},
        "renormalize": False, "query_gps": True,
    }


# ---------------------------------------------------------------------------
# CLI and library share one regime path


@pytest.mark.parametrize("query_gps", [False, True])
@pytest.mark.parametrize("regime", REGIMES)
def test_run_matches_library_regime_paths(tmp_path, data_dir, monkeypatch,
                                          regime, query_gps):
    gps_flag = "--query-gps" if query_gps else "--no-query-gps"
    rc, out = _run(tmp_path, data_dir, "parity",
                   ["--regime", regime, "--m", "2", "--no-renormalize", gps_flag])
    assert rc == 0
    cli_errors = json.loads((out / "report.json").read_text())["per_query_error_m"]

    support = load_dataset(data_dir / "support_metadata.csv",
                           data_dir / "support_descriptors.emb1", role="support")
    query = filter_reachable_queries(
        load_dataset(data_dir / "query_metadata.csv",
                     data_dir / "query_descriptors.emb1", role="query"),
        support, radius_m=25.0)
    library = evaluate_regime(support, query, GraphParams(), SmoothConfig(m=2),
                              regime, query_gps=query_gps)

    grid_reports = []
    real = evaluation.compute_report

    def capture(*args, **kwargs):
        grid_reports.append(real(*args, **kwargs))
        return grid_reports[-1]
    monkeypatch.setattr(evaluation, "compute_report", capture)
    grid_search(support, query, {"m": [2]}, regime=regime, query_gps=query_gps)

    assert len(grid_reports) == 1
    assert cli_errors == library.per_query_error_m
    assert grid_reports[0].per_query_error_m == library.per_query_error_m


# ---------------------------------------------------------------------------
# ablate / sweep-m / gridsearch


def test_ablate_writes_eight_rows(tmp_path, data_dir, capsys):
    out = tmp_path / "ablate"
    rc = main(["ablate", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c")] + _dataset_flags(data_dir))
    assert rc == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "use_dist,use_seq,use_latent,median_error_m,acc_at_threshold"
    assert len(lines) == 9
    flags = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert flags[0] == ("0", "0", "0")
    assert flags[-1] == ("1", "1", "1")
    assert len(set(flags)) == 8


def test_sweep_m_writes_table_and_plot_data(tmp_path, data_dir):
    out = tmp_path / "sweep"
    rc = main(["sweep-m", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c"), "--m-values", "0,2"]
              + _dataset_flags(data_dir))
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "m,acc_at_threshold,median_error_m"
    assert len(lines) == 3
    plot = (out / "sweep_plot.dat").read_text().splitlines()
    assert [row.split("\t")[0] for row in plot] == ["0", "2"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["m_values"] == [0, 2]


def test_sweep_m_default_runs_zero_through_ten(tmp_path, data_dir):
    out = tmp_path / "sweep-default"
    rc = main(["sweep-m", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c")] + _dataset_flags(data_dir))
    assert rc == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 12
    assert lines[1].startswith("0,") and lines[-1].startswith("10,")


def test_gridsearch_reports_best_cell(tmp_path, data_dir, capsys):
    out = tmp_path / "grid"
    rc = main(["gridsearch", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c"), "--grid-alpha", "0.2,0.3",
               "--grid-m", "0,2"] + _dataset_flags(data_dir))
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "evaluated 4 grid cells" in stdout
    assert "best: alpha=" in stdout and "beta1=" in stdout
    lines = (out / "gridsearch.csv").read_text().splitlines()
    assert len(lines) == 5
    best = json.loads((out / "best_params.json").read_text())
    assert best["graph"]["alpha"] in (0.2, 0.3)
    assert best["m"] in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == {"alpha": [0.2, 0.3], "m": [0, 2]}


def test_gridsearch_without_grid_exits_2(tmp_path, data_dir, capsys):
    out = tmp_path / "nogrid"
    rc = main(["gridsearch", "--out-dir", str(out), "--cache-dir",
               str(tmp_path / "c")] + _dataset_flags(data_dir))
    assert rc == 2
    assert "grid" in capsys.readouterr().err


def test_gridsearch_threads_do_not_change_any_output(tmp_path, data_dir):
    outputs = []
    for threads in ("1", "3"):
        out = tmp_path / f"grid-{threads}"
        rc = main(["gridsearch", "--out-dir", str(out), "--cache-dir",
                   str(tmp_path / f"c-{threads}"), "--grid-alpha", "0.2,0.3",
                   "--grid-gamma", "0.0,0.33", "--grid-m", "0,1,2",
                   "--regime", "gs_both", "--threads", threads]
                  + _dataset_flags(data_dir))
        assert rc == 0
        outputs.append({name: (out / name).read_bytes() for name in
                        ("gridsearch.csv", "best_params.json", "manifest.json")})
    assert outputs[0] == outputs[1]


def test_ablate_threads_do_not_change_any_output(tmp_path, data_dir,
                                                 monkeypatch):
    pools = []

    class Pool(evaluation.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(evaluation, "ThreadPoolExecutor", Pool)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"ablate-{threads}"
        rc = main(["ablate", "--out-dir", str(out), "--cache-dir",
                   str(tmp_path / f"c-{threads}"), "--m", "2",
                   "--threads", threads] + _dataset_flags(data_dir))
        assert rc == 0
        outputs.append({name: (out / name).read_bytes()
                        for name in ("ablation.csv", "manifest.json")})
    assert outputs[0] == outputs[1]
    # Only the two-thread run scores its rows in a pool.
    assert pools == [2]


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_threads_below_one_exit_2(tmp_path, data_dir, capsys, threads):
    rc = main(["gridsearch", "--out-dir", str(tmp_path / "g"), "--cache-dir",
               str(tmp_path / "c"), "--grid-m", "0,2", f"--threads={threads}"]
              + _dataset_flags(data_dir))
    assert rc == 2
    assert "threads must be at least 1" in capsys.readouterr().err


def _reachable_splits(data_dir):
    """data_dir's splits as the library reads them, the queries kept within
    the default threshold."""
    support = load_dataset(data_dir / "support_metadata.csv",
                           data_dir / "support_descriptors.emb1", role="support")
    query = load_dataset(data_dir / "query_metadata.csv",
                         data_dir / "query_descriptors.emb1", role="query")
    return support, filter_reachable_queries(query, support, radius_m=25.0)


@pytest.mark.parametrize("regime", REGIMES)
def test_sweep_m_scores_its_regime(tmp_path, data_dir, regime):
    out = tmp_path / "sweep"
    assert main(["sweep-m", "--out-dir", str(out), "--cache-dir",
                 str(tmp_path / "c"), "--m-values", "0,1,2", "--regime", regime,
                 "--no-renormalize"] + _dataset_flags(data_dir)) == 0
    support, query = _reachable_splits(data_dir)
    rows = [line.split(",")
            for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert [m for m, _, _ in rows] == ["0", "1", "2"]
    for m, acc, median in rows:
        report = evaluate_regime(support, query, GraphParams(),
                                 SmoothConfig(m=int(m)), regime)
        assert (float(acc), float(median)) == (
            report.acc_at_threshold, report.median_error_m), f"m={m}"


# ---------------------------------------------------------------------------
# Every flag a command takes is read: changing its value changes an output


_CONTRACT_COMMANDS = ("run", "ablate", "sweep-m", "gridsearch")
# Flags every run of a command takes: gridsearch needs a grid axis.
_CONTRACT_BASE = {"gridsearch": ("--grid-m", "0,2")}
# One valid value other than the default for each flag. The input paths
# name changed copies of their files (see `contract`), --out-dir changes
# with every run, and --cache-dir names the baseline's warm cache.
_CHANGED = {
    "--out-dir": (), "--cache-dir": (), "--threads": ("--threads", "2"),
    "--alpha": ("--alpha", "0.6"), "--max-distance-m": ("--max-distance-m", "60"),
    "--betas": ("--betas", "0.5,0.25"), "--gamma": ("--gamma", "0"),
    "--include-dist": ("--no-include-dist",),
    "--include-seq": ("--no-include-seq",),
    "--include-latent": ("--no-include-latent",),
    "--decay-sign": ("--decay-sign", "positive"),
    "--include-self-edges": ("--include-self-edges",),
    "--m": ("--m", "1"), "--regime": ("--regime", "none"), "--k": ("--k", "3"),
    "--strategy": ("--strategy", "weighted_topk"),
    "--threshold-m": ("--threshold-m", "40"),
    "--projection": ("--projection", "--d-out", "8"),
    "--d-out": ("--d-out", "6"), "--eps": ("--eps", "0.5"),
    "--renormalize": ("--no-renormalize",), "--query-gps": ("--query-gps",),
    "--m-values": ("--m-values", "0,2"),
    "--grid-alpha": ("--grid-alpha", "0.1,0.5"),
    "--grid-betas": ("--grid-betas", "0.5,0.25"),
    "--grid-gamma": ("--grid-gamma", "0,0.33"),
    "--grid-max-distance-m": ("--grid-max-distance-m", "15,40"),
    "--grid-m": ("--grid-m", "1,2"),
}
# Flags that act only beside another: both runs take these.
_ENABLING = {"--d-out": ("--projection", "--d-out", "8"),
             "--eps": ("--projection", "--d-out", "8"),
             "--k": ("--strategy", "weighted_topk"),
             "--strategy": ("--k", "3")}
# By design these change no output; the test asserts the same bytes.
_SAME_BYTES = {
    "--out-dir": "names where the outputs go",
    "--cache-dir": "holds intermediates; a warm cache gives a cold one's bytes",
    "--threads": "sizes the pool of cells; outputs are the same at any size",
}
# Conditional no-ops, decided one by one: (command, flag, flags both runs
# take) -> reason. The test asserts the same bytes.
_CONDITIONAL = {
    ("gridsearch", "--m", ()):
        "the grid's m axis, which every gridsearch here sets, replaces --m",
    ("run", "--m", ("--regime", "none")):
        "regime none smooths no side; run warns that it ignores m",
    **{(command, "--k", ("--strategy", "top1")):
       "top1 reads the nearest neighbour only, and a table has no match rows"
       for command in ("ablate", "sweep-m", "gridsearch")},
    **{(command, "--query-gps", ()):
       "gs_support, their default regime, smooths no query side; main warns "
       "that it ignores query_gps"
       for command in ("ablate", "gridsearch")},
}
# Conditional no-ops where their condition does not hold: (command, flag,
# flags both runs take). The test asserts that the output changes.
_LIFTED = tuple((command, "--query-gps", ("--regime", "gs_both"))
                for command in ("ablate", "gridsearch"))


def _contract_cases():
    for command in _CONTRACT_COMMANDS:
        for flag in (o.flag for o in OPTIONS if command in o.commands):
            both = _ENABLING.get(flag, ())
            same = flag in _SAME_BYTES or (command, flag, both) in _CONDITIONAL
            yield pytest.param(command, flag, both, same, id=f"{command}{flag}")
    cases = [(case, True) for case in _CONDITIONAL if case[2]]
    for (command, flag, both), same in cases + [(case, False) for case in _LIFTED]:
        yield pytest.param(command, flag, both, same,
                           id=f"{command}{flag}-under{''.join(both)}")


def _written(out):
    """The files a command wrote, less the echoes of every setting:
    manifest.json and report.json's config_snapshot."""
    files = {}
    for path in out.iterdir():
        if path.name == "report.json":
            files[path.name] = dict(json.loads(path.read_text()),
                                    config_snapshot=None)
        elif path.name not in (".lock", "manifest.json"):
            files[path.name] = path.read_bytes()
    return files


@pytest.fixture(scope="module")
def contract(data_dir, tmp_path_factory):
    """(baseline, run, changed inputs). run(command, flags, cache) runs the
    command in fresh directories (or on the given cache) on data_dir's
    splits with rows scaled off unit length, and returns what it wrote and
    its cache; baseline is run made once per command and flags. Each input
    flag maps to a changed, valid copy of its file: descriptor rows
    reversed, fixes moved 3 m."""
    root = tmp_path_factory.mktemp("contract")
    base, changed = root / "base", root / "changed"
    shutil.copytree(data_dir, base)
    changed.mkdir()
    for split in ("support", "query"):
        name = f"{split}_descriptors.emb1"
        desc = load_descriptors(base / name, expected_rows=None)
        desc *= (1 + np.arange(len(desc)) % 4)[:, None].astype(np.float32)
        write_descriptors(base / name, desc)
        write_descriptors(changed / name, desc[::-1].copy())
        name = f"{split}_metadata.csv"
        write_metadata(changed / name, [
            dataclasses.replace(r, lat=r.lat + 3.0 / METERS_PER_DEGREE)
            for r in load_metadata(base / name)])
    flags = _dataset_flags(changed)
    inputs = {flag: (flag, path) for flag, path in zip(flags[::2], flags[1::2])}
    names = itertools.count()

    def run(command, flags, cache=None):
        n = next(names)
        out, cache = root / f"out{n}", cache or root / f"cache{n}"
        assert main([command, "--out-dir", str(out), "--cache-dir", str(cache),
                     *_dataset_flags(base), *_CONTRACT_BASE.get(command, ()),
                     *flags]) == 0, (command, flags)
        return _written(out), cache
    return functools.cache(run), run, inputs


@pytest.mark.parametrize("command, flag, both, same", _contract_cases())
def test_every_flag_a_command_takes_changes_its_output(contract, command, flag,
                                                       both, same):
    baseline, run, inputs = contract
    written, cache = baseline(command, both)
    changed, _ = run(command, both + (inputs[flag] if flag in inputs
                                      else _CHANGED[flag]),
                     cache if flag == "--cache-dir" else None)
    if same:
        assert changed == written
    else:
        assert changed != written


# ---------------------------------------------------------------------------
# Every value that an option's kind makes invalid exits 2 and makes nothing


def _invalid_values(kind) -> list[str]:
    """Flag values that the kind makes invalid: a choice not offered; NaN,
    both infinities, a negative, 0 and text that does not parse for a
    number; and for a list, the
    empty list and each of its item kind's values as its one item. bool and
    str take every value they can spell."""
    if isinstance(kind, tuple):
        return ["not-a-choice"]
    if typing.get_origin(kind) is list:
        return list(dict.fromkeys(["", *_invalid_values(typing.get_args(kind)[0])]))
    return {float: ["nan", "inf", "-inf", "-1", "0", "x"],
            int: ["-1", "0", "x"]}.get(kind, [])


# Values of that list which an option takes by design.
_VALID_VALUES = {
    ("--seed", "0"): "the default seed",
    ("--m", "0"): "m = 0 smooths nothing: the unsmoothed baseline",
    ("--m-values", "0"): "the sweep's unsmoothed baseline",
    ("--grid-m", "0"): "the grid's unsmoothed baseline",
    ("--gamma", "0"): "a latent kernel of weight 0 adds no edge",
    ("--grid-gamma", "0"): "a latent kernel of weight 0 adds no edge",
    ("--eps", "0"): "no ridge: every kept eigenvalue is above the floor",
    ("--noise-sigma", "0"): "noiseless descriptors",
    ("--gps-jitter-m", "0"): "exact fixes",
}


def _invalid_cases():
    for option in OPTIONS:
        command = option.commands[0]
        for value in _invalid_values(option.kind):
            if (option.flag, value) not in _VALID_VALUES:
                yield pytest.param(command, option.flag, value,
                                   id=f"{command}{option.flag}={value}")


@pytest.mark.parametrize("command, flag, value", _invalid_cases())
def test_every_invalid_value_exits_2_and_makes_nothing(tmp_path, data_dir,
                                                       capsys, command, flag,
                                                       value):
    out, cache = tmp_path / "out", tmp_path / "cache"
    argv = [*_command_argv(command, data_dir, out, cache),
            *_ENABLING.get(flag, ()), f"{flag}={value}"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a choice not offered
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error" in err
    assert not out.exists() and not cache.exists()


# ---------------------------------------------------------------------------
# Misc


# --cache-dir and --threads only on the evaluating commands, --seed only where
# it is read; ablate sets the kernel switches itself, and sweep-m takes
# --m-values in place of --m.
_COMMON = ["-h", "--help", "--config", "--out-dir"]
_EVAL = ["-h", "--help", "--config", "--cache-dir", "--out-dir", "--threads"]
_DATA = ["--support-metadata", "--support-descriptors", "--query-metadata",
         "--query-descriptors"]
_PIPELINE = ["--alpha", "--max-distance-m", "--betas", "--gamma",
             "--include-dist", "--no-include-dist", "--include-seq",
             "--no-include-seq", "--include-latent", "--no-include-latent",
             "--decay-sign", "--include-self-edges", "--no-include-self-edges",
             "--m", "--regime", "--k", "--strategy", "--threshold-m",
             "--projection", "--no-projection", "--d-out", "--eps",
             "--renormalize", "--no-renormalize", "--query-gps",
             "--no-query-gps"]


def _pipeline(*left_out):
    return [flag for flag in _PIPELINE
            if flag[2:].removeprefix("no-") not in left_out]


_FLAGS = {
    "ingest": _COMMON + _DATA,
    "synth": _COMMON + ["--seed", "--n-places", "--n-support-sequences",
                        "--n-query-sequences", "--frames-per-place", "--dim",
                        "--noise-sigma", "--place-spacing-m", "--gps-jitter-m"],
    "run": _EVAL + _DATA + _PIPELINE,
    "ablate": _EVAL + _DATA + _pipeline("include-dist", "include-seq",
                                        "include-latent"),
    "sweep-m": _EVAL + _DATA + _pipeline("m") + ["--m-values"],
    "gridsearch": _EVAL + _DATA + _PIPELINE + [
        "--grid-alpha", "--grid-betas", "--grid-gamma", "--grid-max-distance-m",
        "--grid-m"],
}
_HELP = {
    "-h": "show this help message and exit",
    "--config": "JSON config file; flags override it",
    "--betas": "comma-separated, one weight per frame gap",
    "--projection": "fit PCA+whitening on the support set",
    "--query-gps": "allow GPS edges in the query graph (leaks truth)",
    "--m-values": "comma-separated, e.g. 0,1,2,5,10",
}


def test_parser_flags_and_help_are_pinned():
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(_FLAGS)
    assert [(a.dest, a.help) for a in subparsers._choices_actions] == [
        ("ingest", "validate datasets and write a manifest"),
        ("synth", "generate a synthetic dataset"),
        ("run", "full retrieval + evaluation run"),
        ("ablate", "evaluate all kernel subsets"),
        ("sweep-m", "evaluate a range of m values"),
        ("gridsearch", "exhaustive parameter search"),
    ]
    for name, sub in subparsers.choices.items():
        actions = sub._actions
        assert [s for a in actions for s in a.option_strings] == _FLAGS[name], name
        assert {a.option_strings[0]: a.help for a in actions if a.help} == {
            flag: text for flag, text in _HELP.items() if flag in _FLAGS[name]}, name


def test_cli_import_leaves_scipy_spatial_out():
    # Importing scipy.spatial after gsloc.cli takes 0.10-0.12 s and 13.5-13.7
    # MB of peak RSS on a 2-vCPU VM, which every command would pay.
    code = "import sys, gsloc.cli; sys.exit('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def _in_process(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of main(argv) in this process; argparse
    rejects bad arguments by raising SystemExit, as a fresh process exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _fresh_process(argv) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "gsloc.cli", *argv], env=env,
                          capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def test_main_calls_in_one_process_match_fresh_processes(tmp_path, data_dir,
                                                        capsys):
    # One parser serves every main() call of a process, so no call may leave
    # anything in it: not a flag it set, nor a flag it rejected.
    calls = [
        _command_argv("run", data_dir, tmp_path / "toggled", tmp_path / "cache")
        + ["--no-include-latent", "--include-self-edges", "--m", "1"],
        ["run", "--no-such-flag"],
        _command_argv("run", data_dir, tmp_path / "plain", tmp_path / "cache"),
        _command_argv("gridsearch", data_dir, tmp_path / "grid", tmp_path / "cache"),
    ]
    outputs = {}
    for label, call in (("in process", lambda argv: _in_process(argv, capsys)),
                        ("fresh", _fresh_process)):
        results = [call(argv) for argv in calls]
        files = {path.relative_to(tmp_path): path.read_bytes()
                 for path in sorted(tmp_path.rglob("*"))
                 if path.is_file() and path.parts[len(tmp_path.parts)] != "cache"}
        outputs[label] = results, files
        shutil.rmtree(tmp_path)
        tmp_path.mkdir()
    results, files = outputs["fresh"]
    assert [code for code, _, _ in results] == [0, 2, 0, 0]
    assert {Path("toggled", "report.json"), Path("plain", "report.json"),
            Path("grid", "gridsearch.csv")} <= set(files)
    assert outputs["in process"] == outputs["fresh"]


def test_run_flag_toggles_reach_the_manifest(tmp_path, data_dir):
    rc, out = _run(tmp_path, data_dir, "toggles",
                   ["--no-include-latent", "--include-self-edges",
                    "--decay-sign", "positive", "--query-gps"])
    assert rc == 0
    graph = json.loads((out / "manifest.json").read_text())["config"]["graph"]
    assert graph["include_latent"] is False
    assert graph["include_self_edges"] is True
    assert graph["decay_sign"] == "positive"
