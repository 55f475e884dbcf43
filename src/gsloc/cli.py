"""Command-line pipeline: ingest, synth, run, ablate, sweep-m, gridsearch.

Configuration comes from built-in defaults, optionally overlaid by a JSON
config file (--config), overlaid in turn by explicit flags — flags always win.
Every command that writes takes ownership of its output directory through a
lock file, and `run` caches its intermediates (projection, operator, smoothed
descriptors) under content+parameter hashes so repeated or swept runs skip
finished stages.

Exit codes: 0 success, 1 internal error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import copy
import fcntl
import functools
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .cache import Cache, param_key, sha256_file
from .dataset import (Dataset, filter_reachable_queries, load_dataset,
                      load_descriptors, write_descriptors, write_metadata)
from .errors import InputError
from .evaluation import (REGIMES, ablation_table_csv, compute_report,
                         grid_search, grid_table_csv, regime_descriptors,
                         render_report, run_ablation, sweep_m, sweep_plot_data,
                         sweep_table_csv, write_report_csv, write_report_json)
from .features import (apply_projection, fit_projection, l2_normalize,
                       load_projection, save_projection)
from .graph import GraphParams, build_operator, load_operator, save_operator
from .retrieval import cosine_knn, write_matches
from .smoothing import SmoothConfig, smooth
from .synth import SynthConfig, generate_synthetic

DEFAULTS: dict = {
    "support_metadata": None,
    "support_descriptors": None,
    "query_metadata": None,
    "query_descriptors": None,
    "cache_dir": "cache",
    "out_dir": "out",
    "graph": {
        "alpha": 0.25,
        "max_distance_m": 25.0,
        "betas": [0.75, 0.0625, 0.0625],
        "gamma": 0.33,
        "include_dist": True,
        "include_seq": True,
        "include_latent": True,
        "decay_sign": "negative",
        "include_self_edges": False,
    },
    "m": 2,
    "regime": "gs_both",
    "k": 1,
    "strategy": "top1",
    "threshold_m": 25.0,
    "projection": {"enabled": False, "d_out": None, "eps": None},
    "renormalize": True,
    "query_gps": False,
    "seed": 0,
    "threads": 1,
    "m_values": list(range(11)),
    "grid": {},
}


@dataclass
class RunConfig:
    """Fully resolved configuration for one pipeline invocation."""

    support_metadata: str
    support_descriptors: str
    query_metadata: str
    query_descriptors: str
    cache_dir: str
    out_dir: str
    graph: GraphParams
    smoothing: SmoothConfig
    regime: str
    k: int
    strategy: str
    threshold_m: float
    projection_enabled: bool
    projection_d_out: int | None
    projection_eps: float | None
    renormalize: bool
    query_gps: bool
    seed: int
    threads: int
    m_values: list[int]
    grid: dict


class OutDirLock:
    """Exclusive ownership of an output directory for the life of a command.

    The lock is an ``flock`` on ``.lock``, which the kernel releases when the
    holder exits, however it exits, so a killed run never blocks the next
    one. The file is never removed: unlinking it on release would let a
    waiting run lock a file that the next run no longer sees.
    """

    def __init__(self, out_dir: Path):
        self.path = out_dir / ".lock"
        self._fd: int | None = None

    def __enter__(self) -> "OutDirLock":
        fd = os.open(self.path, os.O_CREAT | os.O_WRONLY, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RuntimeError(
                f"output directory is locked by another run ({self.path})") from None
        self._fd = fd
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            os.close(self._fd)  # closing the descriptor drops the flock
            self._fd = None


# ---------------------------------------------------------------------------
# Config plumbing


def _deep_update(base: dict, overlay: dict, path: str = "") -> dict:
    for key, value in overlay.items():
        if key not in base:
            raise InputError(f"unknown config key {path + key!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            _deep_update(base[key], value, path + key + ".")
        else:
            base[key] = value
    return base


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise InputError(f"expected comma-separated integers, got {text!r}") from None


def _beta_lists(text: str) -> list[list[float]]:
    """Semicolon-separated beta tuples, e.g. `0.75,0.0625;0.5,0.25`."""
    return [_floats(part) for part in text.split(";") if part.strip() != ""]


# (flag attribute, config path) pairs applied after the config file; a flag
# left at None was not given and changes nothing.
_FLAG_MAP: list[tuple[str, tuple[str, ...]]] = [
    ("support_metadata", ("support_metadata",)),
    ("support_descriptors", ("support_descriptors",)),
    ("query_metadata", ("query_metadata",)),
    ("query_descriptors", ("query_descriptors",)),
    ("cache_dir", ("cache_dir",)),
    ("out_dir", ("out_dir",)),
    ("alpha", ("graph", "alpha")),
    ("max_distance_m", ("graph", "max_distance_m")),
    ("betas", ("graph", "betas")),
    ("gamma", ("graph", "gamma")),
    ("include_dist", ("graph", "include_dist")),
    ("include_seq", ("graph", "include_seq")),
    ("include_latent", ("graph", "include_latent")),
    ("decay_sign", ("graph", "decay_sign")),
    ("include_self_edges", ("graph", "include_self_edges")),
    ("m", ("m",)),
    ("regime", ("regime",)),
    ("k", ("k",)),
    ("strategy", ("strategy",)),
    ("threshold_m", ("threshold_m",)),
    ("projection", ("projection", "enabled")),
    ("d_out", ("projection", "d_out")),
    ("eps", ("projection", "eps")),
    ("renormalize", ("renormalize",)),
    ("query_gps", ("query_gps",)),
    ("seed", ("seed",)),
    ("threads", ("threads",)),
    ("m_values", ("m_values",)),
    ("grid_alpha", ("grid", "alpha")),
    ("grid_betas", ("grid", "betas")),
    ("grid_gamma", ("grid", "gamma")),
    ("grid_max_distance_m", ("grid", "max_distance_m")),
    ("grid_m", ("grid", "m")),
]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = copy.deepcopy(DEFAULTS)
    cfg["grid"] = {}  # grid axes are additive, not fixed keys
    config_path = getattr(args, "config", None)
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise InputError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise InputError(f"{path}: config must be a JSON object")
        grid = loaded.pop("grid", None)
        _deep_update(cfg, loaded)
        if grid is not None:
            if not isinstance(grid, dict):
                raise InputError(f"{path}: grid must be a JSON object")
            cfg["grid"] = grid
    for attr, path_keys in _FLAG_MAP:
        value = getattr(args, attr, None)
        if value is None:
            continue
        target = cfg
        for key in path_keys[:-1]:
            target = target[key]
        target[path_keys[-1]] = value
    g = cfg["graph"]
    graph = GraphParams(
        alpha=g["alpha"], max_distance_m=g["max_distance_m"],
        betas=tuple(g["betas"]), gamma=g["gamma"],
        include_dist=g["include_dist"], include_seq=g["include_seq"],
        include_latent=g["include_latent"], decay_sign=g["decay_sign"],
        include_self_edges=g["include_self_edges"])
    if cfg["threshold_m"] <= 0:
        raise InputError(f"threshold_m must be positive, got {cfg['threshold_m']}")
    if cfg["projection"]["enabled"] and cfg["projection"]["d_out"] is None:
        raise InputError("projection enabled but projection.d_out not set")
    return RunConfig(
        support_metadata=cfg["support_metadata"],
        support_descriptors=cfg["support_descriptors"],
        query_metadata=cfg["query_metadata"],
        query_descriptors=cfg["query_descriptors"],
        cache_dir=cfg["cache_dir"], out_dir=cfg["out_dir"],
        graph=graph, smoothing=SmoothConfig(m=int(cfg["m"])),
        regime=cfg["regime"], k=int(cfg["k"]), strategy=cfg["strategy"],
        threshold_m=float(cfg["threshold_m"]),
        projection_enabled=bool(cfg["projection"]["enabled"]),
        projection_d_out=cfg["projection"]["d_out"],
        projection_eps=cfg["projection"]["eps"],
        renormalize=bool(cfg["renormalize"]),
        query_gps=bool(cfg["query_gps"]),
        seed=int(cfg["seed"]), threads=int(cfg["threads"]),
        m_values=[int(v) for v in cfg["m_values"]],
        grid=cfg["grid"],
    )


def config_manifest(config: RunConfig) -> dict:
    """Config echo for manifests: everything that determines the results.

    Execution details that cannot change any output (threads, cache and
    output locations) are left out so reports stay byte-identical across
    setups.
    """
    return {
        "inputs": {
            "support_metadata": config.support_metadata,
            "support_descriptors": config.support_descriptors,
            "query_metadata": config.query_metadata,
            "query_descriptors": config.query_descriptors,
        },
        "graph": asdict(config.graph),
        "m": config.smoothing.m,
        "regime": config.regime,
        "k": config.k,
        "strategy": config.strategy,
        "threshold_m": config.threshold_m,
        "projection": {
            "enabled": config.projection_enabled,
            "d_out": config.projection_d_out,
            "eps": config.projection_eps,
        },
        "renormalize": config.renormalize,
        "query_gps": config.query_gps,
        "seed": config.seed,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _require_paths(config: RunConfig, *, query: bool = True) -> None:
    needed = [("support metadata", config.support_metadata),
              ("support descriptors", config.support_descriptors)]
    if query:
        needed += [("query metadata", config.query_metadata),
                   ("query descriptors", config.query_descriptors)]
    for label, value in needed:
        if not value:
            raise InputError(f"{label} path not set (flag or config)")
        if not Path(value).exists():
            raise InputError(f"{label} file not found: {value}")


# ---------------------------------------------------------------------------
# Shared pipeline stages


def _array_digest(arr: np.ndarray) -> str:
    """SHA-256 of dtype and shape, then the C-order bytes, hashed from the
    array's own buffer."""
    digest = hashlib.sha256(f"{arr.dtype.str}:{arr.shape[0]}x{arr.shape[1]}:".encode())
    digest.update(np.ascontiguousarray(arr))
    return digest.hexdigest()


def _prepare(config: RunConfig, cache: Cache) -> tuple[Dataset, Dataset, dict]:
    """Load, filter, and optionally project+renormalize both splits.

    Returns the prepared datasets plus a provenance dict (input hashes, filter
    counts, projection cache key) for the manifest.
    """
    _require_paths(config)
    support = load_dataset(config.support_metadata, config.support_descriptors,
                           role="support")
    query = load_dataset(config.query_metadata, config.query_descriptors,
                         role="query")
    n_query_raw = query.n_images
    query = filter_reachable_queries(query, support, radius_m=config.threshold_m)
    if query.n_images == 0:
        raise InputError(
            f"no query image lies within {config.threshold_m} m of the support set")
    info = {
        "input_sha256": {
            "support_metadata": sha256_file(config.support_metadata),
            "support_descriptors": sha256_file(config.support_descriptors),
            "query_metadata": sha256_file(config.query_metadata),
            "query_descriptors": sha256_file(config.query_descriptors),
        },
        "n_query_raw": n_query_raw,
        "n_query_reachable": query.n_images,
        "projection_key": None,
    }
    if config.projection_enabled:
        key = param_key({
            "support_descriptors": info["input_sha256"]["support_descriptors"],
            "d_out": config.projection_d_out,
            "eps": config.projection_eps,
        })
        def produce(tmp: Path) -> None:
            fitted = fit_projection(support.descriptors, config.projection_d_out,
                                    eps=config.projection_eps)
            save_projection(tmp, fitted.quantized())
        path, hit = cache.get_or_create("projection", key, ".prj1", produce)
        print(f"projection cache {'hit' if hit else 'miss'}: {path.name}")
        projection = load_projection(path)
        support = support.with_descriptors(
            apply_projection(projection, support.descriptors))
        query = query.with_descriptors(
            apply_projection(projection, query.descriptors))
        info["projection_key"] = key
    if config.renormalize:
        support = support.with_descriptors(l2_normalize(support.descriptors))
        query = query.with_descriptors(l2_normalize(query.descriptors))
    return support, query, info


def _smoothed_descriptors(side: str, dataset: Dataset, params: GraphParams,
                          m: int, *, cache: Cache, info: dict) -> np.ndarray:
    """Cached graph build + smoothing for one side of the retrieval; the
    smoother `run` hands to evaluation.regime_descriptors."""
    desc_sha = _array_digest(dataset.descriptors)
    graph_key = param_key({
        "metadata": info["input_sha256"][f"{side}_metadata"],
        "descriptors": desc_sha,
        "params": asdict(params),
    })
    def build(tmp: Path) -> None:
        save_operator(tmp, build_operator(dataset.records, dataset.descriptors,
                                          params))
    op_path, hit = cache.get_or_create("graph", graph_key, ".adj1", build)
    print(f"{side} graph cache {'hit' if hit else 'miss'}: {op_path.name}")
    smooth_key = param_key({"graph": graph_key, "m": m})
    def run_smooth(tmp: Path) -> None:
        op = load_operator(op_path)
        write_descriptors(tmp, smooth(op, dataset.descriptors, SmoothConfig(m=m)))
    emb_path, hit = cache.get_or_create("smoothed", smooth_key, ".emb1", run_smooth)
    print(f"{side} smoothing cache {'hit' if hit else 'miss'}: {emb_path.name}")
    info[f"{side}_graph_key"] = graph_key
    info[f"{side}_smoothed_key"] = smooth_key
    return load_descriptors(emb_path, expected_rows=dataset.n_images)


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    has_query = bool(config.query_metadata or config.query_descriptors)
    _require_paths(config, query=has_query)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits = [("support", config.support_metadata, config.support_descriptors)]
    if has_query:
        splits.append(("query", config.query_metadata, config.query_descriptors))
    manifest: dict = {"splits": {}}
    print(f"{'split':<10}{'sequences':>10}{'images':>10}")
    with OutDirLock(out_dir):
        for role, meta_path, desc_path in splits:
            ds = load_dataset(meta_path, desc_path, role=role)
            stats = ds.stats()
            print(f"{role:<10}{stats.n_sequences:>10}{stats.n_images:>10}")
            manifest["splits"][role] = {
                "metadata": meta_path,
                "descriptors": desc_path,
                "metadata_sha256": sha256_file(meta_path),
                "descriptors_sha256": sha256_file(desc_path),
                "n_sequences": stats.n_sequences,
                "n_images": stats.n_images,
                "dim": ds.dim,
            }
        _write_json(out_dir / "ingest_manifest.json", manifest)
    print(f"wrote {out_dir / 'ingest_manifest.json'}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    synth_cfg = SynthConfig(
        n_places=args.n_places, n_support_sequences=args.n_support_sequences,
        n_query_sequences=args.n_query_sequences,
        frames_per_place=args.frames_per_place, dim=args.dim,
        noise_sigma=args.noise_sigma, place_spacing_m=args.place_spacing_m,
        gps_jitter_m=args.gps_jitter_m)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with OutDirLock(out_dir):
        support, query, truth = generate_synthetic(synth_cfg, seed=config.seed)
        write_metadata(out_dir / "support_metadata.csv", support.records)
        write_descriptors(out_dir / "support_descriptors.emb1", support.descriptors)
        write_metadata(out_dir / "query_metadata.csv", query.records)
        write_descriptors(out_dir / "query_descriptors.emb1", query.descriptors)
        _write_json(out_dir / "ground_truth.json", truth)
        _write_json(out_dir / "synth_manifest.json",
                    {"config": asdict(synth_cfg), "seed": config.seed})
    print(f"synthetic dataset written to {out_dir}: "
          f"support {support.n_images} images, query {query.n_images} images, "
          f"dim {support.dim}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = Cache(config.cache_dir)
    if config.regime == "none" and config.smoothing.m > 0:
        print(f"warning: regime=none ignores m={config.smoothing.m}",
              file=sys.stderr)
    with OutDirLock(out_dir):
        support, query, info = _prepare(config, cache)
        support_desc, query_desc = regime_descriptors(
            support, query, config.graph, config.smoothing.m, config.regime,
            config.query_gps,
            functools.partial(_smoothed_descriptors, cache=cache, info=info))
        matches = cosine_knn(query_desc, support_desc, config.k)
        snapshot = config_manifest(config)
        snapshot["n_support"] = support.n_images
        snapshot["n_query"] = query.n_images
        snapshot["dim"] = support.dim
        report = compute_report(matches, support, query, config.strategy,
                                config.threshold_m, config.regime, snapshot)
        write_report_json(out_dir / "report.json", report)
        write_report_csv(out_dir / "report.csv", report)
        write_matches(out_dir / "matches.csv", matches, query.records,
                      support.records)
        _write_json(out_dir / "manifest.json",
                    {"config": config_manifest(config), "provenance": info})
    print(render_report(report))
    print(f"reports written to {out_dir}")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = Cache(config.cache_dir)
    with OutDirLock(out_dir):
        support, query, info = _prepare(config, cache)
        rows = run_ablation(support, query, config.graph, config.smoothing,
                            threshold_m=config.threshold_m, k=config.k,
                            strategy=config.strategy)
        table = ablation_table_csv(rows)
        (out_dir / "ablation.csv").write_text(table, encoding="utf-8")
        _write_json(out_dir / "manifest.json",
                    {"config": config_manifest(config), "provenance": info})
    print(table, end="")
    print(f"ablation table written to {out_dir / 'ablation.csv'}")
    return 0


def cmd_sweep_m(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = Cache(config.cache_dir)
    with OutDirLock(out_dir):
        support, query, info = _prepare(config, cache)
        rows = sweep_m(support, query, config.graph, config.m_values,
                       threshold_m=config.threshold_m, k=config.k,
                       strategy=config.strategy, query_gps=config.query_gps)
        table = sweep_table_csv(rows)
        (out_dir / "sweep.csv").write_text(table, encoding="utf-8")
        (out_dir / "sweep_plot.dat").write_text(sweep_plot_data(rows),
                                                encoding="utf-8")
        _write_json(out_dir / "manifest.json",
                    {"config": config_manifest(config),
                     "m_values": config.m_values, "provenance": info})
    print(table, end="")
    print(f"sweep written to {out_dir / 'sweep.csv'}")
    return 0


def cmd_gridsearch(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if not config.grid:
        raise InputError("gridsearch needs at least one grid axis "
                         "(config `grid` object or --grid-* flags)")
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = Cache(config.cache_dir)
    with OutDirLock(out_dir):
        support, query, info = _prepare(config, cache)
        best_params, best_cfg, table = grid_search(
            support, query, config.grid, base_params=config.graph,
            base_cfg=config.smoothing, threshold_m=config.threshold_m,
            k=config.k, strategy=config.strategy, query_gps=config.query_gps,
            threads=config.threads)
        csv_text = grid_table_csv(table)
        (out_dir / "gridsearch.csv").write_text(csv_text, encoding="utf-8")
        best = {"graph": asdict(best_params), "m": best_cfg.m}
        _write_json(out_dir / "best_params.json", best)
        _write_json(out_dir / "manifest.json",
                    {"config": config_manifest(config), "grid": config.grid,
                     "provenance": info})
    print(f"evaluated {len(table)} grid cells")
    echo = [f"alpha={best_params.alpha!r}"]
    echo += [f"beta{i}={b!r}" for i, b in enumerate(best_params.betas, start=1)]
    echo += [f"gamma={best_params.gamma!r}",
             f"max_distance_m={best_params.max_distance_m!r}",
             f"m={best_cfg.m}"]
    print("best: " + " ".join(echo))
    print(f"score table written to {out_dir / 'gridsearch.csv'}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--cache-dir", dest="cache_dir")
    sub.add_argument("--out-dir", dest="out_dir")
    sub.add_argument("--threads", type=int, dest="threads")
    sub.add_argument("--seed", type=int, dest="seed")


def _add_dataset_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--support-metadata", dest="support_metadata")
    sub.add_argument("--support-descriptors", dest="support_descriptors")
    sub.add_argument("--query-metadata", dest="query_metadata")
    sub.add_argument("--query-descriptors", dest="query_descriptors")


def _add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--max-distance-m", type=float, dest="max_distance_m")
    sub.add_argument("--betas", type=_floats,
                     help="comma-separated, one weight per frame gap")
    sub.add_argument("--gamma", type=float)
    for kernel in ("dist", "seq", "latent"):
        sub.add_argument(f"--include-{kernel}", dest=f"include_{kernel}",
                         action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--decay-sign", choices=["negative", "positive"],
                     dest="decay_sign")
    sub.add_argument("--include-self-edges", dest="include_self_edges",
                     action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--m", type=int)
    sub.add_argument("--regime", choices=list(REGIMES))
    sub.add_argument("--k", type=int)
    sub.add_argument("--strategy", choices=["top1", "weighted_topk"])
    sub.add_argument("--threshold-m", type=float, dest="threshold_m")
    sub.add_argument("--projection", action=argparse.BooleanOptionalAction,
                     default=None, help="fit PCA+whitening on the support set")
    sub.add_argument("--d-out", type=int, dest="d_out")
    sub.add_argument("--eps", type=float)
    sub.add_argument("--renormalize", action=argparse.BooleanOptionalAction,
                     default=None)
    sub.add_argument("--query-gps", dest="query_gps",
                     action=argparse.BooleanOptionalAction, default=None,
                     help="allow GPS edges in the query graph (leaks truth)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsloc",
        description="Graph-smoothed descriptor retrieval for visual localization.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="validate datasets and "
                                 "write a manifest")
    _add_common_flags(ingest)
    _add_dataset_flags(ingest)
    ingest.set_defaults(func=cmd_ingest)

    synth = commands.add_parser("synth", help="generate a synthetic dataset")
    _add_common_flags(synth)
    synth.add_argument("--n-places", type=int, default=40)
    synth.add_argument("--n-support-sequences", type=int, default=10)
    synth.add_argument("--n-query-sequences", type=int, default=3)
    synth.add_argument("--frames-per-place", type=int, default=4)
    synth.add_argument("--dim", type=int, default=64)
    synth.add_argument("--noise-sigma", type=float, default=0.28)
    synth.add_argument("--place-spacing-m", type=float, default=50.0)
    synth.add_argument("--gps-jitter-m", type=float, default=8.0)
    synth.set_defaults(func=cmd_synth)

    run = commands.add_parser("run", help="full retrieval + evaluation run")
    _add_common_flags(run)
    _add_dataset_flags(run)
    _add_pipeline_flags(run)
    run.set_defaults(func=cmd_run)

    ablate = commands.add_parser("ablate", help="evaluate all kernel subsets")
    _add_common_flags(ablate)
    _add_dataset_flags(ablate)
    _add_pipeline_flags(ablate)
    ablate.set_defaults(func=cmd_ablate)

    sweep = commands.add_parser("sweep-m", help="evaluate a range of m values")
    _add_common_flags(sweep)
    _add_dataset_flags(sweep)
    _add_pipeline_flags(sweep)
    sweep.add_argument("--m-values", type=_ints, dest="m_values",
                       help="comma-separated, e.g. 0,1,2,5,10")
    sweep.set_defaults(func=cmd_sweep_m)

    gridsearch = commands.add_parser("gridsearch",
                                     help="exhaustive parameter search")
    _add_common_flags(gridsearch)
    _add_dataset_flags(gridsearch)
    _add_pipeline_flags(gridsearch)
    gridsearch.add_argument("--grid-alpha", type=_floats, dest="grid_alpha")
    gridsearch.add_argument("--grid-betas", type=_beta_lists, dest="grid_betas")
    gridsearch.add_argument("--grid-gamma", type=_floats, dest="grid_gamma")
    gridsearch.add_argument("--grid-max-distance-m", type=_floats,
                            dest="grid_max_distance_m")
    gridsearch.add_argument("--grid-m", type=_ints, dest="grid_m")
    gridsearch.set_defaults(func=cmd_gridsearch)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
