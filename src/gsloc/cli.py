"""Command-line pipeline: ingest, synth, run, ablate, sweep-m, gridsearch.

Every setting is declared once, as a row of OPTIONS, and a command takes only
the options whose row names it. The subcommands' flags, the layering
(defaults, then a JSON config file given with --config, then explicit flags,
which always win), the config-file type checks and the config echo in
manifest.json all come from that table. Every command runs in one skeleton,
`main`: the config is checked, and the splits that ingest or an evaluating
command reads are loaded, checked and hashed (`_load`), before anything is
made; then the output directory is locked, its old manifest and a killed
run's temp files go, and the manifest is written after every other file. For
the evaluating commands `main` also opens the cache and prepares both
splits; `run` caches its intermediates
(projection, and the operator and smoothed descriptors of each side it
smooths) under content+parameter hashes so repeated or swept runs skip
finished stages.

Exit codes: 0 success, 1 internal error, 2 invalid input.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .cache import (TEMP_PREFIX, Cache, param_key, sha256_file, write_json,
                    write_utf8)
from .codec import ADJ1, EMB1, PRJ1
from .dataset import (Dataset, ImageRecord, filter_reachable_queries,
                      load_dataset, load_descriptors, write_descriptors,
                      write_metadata)
from .errors import InputError
from .evaluation import (DEFAULT_THRESHOLD_M, REGIMES, SMOOTHED_SIDES,
                         _evaluate, ablation_table_csv, check_threshold_m,
                         grid_cells, grid_search, grid_table_csv,
                         render_report, run_ablation, sweep_m,
                         sweep_plot_data, sweep_table_csv, write_report_csv)
from .features import (apply_projection, check_d_out, check_eps,
                       fit_projection, l2_normalize, load_projection,
                       save_projection)
from .graph import (DECAY_SIGNS, GraphParams, SmoothingOperator,
                    build_operator, load_operator, save_operator)
from .retrieval import STRATEGIES, check_k, write_matches
from .smoothing import SmoothConfig, smooth
from .synth import SynthConfig, generate_synthetic


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
        fd = os.open(self.path, os.O_CREAT | os.O_RDONLY, 0o644)
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
# The option table


@dataclass(frozen=True)
class Option:
    """One setting of the pipeline.

    ``key`` is its dotted path in a config file and in the resolved config.
    ``kind`` is bool, int, float, str, a list of one of them, or a tuple of
    the allowed strings; a ``default`` of None also admits null in a config
    file, and a dict gives each command its own default (``default_of``).
    ``commands`` are the subcommands that take the option: its ``flag``,
    its config-file value and its echo. ``echo`` is the dotted path under
    which manifest.json repeats the value; None leaves it out, for execution
    details that cannot change any output (threads, cache and output
    locations), so that reports stay byte-identical across setups. An option
    with ``file`` false is a flag only.
    """

    key: str
    flag: str
    kind: object
    default: object
    commands: tuple[str, ...]
    echo: str | None = None
    help: str | None = None
    file: bool = True

    def default_of(self, command: str) -> object:
        """The value the command takes when neither a config file nor a
        flag sets it."""
        if isinstance(self.default, dict):
            return self.default.get(command)
        return self.default


_EVAL = ("run", "ablate", "sweep-m", "gridsearch")
_DATA = ("ingest",) + _EVAL
_ALL = ("synth",) + _DATA
# ablate sets the kernel switches row by row; sweep-m reads --m-values.
_SWITCHES, _ONE_M = ("run", "sweep-m", "gridsearch"), ("run", "ablate", "gridsearch")
_GRAPH, _SYNTH = GraphParams(), SynthConfig()
# The input files' options, the support split's first.
_INPUTS = ("support_metadata", "support_descriptors", "query_metadata",
           "query_descriptors")

OPTIONS: tuple[Option, ...] = (
    Option("cache_dir", "--cache-dir", str, "cache", _EVAL),
    Option("out_dir", "--out-dir", str, "out", _ALL),
    Option("threads", "--threads", int, 1, _EVAL),
    # synth_manifest.json records the seed itself.
    Option("seed", "--seed", int, 0, ("synth",)),
    *(Option(key, "--" + key.replace("_", "-"), str, None, _DATA, "inputs." + key)
      for key in _INPUTS),
    Option("graph.alpha", "--alpha", float, _GRAPH.alpha, _EVAL, "graph.alpha"),
    Option("graph.max_distance_m", "--max-distance-m", float,
           _GRAPH.max_distance_m, _EVAL, "graph.max_distance_m"),
    Option("graph.betas", "--betas", list[float], _GRAPH.betas, _EVAL,
           "graph.betas", "comma-separated, one weight per frame gap"),
    Option("graph.gamma", "--gamma", float, _GRAPH.gamma, _EVAL, "graph.gamma"),
    Option("graph.include_dist", "--include-dist", bool, _GRAPH.include_dist,
           _SWITCHES, "graph.include_dist"),
    Option("graph.include_seq", "--include-seq", bool, _GRAPH.include_seq,
           _SWITCHES, "graph.include_seq"),
    Option("graph.include_latent", "--include-latent", bool,
           _GRAPH.include_latent, _SWITCHES, "graph.include_latent"),
    Option("graph.decay_sign", "--decay-sign", DECAY_SIGNS,
           _GRAPH.decay_sign, _EVAL, "graph.decay_sign"),
    Option("graph.include_self_edges", "--include-self-edges", bool,
           _GRAPH.include_self_edges, _EVAL, "graph.include_self_edges"),
    Option("m", "--m", int, SmoothConfig().m, _ONE_M, "m"),
    # ablate and gridsearch keep scoring gs_support unless told otherwise.
    Option("regime", "--regime", REGIMES,
           {"run": "gs_both", "sweep-m": "gs_both", "ablate": "gs_support",
            "gridsearch": "gs_support"}, _EVAL, "regime"),
    Option("k", "--k", int, 1, _EVAL, "k"),
    Option("strategy", "--strategy", STRATEGIES, "top1", _EVAL, "strategy"),
    Option("threshold_m", "--threshold-m", float, DEFAULT_THRESHOLD_M, _EVAL,
           "threshold_m"),
    Option("projection.enabled", "--projection", bool, False, _EVAL,
           "projection.enabled", "fit PCA+whitening on the support set"),
    Option("projection.d_out", "--d-out", int, None, _EVAL, "projection.d_out"),
    Option("projection.eps", "--eps", float, None, _EVAL, "projection.eps"),
    Option("renormalize", "--renormalize", bool, True, _EVAL, "renormalize"),
    Option("query_gps", "--query-gps", bool, False, _EVAL, "query_gps",
           "allow GPS edges in the query graph (leaks truth)"),
    Option("m_values", "--m-values", list[int], tuple(range(11)), ("sweep-m",),
           help="comma-separated, e.g. 0,1,2,5,10"),
    # Grid axes left at None are not searched; gridsearch keeps them at the
    # single base value.
    Option("grid.alpha", "--grid-alpha", list[float], None, ("gridsearch",)),
    Option("grid.betas", "--grid-betas", list[list[float]], None,
           ("gridsearch",)),
    Option("grid.gamma", "--grid-gamma", list[float], None, ("gridsearch",)),
    Option("grid.max_distance_m", "--grid-max-distance-m", list[float], None,
           ("gridsearch",)),
    Option("grid.m", "--grid-m", list[int], None, ("gridsearch",)),
    *(Option(f"synth.{f.name}", "--" + f.name.replace("_", "-"),
             type(getattr(_SYNTH, f.name)), getattr(_SYNTH, f.name), ("synth",),
             file=False)
      for f in fields(SynthConfig)),
)

_FILE_OPTIONS = {option.key: option for option in OPTIONS if option.file}
_FILE_SECTIONS = {key.split(".")[0] for key in _FILE_OPTIONS if "." in key}


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip() != ""]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def _beta_lists(text: str) -> list[list[float]]:
    """Semicolon-separated beta tuples, e.g. `0.75,0.0625;0.5,0.25`."""
    return [_floats(part) for part in text.split(";") if part.strip() != ""]


# Each kind's parser for its flag's text.
_FLAG_TYPES = {str: str, int: int, float: float, list[float]: _floats,
               list[int]: _ints, list[list[float]]: _beta_lists}


def _flag_arguments(option: Option) -> dict:
    """add_argument keywords for the option's flag; a flag left out parses to
    None and changes nothing."""
    if option.kind is bool:
        return {"action": argparse.BooleanOptionalAction, "default": None}
    if isinstance(option.kind, tuple):
        return {"choices": option.kind}
    return {"type": _FLAG_TYPES[option.kind]}


def _as_kind(kind: object, value: object) -> object:
    """A config-file value as ``kind``, with JSON integers widened to float;
    raises ValueError when it is not of that kind."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
    elif typing.get_origin(kind) is list:
        if isinstance(value, list):
            (item,) = typing.get_args(kind)
            return [_as_kind(item, v) for v in value]
    elif isinstance(value, bool):  # a JSON true or false is never a number
        if kind is bool:
            return value
    elif kind is float and isinstance(value, int):
        return float(value)
    elif isinstance(value, kind):
        return value
    raise ValueError(value)


def _expected(option: Option) -> str:
    kind = option.kind
    text = (f"one of {kind}" if isinstance(kind, tuple)
            else str(kind) if typing.get_origin(kind) else kind.__name__)
    return text + (" or null" if option.default is None else "")


def _read_config(path: Path) -> dict:
    """The settings a config file makes, by option key, each checked against
    its option's kind."""
    if not path.exists():
        raise InputError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise InputError(f"{path}: config must be a JSON object")
    values: dict = {}

    def walk(section: dict, prefix: str) -> None:
        for name, value in section.items():
            key = prefix + name
            option = _FILE_OPTIONS.get(key)
            if key in _FILE_SECTIONS:
                if not isinstance(value, dict):
                    raise InputError(f"{path}: {key} must be a JSON object")
                walk(value, key + ".")
            elif option is None:
                raise InputError(f"{path}: unknown config key {key!r}")
            elif value is None and option.default is None:
                values[key] = None
            else:
                try:
                    values[key] = _as_kind(option.kind, value)
                except ValueError:
                    raise InputError(f"{path}: {key} must be {_expected(option)}, "
                                     f"got {value!r}") from None
    walk(loaded, "")
    return values


def _nest(pairs) -> dict:
    """(dotted key, value) pairs as nested dicts: ("a.b", v) -> {"a": {"b": v}}."""
    out: dict = {}
    for key, value in pairs:
        *sections, name = key.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[name] = value
    return out


def resolve_config(args: argparse.Namespace) -> SimpleNamespace:
    """The command's options layered as defaults, then the --config file,
    then the flags given; a file's other keys are type-checked, not used.
    Sections (``graph``, ``projection``, ``grid``, ``synth``) are dicts;
    ``graph``, ``smoothing`` and ``synth`` are built into the library's
    objects, which check them, ``grid`` keeps only the axes given, and
    ``echo`` is the manifest's config echo. Everything that the config alone
    can show wrong is checked here, the input paths in ``_load``, before
    ``main`` makes anything."""
    values = {option.key: option.default_of(args.command) for option in OPTIONS}
    if args.config:
        values.update((key, value) for key, value
                      in _read_config(Path(args.config)).items()
                      if args.command in _FILE_OPTIONS[key].commands)
    for option in OPTIONS:
        flagged = getattr(args, option.flag[2:].replace("-", "_"), None)
        if flagged is not None:
            values[option.key] = flagged
    config = SimpleNamespace(**_nest(values.items()))
    config.graph = GraphParams(**config.graph)
    check_threshold_m(config.threshold_m)
    if config.threads < 1:
        raise InputError(f"threads must be at least 1, got {config.threads}")
    if config.seed < 0:
        raise InputError(f"seed must be nonnegative, got {config.seed}")
    if config.projection["enabled"]:
        check_eps(config.projection["eps"])
    unread = [f"{key}={config.projection[key]}" for key in ("d_out", "eps")
              if not config.projection["enabled"]
              and config.projection[key] is not None]
    if unread:
        print(f"warning: projection off ignores {', '.join(unread)}",
              file=sys.stderr)
    if config.query_gps and "query" not in SMOOTHED_SIDES[config.regime]:
        print(f"warning: regime={config.regime} ignores query_gps",
              file=sys.stderr)
    config.smoothing = SmoothConfig(m=config.m)
    if not config.m_values:
        raise InputError("m_values must name at least one m")
    config.m_values = [SmoothConfig(m=m).m for m in config.m_values]
    config.synth = SynthConfig(**config.synth)
    config.grid = {axis: v for axis, v in config.grid.items() if v is not None}
    if args.command == "gridsearch":  # expanded here for its checks alone
        grid_cells(config.grid, config.graph, config.smoothing)
    config.echo = _nest((option.echo, values[option.key]) for option in OPTIONS
                        if option.echo and args.command in option.commands)
    return config


# ---------------------------------------------------------------------------
# Shared pipeline stages


def _read_cached(load, path: Path, *args, **kwargs):
    """load(path, ...) of a cache hit. An artifact that passed the cache's
    size check but fails the loader's own (a non-finite value, say) may
    already have been read into the caller's buffer, so it cannot be
    rebuilt within this run: it is removed, so that the next run rebuilds
    it, and the InputError (which names the file) ends this one."""
    try:
        return load(path, *args, **kwargs)
    except InputError as exc:
        path.unlink(missing_ok=True)
        raise InputError(f"{exc}; removed it from the cache, so the next run "
                         "rebuilds it") from None


def _load(config: SimpleNamespace, command: str) -> tuple[dict[str, Dataset], dict]:
    """The one input stage of ingest and the evaluating commands, run before
    anything is made: the splits the command reads by role (ingest reads the
    query split only when either of its paths is given), their paths checked
    and the splits loaded. An evaluating command keeps the queries within
    threshold_m of the support and refuses a k or a d_out that the support
    cannot serve. Last, the input files are hashed into the provenance
    ``info``, with the filter counts of an evaluating command."""
    reads_query = (command in _EVAL or config.query_metadata
                   or config.query_descriptors)
    roles = ("support", "query") if reads_query else ("support",)
    keys = [f"{role}_{kind}" for role in roles for kind in ("metadata", "descriptors")]
    for key in keys:
        label, value = key.replace("_", " "), getattr(config, key)
        if not value:
            raise InputError(f"{label} path not set (flag or config)")
        if not Path(value).exists():
            raise InputError(f"{label} file not found: {value}")
    splits = {role: load_dataset(getattr(config, f"{role}_metadata"),
                                 getattr(config, f"{role}_descriptors"), role=role)
              for role in roles}
    info: dict = {}
    if command in _EVAL:
        support, n_query_raw = splits["support"], splits["query"].n_images
        query = filter_reachable_queries(splits["query"], support,
                                         radius_m=config.threshold_m)
        if query.n_images == 0:
            raise InputError(f"no query image lies within {config.threshold_m} m "
                             "of the support set")
        check_k(config.k, support.n_images)
        if config.projection["enabled"]:
            check_d_out(config.projection["d_out"], support.n_images, support.dim)
        splits["query"] = query
        info.update(n_query_raw=n_query_raw, n_query_reachable=query.n_images)
    info["input_sha256"] = {key: sha256_file(getattr(config, key)) for key in keys}
    return splits, info


def _prepare(config: SimpleNamespace, support: Dataset, query: Dataset,
             info: dict, cache: Cache) -> tuple[Dataset, Dataset]:
    """Optionally project+renormalize both loaded splits; adds the
    projection cache key to the provenance ``info``."""
    info["projection_key"] = None
    d_out, eps = config.projection["d_out"], config.projection["eps"]
    if config.projection["enabled"]:
        # v2: fitted through the Gram matrix; an SVD-fitted v1 file differs
        # in a few float32 bits, so it is never served in its place.
        key = param_key({
            "support_descriptors": info["input_sha256"]["support_descriptors"],
            "d_out": d_out,
            "eps": eps,
            "v": 2,
        })
        def produce(path: Path) -> None:
            fitted = fit_projection(support.descriptors, d_out, eps=eps)
            save_projection(path, fitted)
        path, hit = cache.get_or_create("projection", key, ".prj1", produce,
                                        PRJ1.shape)
        print(f"projection cache {'hit' if hit else 'miss'}: {path.name}")
        projection = _read_cached(load_projection, path)
        support = support.with_descriptors(
            apply_projection(projection, support.descriptors))
        query = query.with_descriptors(
            apply_projection(projection, query.descriptors))
        info["projection_key"] = key
    if config.renormalize:
        # Both arrays are this call's own (freshly read, filtered or
        # projected), so they are normalized where they lie.
        for split in (support, query):
            l2_normalize(split.descriptors)
    return support, query


def _graph_key(side: str, params: GraphParams, config: SimpleNamespace,
               info: dict) -> str:
    """Cache key of one side's graph, from what produced its descriptors and
    records rather than from their bytes: the side's input files, the
    projection and renormalization applied to them, and the graph params.
    The query side's rows are those within threshold_m of the support
    fixes, so its key also covers the support metadata and threshold_m."""
    inputs = info["input_sha256"]
    provenance = {
        "metadata": inputs[f"{side}_metadata"],
        "descriptors": inputs[f"{side}_descriptors"],
        "projection": info["projection_key"],
        "renormalize": config.renormalize,
    }
    if side == "query":
        provenance.update(support_metadata=inputs["support_metadata"],
                          threshold_m=config.threshold_m)
    # v3: latent cosines from float32 dot products; a v2 operator's latent
    # weights differ in their last bits, so it is never served in its place.
    return param_key({"inputs": provenance, "params": asdict(params), "v": 3})


# The isolated image ids a graph summary lists, first in row order.
_ISOLATED_IDS = 10


def _graph_summary(op: SmoothingOperator, records: list[ImageRecord]) -> dict:
    """What manifest.json reports of one side's graph: its isolated
    vertices, and the min, median and max number of W edges per vertex,
    which are the off-diagonal entries of the operator's rows."""
    edges = np.diff(op.matrix.indptr) - (op.matrix.diagonal() != 0.0)
    isolated = op.isolated_vertices
    return {"n_isolated": int(isolated.size),
            "isolated_ids": [records[v].image_id
                             for v in isolated[:_ISOLATED_IDS].tolist()],
            "edges_per_vertex": {"min": int(edges.min()),
                                 "median": float(np.median(edges)),
                                 "max": int(edges.max())}}


def _smoothed_descriptors(side: str, dataset: Dataset, params: GraphParams,
                          m: int, *, cache: Cache, config: SimpleNamespace,
                          info: dict, graphs: dict) -> np.ndarray:
    """Cached graph build + smoothing for one side of the retrieval; the
    smoother `run` hands to evaluation._evaluate. The side's graph summary
    goes in ``graphs``.

    The smoothed descriptors replace the dataset's own in its buffer, so a
    run holds one copy of them whatever the cache state: a miss smooths in
    place and returns the array it wrote to the cache, a hit reads the cached
    file into the buffer once its size has been checked.
    """
    desc = dataset.descriptors
    graph_key = _graph_key(side, params, config, info)
    def build(path: Path) -> None:
        save_operator(path, build_operator(dataset.records, desc, params))
    op_path, hit = cache.get_or_create("graph", graph_key, ".adj1", build,
                                       ADJ1.shape)
    print(f"{side} graph cache {'hit' if hit else 'miss'}: {op_path.name}")
    # Read whether or not the smoothed descriptors hit, for the summary.
    op = _read_cached(load_operator, op_path)
    graphs[side] = _graph_summary(op, dataset.records)
    # The graph key covers the graph params. v3: smoothed in float32, where
    # v2 smoothed in float64.
    smooth_key = param_key({"graph": graph_key, "m": m, "v": 3})
    def run_smooth(path: Path) -> None:
        smooth(op, desc, SmoothConfig(m=m), out=desc)
        # Row-stochastic averages of finite rows are finite, so they are
        # written without write_descriptors' scan.
        EMB1.write(path, desc.shape, [desc])
    emb_path, hit = cache.get_or_create("smoothed", smooth_key, ".emb1",
                                        run_smooth, EMB1.shape)
    print(f"{side} smoothing cache {'hit' if hit else 'miss'}: {emb_path.name}")
    if hit:
        _read_cached(load_descriptors, emb_path,
                     expected_rows=dataset.n_images, out=desc)
    info[f"{side}_graph_key"] = graph_key
    info[f"{side}_smoothed_key"] = smooth_key
    return desc


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(config: SimpleNamespace, out_dir: Path,
               splits: dict[str, Dataset], info: dict) -> dict:
    manifest: dict = {"splits": {}}
    print(f"{'split':<10}{'sequences':>10}{'images':>10}")
    for role, ds in splits.items():
        meta, desc = f"{role}_metadata", f"{role}_descriptors"
        stats = ds.stats()
        print(f"{role:<10}{stats.n_sequences:>10}{stats.n_images:>10}")
        manifest["splits"][role] = {
            "metadata": getattr(config, meta),
            "descriptors": getattr(config, desc),
            "metadata_sha256": info["input_sha256"][meta],
            "descriptors_sha256": info["input_sha256"][desc],
            "n_sequences": stats.n_sequences,
            "n_images": stats.n_images,
            "dim": ds.dim,
        }
    print(f"wrote {out_dir / 'ingest_manifest.json'}")
    return manifest


def cmd_synth(config: SimpleNamespace, out_dir: Path) -> dict:
    support, query, truth = generate_synthetic(config.synth, seed=config.seed)
    write_metadata(out_dir / "support_metadata.csv", support.records)
    write_descriptors(out_dir / "support_descriptors.emb1", support.descriptors)
    write_metadata(out_dir / "query_metadata.csv", query.records)
    write_descriptors(out_dir / "query_descriptors.emb1", query.descriptors)
    write_json(out_dir / "ground_truth.json", truth)
    print(f"synthetic dataset written to {out_dir}: "
          f"support {support.n_images} images, query {query.n_images} images, "
          f"dim {support.dim}")
    return {"config": asdict(config.synth), "seed": config.seed}


def cmd_run(config: SimpleNamespace, out_dir: Path, support: Dataset,
            query: Dataset, info: dict, cache: Cache) -> dict:
    if config.regime == "none" and config.m > 0:
        print(f"warning: regime=none ignores m={config.m}", file=sys.stderr)
    snapshot = dict(config.echo, n_support=support.n_images,
                    n_query=query.n_images, dim=support.dim)
    graphs: dict = {}
    indices, scores, report = _evaluate(
        support, query, config.graph, config.smoothing, config.regime,
        functools.partial(_smoothed_descriptors, cache=cache, config=config,
                          info=info, graphs=graphs),
        snapshot, threshold_m=config.threshold_m, k=config.k,
        strategy=config.strategy, query_gps=config.query_gps)
    write_json(out_dir / "report.json", asdict(report))
    write_report_csv(out_dir / "report.csv", report)
    write_matches(out_dir / "matches.csv", indices, scores, query.records,
                  support.records)
    print(render_report(report))
    print(f"reports written to {out_dir}")
    return {"graphs": graphs}


def cmd_ablate(config: SimpleNamespace, out_dir: Path, support: Dataset,
               query: Dataset, info: dict, cache: Cache) -> None:
    rows = run_ablation(support, query, config.graph, config.smoothing,
                        regime=config.regime, threshold_m=config.threshold_m,
                        k=config.k, strategy=config.strategy,
                        query_gps=config.query_gps, threads=config.threads)
    table = ablation_table_csv(rows)
    write_utf8(out_dir / "ablation.csv", table)
    print(table, end="")
    print(f"ablation table written to {out_dir / 'ablation.csv'}")


def cmd_sweep_m(config: SimpleNamespace, out_dir: Path, support: Dataset,
                query: Dataset, info: dict, cache: Cache) -> None:
    rows = sweep_m(support, query, config.graph, config.m_values,
                   regime=config.regime, threshold_m=config.threshold_m, k=config.k,
                   strategy=config.strategy, query_gps=config.query_gps)
    table = sweep_table_csv(rows)
    write_utf8(out_dir / "sweep.csv", table)
    write_utf8(out_dir / "sweep_plot.dat", sweep_plot_data(rows))
    print(table, end="")
    print(f"sweep written to {out_dir / 'sweep.csv'}")


def cmd_gridsearch(config: SimpleNamespace, out_dir: Path, support: Dataset,
                   query: Dataset, info: dict, cache: Cache) -> None:
    best_params, best_cfg, table = grid_search(
        support, query, config.grid, base_params=config.graph,
        base_cfg=config.smoothing, regime=config.regime,
        threshold_m=config.threshold_m, k=config.k, strategy=config.strategy,
        query_gps=config.query_gps, threads=config.threads)
    write_utf8(out_dir / "gridsearch.csv", grid_table_csv(table))
    write_json(out_dir / "best_params.json",
               {"graph": asdict(best_params), "m": best_cfg.m})
    print(f"evaluated {len(table)} grid cells")
    echo = [f"alpha={best_params.alpha!r}"]
    echo += [f"beta{i}={b!r}" for i, b in enumerate(best_params.betas, start=1)]
    echo += [f"gamma={best_params.gamma!r}",
             f"max_distance_m={best_params.max_distance_m!r}",
             f"m={best_cfg.m}"]
    print("best: " + " ".join(echo))
    print(f"score table written to {out_dir / 'gridsearch.csv'}")


# ---------------------------------------------------------------------------
# Parser and skeleton

# name -> (command, help, manifest extras). An evaluating command is called
# with the prepared splits, their provenance and the open cache, and its
# manifest.json repeats the extras (config values) beside the config echo and
# the provenance, with any sections the command returns (run's graphs). A
# command whose extras are None evaluates nothing and returns the payload of
# its own <command>_manifest.json.
_COMMANDS = {
    "ingest": (cmd_ingest, "validate datasets and write a manifest", None),
    "synth": (cmd_synth, "generate a synthetic dataset", None),
    "run": (cmd_run, "full retrieval + evaluation run", ()),
    "ablate": (cmd_ablate, "evaluate all kernel subsets", ()),
    "sweep-m": (cmd_sweep_m, "evaluate a range of m values", ("m_values",)),
    "gridsearch": (cmd_gridsearch, "exhaustive parameter search", ("grid",)),
}


# Parsing leaves no state in the parser, so one serves every main() call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsloc",
        description="Graph-smoothed descriptor retrieval for visual localization.")
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, _) in _COMMANDS.items():
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--config", help="JSON config file; flags override it")
        for option in OPTIONS:
            if name in option.commands:
                sub.add_argument(option.flag, help=option.help,
                                 **_flag_arguments(option))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command, _, extras = _COMMANDS[args.command]
    manifest = "manifest.json" if extras is not None else f"{args.command}_manifest.json"
    try:
        config = resolve_config(args)
        # The inputs are loaded, checked and hashed before anything is made.
        loaded = _load(config, args.command) if args.command in _DATA else ()
        out_dir = Path(config.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with OutDirLock(out_dir):
            # No live run writes here, and the old manifest vouches for old files.
            for path in [out_dir / manifest, *out_dir.glob(TEMP_PREFIX + "*")]:
                path.unlink(missing_ok=True)
            if extras is None:
                payload = command(config, out_dir, *loaded)
            else:
                splits, info = loaded
                cache = Cache(config.cache_dir)
                # Popped, so that no loaded split outlives _prepare's use of it.
                support, query = _prepare(config, splits.pop("support"),
                                          splits.pop("query"), info, cache)
                sections = command(config, out_dir, support, query, info,
                                   cache) or {}
                # run's smoother adds its graph keys to info.
                payload = {"config": config.echo, "provenance": info,
                           **{key: getattr(config, key) for key in extras},
                           **sections}
            write_json(out_dir / manifest, payload)
        return 0
    except (InputError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
