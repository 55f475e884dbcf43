"""Evaluation machinery: localization metrics, the four smoothing regimes,
kernel ablation, the m-sweep, and exhaustive grid search.

Ground truth for a query is its own GPS record; a run is scored by the median
localization error and the fraction of queries strictly inside the threshold
radius. Support and query graphs are always built independently, each from its
own split's metadata, and the query graph leaves GPS out unless explicitly
allowed (the query positions are what we are trying to predict).

The ablation (eight kernel subsets at one m), the m-sweep (one cell at many
m) and the grid search (many cells at many m) all score through
``_evaluate_cells``, the one place that decides what their cells share.
Every evaluation, `run`'s included, goes through ``_evaluate``, and
``_smoothed_sides`` alone decides which sides are smoothed.
"""

from __future__ import annotations

from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from .cache import csv_text, write_utf8
from .dataset import Dataset
from .errors import InputError
from .geodesy import haversine_m_each
from .graph import GraphParams, KernelGeometry, build_operator, kernel_geometry
from .retrieval import cosine_knn, estimate_positions
from .smoothing import SmoothConfig, smooth

# The one regime table: which sides each regime smooths, each on its own graph.
SMOOTHED_SIDES = {
    "none": (),
    "gs_support": ("support",),
    "gs_query": ("query",),
    "gs_both": ("support", "query"),
}
REGIMES = tuple(SMOOTHED_SIDES)

# (side, dataset, graph params, m) -> that side's descriptors smoothed m times.
# `run`'s smoother writes them over the dataset's own; _memo_smoother keeps
# the dataset's, since its m-ladder restarts from them.
Smoother = Callable[[str, Dataset, GraphParams, int], np.ndarray]

DEFAULT_THRESHOLD_M = 25.0

# Ablation rows in canonical order: (dist, seq, latent) read as binary with
# dist the high bit, so the all-off baseline comes first.
ABLATION_ORDER = tuple(
    (bool(bits & 4), bool(bits & 2), bool(bits & 1)) for bits in range(8))


@dataclass
class EvalReport:
    """Outcome of one retrieval run.

    median_error_m follows the usual convention for even-length lists (mean of
    the two central values); acc_at_threshold counts errors strictly below the
    threshold.
    """

    per_query_error_m: list[float]
    median_error_m: float
    acc_at_threshold: float
    threshold_m: float
    regime: str
    config_snapshot: dict


@dataclass
class AblationRow:
    use_dist: bool
    use_seq: bool
    use_latent: bool
    median_error_m: float
    acc_at_threshold: float


def query_graph_params(params: GraphParams, query_gps: bool) -> GraphParams:
    """Parameters for the query-side graph.

    The distance kernel is dropped unless query_gps is set: query GPS is the
    quantity under evaluation, so using it to build the graph would leak
    ground truth into retrieval.
    """
    return replace(params, include_dist=params.include_dist and query_gps)


def check_threshold_m(threshold_m: float) -> None:
    """Refuse a success radius that is not positive and finite."""
    if not 0 < threshold_m < np.inf:
        raise InputError(f"threshold_m must be positive and finite, got {threshold_m}")


def compute_report(indices: np.ndarray, scores: np.ndarray, support: Dataset,
                   query: Dataset, strategy: str, threshold_m: float,
                   regime: str, config_snapshot: dict) -> EvalReport:
    """Score cosine_knn's (n_query, k) arrays, row i for query i, against
    the query split's own GPS."""
    check_threshold_m(threshold_m)
    if len(indices) == 0:
        raise InputError("cannot score an empty query set")
    if len(indices) != query.n_images:
        raise InputError(f"{len(indices)} result rows for {query.n_images} queries")
    est_lat, est_lon = estimate_positions(indices, scores, *support.positions,
                                          strategy)
    err = haversine_m_each(est_lat, est_lon, *query.positions)
    return EvalReport(
        per_query_error_m=err.tolist(),
        median_error_m=float(np.median(err)),
        acc_at_threshold=float(np.count_nonzero(err < threshold_m) / err.size),
        threshold_m=threshold_m,
        regime=regime,
        config_snapshot=config_snapshot,
    )


def _memo_smoother(geometry: dict[str, KernelGeometry] | None = None) -> Smoother:
    """In-memory smoother that builds each side's operator once, from the
    command's shared kernel geometry for that side when given. A memo serves
    one graph-parameter set (one evaluation, or one cell of _evaluate_cells),
    so it is keyed by side alone and never needs invalidation.

    It walks an m-ladder: each side's float64 iterate A^m X is kept and
    advanced from the last m reached, so ascending m values cost max(m)
    sparse products per side; a smaller m starts again from X. The iterate
    is the memo's own float64 copy and is advanced in place; X is never
    written. Each column's float64 chain is the one a fresh smooth would
    take, so every result is bitwise equal to smooth(A, X, m).
    """
    operators = {}
    ladders: dict[str, tuple[int, np.ndarray]] = {}

    def smoother(side: str, dataset: Dataset, params: GraphParams,
                 m: int) -> np.ndarray:
        if side not in operators:
            operators[side] = build_operator(dataset.records, dataset.descriptors,
                                             params, (geometry or {}).get(side))
        done, iterate = ladders.get(side, (0, None))
        if iterate is None or m < done:
            done, iterate = 0, dataset.descriptors.astype(np.float64)
        if m > done:
            smooth(operators[side], iterate, SmoothConfig(m=m - done), out=iterate)
        ladders[side] = (m, iterate)
        return iterate.astype(dataset.descriptors.dtype)
    return smoother


def _smoothed_sides(regime: str, params: GraphParams, m: int,
                    query_gps: bool) -> dict[str, GraphParams]:
    """The graph params of each side that is smoothed: the regime smooths
    it, m > 0, and its params (per query_graph_params on the query side)
    turn on a structural kernel, without which the operator is the identity."""
    if regime not in SMOOTHED_SIDES:
        raise InputError(f"unknown regime {regime!r}, expected one of {REGIMES}")
    sides = {"support": params, "query": query_graph_params(params, query_gps)}
    return {side: p for side, p in sides.items()
            if side in SMOOTHED_SIDES[regime] and m > 0
            and (p.include_dist or p.include_seq)}


def _evaluate(support: Dataset, query: Dataset, params: GraphParams,
              cfg: SmoothConfig, regime: str, smoother: Smoother,
              config_snapshot: dict, *, threshold_m: float, k: int,
              strategy: str, query_gps: bool,
              ) -> tuple[np.ndarray, np.ndarray, EvalReport]:
    """Smooth each side that _smoothed_sides names on its own graph,
    retrieve, and score one parameter cell: cosine_knn's (indices, scores)
    and their report."""
    smoothed = _smoothed_sides(regime, params, cfg.m, query_gps)
    support_desc, query_desc = (
        smoother(side, dataset, smoothed[side], cfg.m) if side in smoothed
        else dataset.descriptors
        for side, dataset in (("support", support), ("query", query)))
    indices, scores = cosine_knn(query_desc, support_desc, k)
    return indices, scores, compute_report(
        indices, scores, support, query, strategy, threshold_m, regime,
        config_snapshot)


def evaluate_regime(support: Dataset, query: Dataset, params: GraphParams,
                    cfg: SmoothConfig, regime: str, *,
                    threshold_m: float = DEFAULT_THRESHOLD_M, k: int = 1,
                    strategy: str = "top1", query_gps: bool = False) -> EvalReport:
    """Run retrieval with smoothing applied per the regime and score it.

    Regimes: none (raw descriptors), gs_support (support smoothed on the
    support graph), gs_query (query smoothed on the query graph), gs_both.
    """
    snapshot = {
        "graph": asdict(params),
        "smoothing": {"m": cfg.m},
        "regime": regime,
        "k": k,
        "strategy": strategy,
        "threshold_m": threshold_m,
        "query_gps": query_gps,
        "n_support": support.n_images,
        "n_query": query.n_images,
        "dim": support.dim,
    }
    return _evaluate(support, query, params, cfg, regime, _memo_smoother(),
                     snapshot, threshold_m=threshold_m, k=k,
                     strategy=strategy, query_gps=query_gps)[2]


def _evaluate_cells(support: Dataset, query: Dataset, cells: list[GraphParams],
                    m_values: list[int], regime: str, *, threshold_m: float,
                    k: int, strategy: str, query_gps: bool,
                    threads: int = 1) -> list[list[tuple[float, float]]]:
    """Score every graph cell at every m under the regime: one
    (acc_at_threshold, median_error_m) per cell and m, cell-major.

    This is the one place that decides what cells share. Where more than
    one cell smooths a side, one kernel geometry for that side holds one
    pair structure over the union of those cells' gates, and each cell's
    graph is weight arithmetic on it, zero outside the cell's gate; a cell
    that alone smooths a side makes a geometry of its own, as `run` does.
    The geometries are freed when the cells are done. Each cell walks its m
    values as one ladder. Every (cell, m) that smooths no side shares one
    retrieval. The geometry and that retrieval are computed before the cells
    run, so a thread pool (threads > 1, more than one cell) runs the cells in
    parallel without a lock and without changing any number.
    """
    m_values = [SmoothConfig(m=m).m for m in m_values]
    # A cell smooths the same sides at every m > 0.
    top = [_smoothed_sides(regime, cell, max(m_values, default=0), query_gps)
           for cell in cells]
    geometry = {}
    for side, dataset in (("support", support), ("query", query)):
        side_cells = [sides[side] for sides in top if side in sides]
        if len(side_cells) > 1:
            geometry[side] = kernel_geometry(dataset.records,
                                             dataset.descriptors, side_cells)

    def score(cell: GraphParams, m: int, smoother: Smoother) -> tuple[float, float]:
        # Only the accuracy and median are kept, so no config snapshot.
        report = _evaluate(support, query, cell, SmoothConfig(m=m), regime,
                           smoother, {}, threshold_m=threshold_m, k=k,
                           strategy=strategy, query_gps=query_gps)[2]
        return report.acc_at_threshold, report.median_error_m

    plain = any(not _smoothed_sides(regime, cell, m, query_gps)
                for cell in cells for m in m_values)
    unsmoothed = score(cells[0], 0, _memo_smoother()) if plain else None
    # Scoring reads both splits' positions; build them before any pool.
    support.positions, query.positions

    def score_cell(cell: GraphParams) -> list[tuple[float, float]]:
        smoother = _memo_smoother(geometry)
        return [score(cell, m, smoother)
                if _smoothed_sides(regime, cell, m, query_gps) else unsmoothed
                for m in m_values]

    if threads > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(score_cell, cells))
    return [score_cell(cell) for cell in cells]


def run_ablation(support: Dataset, query: Dataset, params: GraphParams,
                 cfg: SmoothConfig, *, regime: str = "gs_support",
                 threshold_m: float = DEFAULT_THRESHOLD_M, k: int = 1,
                 strategy: str = "top1", query_gps: bool = False,
                 threads: int = 1) -> list[AblationRow]:
    """Evaluate every kernel subset (8 rows) under the regime.

    The rows without a structural kernel (all-off and latent-only) smooth
    nothing: they share the no-smoothing baseline's retrieval. With threads
    > 1 a pool of that many threads scores the rows, with the same results.
    """
    cells = [replace(params, include_dist=use_dist, include_seq=use_seq,
                     include_latent=use_latent)
             for use_dist, use_seq, use_latent in ABLATION_ORDER]
    scores = _evaluate_cells(support, query, cells, [cfg.m], regime,
                             threshold_m=threshold_m, k=k, strategy=strategy,
                             query_gps=query_gps, threads=threads)
    return [AblationRow(use_dist=use_dist, use_seq=use_seq,
                        use_latent=use_latent, median_error_m=median,
                        acc_at_threshold=acc)
            for (use_dist, use_seq, use_latent), [(acc, median)]
            in zip(ABLATION_ORDER, scores)]


def sweep_m(support: Dataset, query: Dataset, params: GraphParams,
            m_values: list[int], *, threshold_m: float = DEFAULT_THRESHOLD_M,
            k: int = 1, strategy: str = "top1", query_gps: bool = False,
            regime: str = "gs_both") -> list[tuple[int, float, float]]:
    """Evaluate the regime once per m, building each side's graph only once
    and carrying each side's iterate up the m-ladder; returns (m, acc,
    median) rows."""
    [scores] = _evaluate_cells(support, query, [params], m_values, regime,
                               threshold_m=threshold_m, k=k, strategy=strategy,
                               query_gps=query_gps)
    return [(int(m), acc, median) for m, (acc, median) in zip(m_values, scores)]


# Grid axes in canonical order; ties in the search resolve toward the
# earliest cell of the cartesian product in this order.
GRID_AXES = ("alpha", "betas", "gamma", "max_distance_m", "m")


def grid_cells(grid: dict, base_params: GraphParams,
               base_cfg: SmoothConfig) -> tuple[list[GraphParams], list[int]]:
    """The grid's graph cells in canonical product order and its m axis, each
    checked by its GraphParams or SmoothConfig; missing axes stay at base."""
    if not grid:
        raise InputError(f"grid must name at least one grid axis of {GRID_AXES}")
    unknown = set(grid) - set(GRID_AXES)
    if unknown:
        raise InputError(f"unknown grid axes {sorted(unknown)}; valid: {GRID_AXES}")
    axes = {
        "alpha": [float(v) for v in grid.get("alpha", [base_params.alpha])],
        "betas": [tuple(float(b) for b in v) for v in grid.get("betas", [base_params.betas])],
        "gamma": [float(v) for v in grid.get("gamma", [base_params.gamma])],
        "max_distance_m": [float(v) for v in grid.get("max_distance_m", [base_params.max_distance_m])],
        "m": [SmoothConfig(m=int(v)).m for v in grid.get("m", [base_cfg.m])],
    }
    for name in GRID_AXES:
        if not axes[name]:
            raise InputError(f"grid axis {name!r} is empty")
    graph_axes = GRID_AXES[:-1]
    cells = [replace(base_params, **dict(zip(graph_axes, combo)))
             for combo in product(*(axes[name] for name in graph_axes))]
    return cells, axes["m"]


def grid_search(support: Dataset, validation_query: Dataset, grid: dict, *,
                base_params: GraphParams | None = None,
                base_cfg: SmoothConfig | None = None,
                regime: str = "gs_support",
                threshold_m: float = DEFAULT_THRESHOLD_M, k: int = 1,
                strategy: str = "top1", query_gps: bool = False,
                threads: int = 1,
                ) -> tuple[GraphParams, SmoothConfig, list[dict]]:
    """Exhaustively score every grid cell and return the winner plus the
    full score table.

    Maximizes acc_at_threshold; ties break to the lower median error, then to
    the earliest cell in canonical product order. Each graph-parameter
    combination of grid_cells is one cell of _evaluate_cells, which walks
    the m axis as that cell's ladder; the threads run cells in parallel.
    """
    base_params = base_params if base_params is not None else GraphParams()
    base_cfg = base_cfg if base_cfg is not None else SmoothConfig()
    cells, m_values = grid_cells(grid, base_params, base_cfg)
    scores = _evaluate_cells(support, validation_query, cells, m_values, regime,
                             threshold_m=threshold_m, k=k, strategy=strategy,
                             query_gps=query_gps, threads=threads)
    table = [{"alpha": cell.alpha, "betas": list(cell.betas),
              "gamma": cell.gamma, "max_distance_m": cell.max_distance_m,
              "m": m, "acc_at_threshold": acc, "median_error_m": median}
             for cell, cell_scores in zip(cells, scores)
             for m, (acc, median) in zip(m_values, cell_scores)]
    best = max(range(len(table)),
               key=lambda i: (table[i]["acc_at_threshold"],
                              -table[i]["median_error_m"], -i))
    return (cells[best // len(m_values)], SmoothConfig(m=table[best]["m"]),
            table)


# ---------------------------------------------------------------------------
# Serialization


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    write_utf8(path, csv_text([
        ["regime", "threshold_m", "n_queries", "median_error_m", "acc_at_threshold"],
        [report.regime, report.threshold_m, len(report.per_query_error_m),
         report.median_error_m, report.acc_at_threshold]]))


def render_report(report: EvalReport) -> str:
    """One-line summary, e.g. `regime=gs_both: median 22.81 m / acc@25m 51.32%`."""
    return (f"regime={report.regime}: median {report.median_error_m:.2f} m"
            f" / acc@{report.threshold_m:g}m {report.acc_at_threshold * 100:.2f}%")


def ablation_table_csv(rows: list[AblationRow]) -> str:
    return csv_text([
        ["use_dist", "use_seq", "use_latent", "median_error_m", "acc_at_threshold"],
        *([int(row.use_dist), int(row.use_seq), int(row.use_latent),
           row.median_error_m, row.acc_at_threshold] for row in rows)])


def sweep_table_csv(rows: list[tuple[int, float, float]]) -> str:
    return csv_text([["m", "acc_at_threshold", "median_error_m"], *rows])


def sweep_plot_data(rows: list[tuple[int, float, float]]) -> str:
    """Two-column (m, accuracy) text block for external plotting."""
    return csv_text([(m, acc) for m, acc, _ in rows], delimiter="\t")


def grid_table_csv(table: list[dict]) -> str:
    return csv_text([
        ["alpha", "betas", "gamma", "max_distance_m", "m", "acc_at_threshold",
         "median_error_m"],
        *([row["alpha"], ";".join(map(repr, row["betas"])), row["gamma"],
           row["max_distance_m"], row["m"], row["acc_at_threshold"],
           row["median_error_m"]] for row in table)])
