"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install()` replaces every module attribute under `gsloc` that binds
one of the functions in SPANS (the defining module's name and every
`from`-import copy) with a wrapper that records a span per call. A span's
self time is its duration minus the spans nested in it on the same thread;
spans in grid-search worker threads therefore count toward their own
functions but not against `evaluation.grid_search`. Counts are read off the
same calls' arguments and results. Byte and flop counts are computed from
shapes, not measured.

These wrappers stand in until the program records its own stage spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time

# (metric prefix, module, attribute path) of every wrapped public function.
SPANS = (
    ("cli.main", "cli", "main"),
    ("dataset.load_dataset", "dataset", "load_dataset"),
    ("dataset.filter_reachable_queries", "dataset", "filter_reachable_queries"),
    ("spatial.pair_chunks", "spatial", "LatLonGrid.pair_chunks"),
    ("spatial.min_distance_within_reach_m", "spatial",
     "LatLonGrid.min_distance_within_reach_m"),
    ("features.fit_projection", "features", "fit_projection"),
    ("features.apply_projection", "features", "apply_projection"),
    ("features.l2_normalize", "features", "l2_normalize"),
    ("graph.build_operator", "graph", "build_operator"),
    ("graph.build_w_dist", "graph", "build_w_dist"),
    ("graph.build_w_seq", "graph", "build_w_seq"),
    ("graph.build_w_latent", "graph", "build_w_latent"),
    ("graph.from_pairs", "graph", "WeightedGraph.from_pairs"),
    ("graph.combine", "graph", "combine"),
    ("graph.normalize", "graph", "normalize"),
    ("graph.save_operator", "graph", "save_operator"),
    ("graph.load_operator", "graph", "load_operator"),
    ("smoothing.smooth", "smoothing", "smooth"),
    ("retrieval.cosine_knn", "retrieval", "cosine_knn"),
    ("evaluation.compute_report", "evaluation", "compute_report"),
    ("evaluation.grid_search", "evaluation", "grid_search"),
    ("evaluation.sweep_m", "evaluation", "sweep_m"),
    ("evaluation.run_ablation", "evaluation", "run_ablation"),
    ("cache.Cache.get_or_create", "cache", "Cache.get_or_create"),
    ("cache.sha256_file", "cache", "sha256_file"),
)

# name -> unit of every count the traced run reports.
COUNTS = {
    "graph.edges.dist": "count",
    "graph.edges.seq": "count",
    "graph.edges.latent": "count",
    "graph.isolated": "count",
    "spatial.candidates": "count",
    "spatial.kept_ratio": "ratio",
    "dataset.load_dataset.bytes": "B",
    "dataset.filter.kept_ratio": "ratio",
    "graph.latent.bytes_computed": "B",
    "smoothing.spmm_calls": "count",
    "smoothing.bytes_computed": "B",
    "retrieval.flops_computed": "flop",
    "retrieval.scores_per_s": "1/s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_written": "B",
    "geodesy.haversine_m.calls": "count",
}

OVERHEAD = "trace.overhead_s"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = {name: [0, 0.0, 0.0] for name, _, _ in SPANS}
        self.raw = dict.fromkeys(
            ["edges.dist", "edges.seq", "edges.latent", "isolated", "candidates",
             "load_bytes", "filter_raw", "filter_kept", "latent_bytes",
             "spmm_calls", "smooth_bytes", "flops", "scores", "bytes_written",
             "haversine_calls"], 0)

    # -- recording ---------------------------------------------------------

    def _add(self, key: str, value) -> None:
        with self._lock:
            self.raw[key] += value

    def _timed(self, name: str, call):
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return call()
        finally:
            elapsed = time.perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                stat = self.spans[name]
                stat[1] += elapsed
                stat[2] += elapsed - children

    def _count_call(self, name: str) -> None:
        with self._lock:
            self.spans[name][0] += 1

    def _span_wrapper(self, name: str, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count_call(name)
            result = self._timed(name, lambda: fn(*args, **kwargs))
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def _generator_wrapper(self, name: str, fn):
        """Times each next() of the generator as one span of `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count_call(name)
            inner = fn(*args, **kwargs)
            while True:
                try:
                    item = self._timed(name, lambda: next(inner))
                except StopIteration:
                    return
                self._add("candidates", int(item[0].size))
                yield item
        return wrapper

    def _counting_wrapper(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._add(key, 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch the loaded gsloc modules in place; call after importing them."""
        import gsloc.geodesy
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gsloc" or n.startswith("gsloc."))]
        for name, module, path in SPANS:
            owner = sys.modules[f"gsloc.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            make = (self._generator_wrapper if inspect.isgeneratorfunction(fn)
                    else self._span_wrapper)
            wrapped = make(name, fn)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            if outer:
                setattr(owner, attr, wrapped)
            else:
                _rebind(modules, fn, wrapped)
        fn = gsloc.geodesy.haversine_m
        _rebind(modules, fn, self._counting_wrapper("haversine_calls", fn))


def metrics(spans: dict, raw: dict, cache_hits: int, cache_misses: int,
            overhead_s: float) -> dict:
    """Per-layer metrics from a traced job's Tracer.spans and Tracer.raw."""
    out = {}
    for name, (calls, total, own) in spans.items():
        out[f"{name}.calls"] = {"value": calls, "unit": "count"}
        out[f"{name}.s"] = {"value": total, "unit": "s"}
        out[f"{name}.self_s"] = {"value": own, "unit": "s"}
    r = raw
    knn_s = spans["retrieval.cosine_knn"][1]
    values = {
        "graph.edges.dist": r["edges.dist"],
        "graph.edges.seq": r["edges.seq"],
        "graph.edges.latent": r["edges.latent"],
        "graph.isolated": r["isolated"],
        "spatial.candidates": r["candidates"],
        "spatial.kept_ratio": r["edges.dist"] / max(1, r["candidates"]),
        "dataset.load_dataset.bytes": r["load_bytes"],
        "dataset.filter.kept_ratio": r["filter_kept"] / max(1, r["filter_raw"]),
        "graph.latent.bytes_computed": r["latent_bytes"],
        "smoothing.spmm_calls": r["spmm_calls"],
        "smoothing.bytes_computed": r["smooth_bytes"],
        "retrieval.flops_computed": r["flops"],
        "retrieval.scores_per_s": r["scores"] / knn_s if knn_s > 0 else 0.0,
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.bytes_written": r["bytes_written"],
        "geodesy.haversine_m.calls": r["haversine_calls"],
    }
    for name, value in values.items():
        out[name] = {"value": value, "unit": COUNTS[name]}
    out[OVERHEAD] = {"value": overhead_s, "unit": "s"}
    return out


def _rebind(modules: list, old, new) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


# -- counts read off each call's arguments and result ----------------------


def _after_load(t: Tracer, args, kwargs, result) -> None:
    t._add("load_bytes", os.path.getsize(_arg(args, kwargs, 0, "metadata_path"))
           + os.path.getsize(_arg(args, kwargs, 1, "descriptors_path")))


def _after_filter(t: Tracer, args, kwargs, result) -> None:
    t._add("filter_raw", _arg(args, kwargs, 0, "query").n_images)
    t._add("filter_kept", result.n_images)


def _after_latent(t: Tracer, args, kwargs, result) -> None:
    t._add("edges.latent", result.n_edges)
    x = _arg(args, kwargs, 0, "descriptors")
    gate = _arg(args, kwargs, 1, "gate")
    if _arg(args, kwargs, 2, "params").gamma != 0.0 and gate.n_edges:
        # one norm pass over x, then both float64 rows of every gated pair
        t._add("latent_bytes", x.shape[0] * x.shape[1] * x.itemsize
               + 2 * gate.n_edges * x.shape[1] * 8)


def _after_smooth(t: Tracer, args, kwargs, result) -> None:
    op = _arg(args, kwargs, 0, "op")
    n, d = _arg(args, kwargs, 1, "signal").shape
    m = _arg(args, kwargs, 2, "cfg").m
    t._add("spmm_calls", m)
    # per application: the CSR operator (8 B value + 4 B index per entry) and
    # the float64 signal read once and written once
    t._add("smooth_bytes", m * (12 * op.matrix.nnz + 16 * n * d))


def _after_knn(t: Tracer, args, kwargs, result) -> None:
    nq, d = _arg(args, kwargs, 0, "queries").shape
    ns = _arg(args, kwargs, 1, "support").shape[0]
    t._add("scores", nq * ns)
    t._add("flops", 2 * nq * ns * d)


def _after_get_or_create(t: Tracer, args, kwargs, result) -> None:
    path, hit = result
    if not hit:
        t._add("bytes_written", os.path.getsize(path))


_AFTER = {
    "dataset.load_dataset": _after_load,
    "dataset.filter_reachable_queries": _after_filter,
    "graph.build_w_dist": lambda t, a, k, r: t._add("edges.dist", r.n_edges),
    "graph.build_w_seq": lambda t, a, k, r: t._add("edges.seq", r.n_edges),
    "graph.build_w_latent": _after_latent,
    "graph.build_operator": lambda t, a, k, r: t._add(
        "isolated", int(r.isolated_vertices.size)),
    "smoothing.smooth": _after_smooth,
    "retrieval.cosine_knn": _after_knn,
    "cache.Cache.get_or_create": _after_get_or_create,
}
