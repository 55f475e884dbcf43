"""Graph-smoothed descriptor retrieval for indirect visual localization.

Images with known GPS form a similarity graph (spatial proximity, sequence
adjacency, descriptor similarity); repeatedly applying the row-normalized
adjacency to the descriptor matrix pulls neighboring descriptors together,
and queries are localized by exact cosine retrieval against the result.
"""

from .dataset import (Dataset, ImageRecord, SplitStats,
                      filter_reachable_queries, load_dataset,
                      load_descriptors, load_metadata, write_descriptors,
                      write_metadata)
from .errors import InputError
from .evaluation import (AblationRow, EvalReport, evaluate_regime,
                         grid_search, localization_error, run_ablation,
                         sweep_m)
from .features import (Projection, apply_projection, fit_projection,
                       l2_normalize, load_projection, save_projection)
from .geodesy import EARTH_RADIUS_M, GeoPoint, haversine_m
from .graph import (GraphParams, SmoothingOperator, WeightedGraph,
                    build_graph, build_operator, build_w_dist, build_w_latent,
                    build_w_seq, combine, load_operator, normalize,
                    save_operator)
from .retrieval import Match, PoseEstimate, cosine_knn, infer_pose
from .smoothing import SmoothConfig, smooth
from .synth import SynthConfig, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "AblationRow",
    "Dataset",
    "EARTH_RADIUS_M",
    "EvalReport",
    "GeoPoint",
    "GraphParams",
    "ImageRecord",
    "InputError",
    "Match",
    "PoseEstimate",
    "Projection",
    "SmoothConfig",
    "SmoothingOperator",
    "SplitStats",
    "SynthConfig",
    "WeightedGraph",
    "apply_projection",
    "build_graph",
    "build_operator",
    "build_w_dist",
    "build_w_latent",
    "build_w_seq",
    "combine",
    "cosine_knn",
    "evaluate_regime",
    "filter_reachable_queries",
    "fit_projection",
    "generate_synthetic",
    "grid_search",
    "haversine_m",
    "infer_pose",
    "l2_normalize",
    "load_dataset",
    "load_descriptors",
    "load_metadata",
    "load_operator",
    "load_projection",
    "localization_error",
    "normalize",
    "run_ablation",
    "save_operator",
    "save_projection",
    "smooth",
    "sweep_m",
    "write_descriptors",
    "write_metadata",
    "__version__",
]
