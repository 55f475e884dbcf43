"""Graph-smoothed descriptor retrieval for indirect visual localization.

Images with known GPS form a similarity graph (spatial proximity, sequence
adjacency, descriptor similarity); repeatedly applying the row-normalized
adjacency to the descriptor matrix pulls neighboring descriptors together,
and queries are localized by exact cosine retrieval against the result.
"""

from .dataset import load_dataset
from .evaluation import evaluate_regime, grid_search, run_ablation, sweep_m
from .graph import GraphParams, build_operator
from .retrieval import cosine_knn
from .smoothing import SmoothConfig, smooth

__version__ = "0.1.0"

__all__ = [
    "GraphParams",
    "SmoothConfig",
    "build_operator",
    "cosine_knn",
    "evaluate_regime",
    "grid_search",
    "load_dataset",
    "run_ablation",
    "smooth",
    "sweep_m",
    "__version__",
]
