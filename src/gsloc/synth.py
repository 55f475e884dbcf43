"""Synthetic desk-scale datasets: a road of places traversed by camera sequences.

Places sit along a meandering path; every sequence visits all places in order,
dwelling for ``frames_per_place`` consecutive frames at each — so nearby frame
indices usually look at the same scene, the property sequence-based smoothing
relies on. Each place owns a fixed unit-norm prototype descriptor and every
emitted descriptor is the L2-normalized prototype plus Gaussian noise. GPS
fixes get meter-scale jitter. Everything is drawn from one seeded RNG, so a
(config, seed) pair reproduces bit-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, ImageRecord
from .errors import InputError
from .geodesy import METERS_PER_DEGREE

BASE_LAT = -34.93
BASE_LON = 138.60


@dataclass(frozen=True)
class SynthConfig:
    n_places: int = 40
    n_support_sequences: int = 10
    n_query_sequences: int = 3
    frames_per_place: int = 4
    dim: int = 64
    noise_sigma: float = 0.28
    place_spacing_m: float = 50.0
    gps_jitter_m: float = 8.0

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it.
        for name in ("n_places", "n_support_sequences", "n_query_sequences",
                     "frames_per_place", "dim", "place_spacing_m"):
            if not 0 < getattr(self, name) < np.inf:
                raise InputError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < np.inf:
            raise InputError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if not 0 <= self.gps_jitter_m < np.inf:
            raise InputError(f"gps_jitter_m must be >= 0 and finite, got {self.gps_jitter_m}")


def _road_layout(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Place coordinates (lat, lon) along a gently meandering path."""
    headings = np.cumsum(np.concatenate(
        [[rng.uniform(0.0, 2.0 * math.pi)], rng.normal(0.0, 0.15, cfg.n_places - 1)]))
    steps = cfg.place_spacing_m * np.stack([np.cos(headings), np.sin(headings)], axis=1)
    xy = np.cumsum(steps, axis=0) - steps[0]  # place 0 at the origin
    coords = np.empty((cfg.n_places, 2))
    coords[:, 0] = BASE_LAT + xy[:, 1] / METERS_PER_DEGREE
    coords[:, 1] = BASE_LON + xy[:, 0] / (METERS_PER_DEGREE * math.cos(math.radians(BASE_LAT)))
    return coords


def _emit_split(prefix: str, n_sequences: int, cfg: SynthConfig,
                places: np.ndarray, prototypes: np.ndarray,
                rng: np.random.Generator, role: str,
                ground_truth: dict[str, int]) -> Dataset:
    records: list[ImageRecord] = []
    n_rows = n_sequences * cfg.n_places * cfg.frames_per_place
    descriptors = np.empty((n_rows, cfg.dim), dtype=np.float32)
    row = 0
    for s in range(n_sequences):
        sequence_id = f"{prefix}{s:03d}"
        frame = 0
        for k in range(cfg.n_places):
            for _ in range(cfg.frames_per_place):
                image_id = f"{sequence_id}_{frame:04d}"
                jitter = (rng.normal(0.0, cfg.gps_jitter_m, 2)
                          if cfg.gps_jitter_m > 0 else (0.0, 0.0))
                lat = float(places[k, 0] + jitter[0] / METERS_PER_DEGREE)
                lon = float(places[k, 1] + jitter[1]
                            / (METERS_PER_DEGREE * math.cos(math.radians(BASE_LAT))))
                records.append(ImageRecord(image_id, sequence_id, frame, lat, lon))
                if cfg.noise_sigma > 0:
                    vec = prototypes[k] + cfg.noise_sigma * rng.standard_normal(cfg.dim)
                    vec /= np.linalg.norm(vec)
                else:
                    vec = prototypes[k]
                descriptors[row] = vec.astype(np.float32)
                ground_truth[image_id] = k
                row += 1
                frame += 1
    return Dataset(records=records, descriptors=descriptors, role=role)


def generate_synthetic(cfg: SynthConfig, seed: int) -> tuple[Dataset, Dataset, dict[str, int]]:
    """Build (support, query, ground_truth) where ground_truth maps image_id
    to the place index the image was taken at."""
    rng = np.random.default_rng(seed)
    prototypes = rng.standard_normal((cfg.n_places, cfg.dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    places = _road_layout(cfg, rng)
    ground_truth: dict[str, int] = {}
    support = _emit_split("sup", cfg.n_support_sequences, cfg, places, prototypes,
                          rng, "support", ground_truth)
    query = _emit_split("qry", cfg.n_query_sequences, cfg, places, prototypes,
                        rng, "query", ground_truth)
    return support, query, ground_truth
