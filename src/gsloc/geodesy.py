"""Great-circle distances between GPS fixes on a spherical Earth, and the
fixes' 3-D unit vectors.

Distances serve graph construction, query filtering, and localization error
scoring. Spherical haversine is accurate to well under a meter at city scale,
which is all the pipeline's thresholds (tens of meters) ever ask of it. Unit
vectors serve the neighbor index's cubes and the weighted position estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# Length of one degree of meridian arc on the reference sphere.
METERS_PER_DEGREE = math.pi / 180.0 * EARTH_RADIUS_M


@dataclass(frozen=True)
class GeoPoint:
    """A latitude/longitude fix in decimal degrees. No gsloc code uses it;
    it is kept as API for ``benchmarks/tracer.py``, which wraps
    ``haversine_m``."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude {self.lon} outside [-180, 180]")


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Symmetric, nonnegative, and zero exactly when the coordinates coincide.
    No gsloc code calls it; it is kept as API for ``benchmarks/tracer.py``,
    which wraps it by name.
    """
    lat1, lon1 = math.radians(a.lat), math.radians(a.lon)
    lat2, lon2 = math.radians(b.lat), math.radians(b.lon)
    s_lat = math.sin((lat2 - lat1) / 2.0)
    s_lon = math.sin((lon2 - lon1) / 2.0)
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * s_lon * s_lon
    return 2.0 * EARTH_RADIUS_M * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))


def _hav(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Elementwise haversine of the central angle between fixes given in
    radians, evaluated in haversine_m's order."""
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    return s_lat * s_lat + np.cos(lat1) * np.cos(lat2) * s_lon * s_lon


def haversine_m_vectorized(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Elementwise haversine over arrays of decimal degrees, in meters."""
    # Rebinding the arguments frees each caller temporary once converted.
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(x, dtype=np.float64))
                              for x in (lat1, lon1, lat2, lon2))
    h = _hav(lat1, lon1, lat2, lon2)
    return 2.0 * EARTH_RADIUS_M * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


def unit_vectors(lats, lons) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, y, z) of each fix's 3-D unit vector (its n-vector), from arrays of
    decimal degrees, element by element."""
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    cos_phi = np.cos(phi)
    return cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)


def atan2_each(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """math.atan2 of each element pair of two 1-D float64 arrays. numpy's
    radians, degrees, sin, cos and sqrt round as the math module's do, but
    on AVX-512 hosts its arctan2 can differ from the C library's atan2 by
    one ulp (in haversine_m_each, for some pairs over about 40 km apart)."""
    angle = map(math.atan2, y.tolist(), x.tolist())
    return np.fromiter(angle, dtype=np.float64, count=y.size)


def haversine_m_each(lat1, lon1, lat2, lon2) -> np.ndarray:
    """haversine_m of each element, bit for bit: numpy up to the last step,
    which is atan2_each."""
    h = _hav(*(np.radians(np.asarray(x, dtype=np.float64))
               for x in (lat1, lon1, lat2, lon2)))
    return 2.0 * EARTH_RADIUS_M * atan2_each(np.sqrt(h), np.sqrt(1.0 - h))
