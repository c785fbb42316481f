"""Geodesic ball packings, transported delta-nets, and compression search
on the hyperboloid model of m-dimensional hyperbolic space."""

from hypack.geometry import (
    DEFAULT_TOL,
    HPoint,
    HTangent,
    NumericRangeError,
    PolarBatch,
    distance,
    exp_map,
    log_map,
    minkowski_inner,
    parallel_transport,
    polar_distance,
    transvection_to,
    triangle_angles,
)

__version__ = "0.1.0"
