"""Geodesic ball packings, transported delta-nets, and compression search
on the hyperboloid model of m-dimensional hyperbolic space."""

__version__ = "0.1.0"
