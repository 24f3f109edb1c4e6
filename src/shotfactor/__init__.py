"""Spatial factorization of shot charts.

Per-player intensity surfaces are inferred with a log-Gaussian Cox model
and elliptical slice sampling, stacked and factorized into non-negative
bases, and topped with a hierarchical per-basis efficiency model.
"""

# The one place the version is set, for packaging: pyproject.toml reads it.
__version__ = "0.4.0"
