"""Exact arithmetic for Picard lattices of Del Pezzo surface models,
conic-fibration pair analysis, rational polyhedral cones, and double covers
of products of projective lines."""

from .lattice import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    pairing,
)

__version__ = "0.1.0"

__all__ = [
    "DivisorClass",
    "SurfaceModel",
    "canonical_class",
    "pairing",
    "__version__",
]
