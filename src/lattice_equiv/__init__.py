"""Exact classification of convex lattice polytopes.

Core objects are integer-vertex polytopes compared under three
equivalence relations: arbitrary invertible affine maps, unimodular
(integer, determinant +-1) maps, and determinant-one affine maps.  The
deciders run on exact volume-vector invariants; the census helpers
enumerate small regions and deduplicate the results into classes.
"""

from .caps import Caps
from .census import (
    AffineMapCensus,
    ClassCensus,
    PrimitivityReport,
    affine_map_census,
    build_volume_representatives,
    census,
    classes_by_volume,
    enumerate_convex_polygons,
    primitivity_scan,
)
from .constructions import ConstructionReport, orthant_hull_construction, shave
from .equivalence import (
    CanonicalTriangle,
    EquivalenceWitness,
    NotEquivalent,
    affine_equivalent,
    affine_key,
    canonical_polygon,
    canonical_triangle,
    oracle_equivalent,
    unimodular_affine_equivalent,
    unimodular_equivalent,
)
from .errors import (
    CapExceeded,
    DegenerateInput,
    DegenerateResult,
    DimensionMismatch,
    LatticeError,
    ParseError,
    RegionTooLarge,
    TooLarge,
    ZeroVector,
)
from .geometry import (
    LatticePolytope,
    RationalAffineMap,
    Region,
    convex_hull_2d,
    dilate,
    lattice_points,
    normalized_volume,
    simplex_determinant,
)
from .invariants import (
    LatticeHeightVector,
    PrimitiveHyperplane,
    PrimitiveVolumeVector,
    VolumeVector,
    lattice_height_vector,
    primitive_decomposition,
    primitive_hyperplane,
    volume_vector,
)
from .lattices import (
    HnfResult,
    SublatticeInfo,
    attains_minimal_volume,
    hnf,
    shrink_to_minimal_volume,
    sublattice_info,
)

__all__ = [
    "AffineMapCensus",
    "CapExceeded",
    "Caps",
    "CanonicalTriangle",
    "ClassCensus",
    "ConstructionReport",
    "DegenerateInput",
    "DegenerateResult",
    "DimensionMismatch",
    "EquivalenceWitness",
    "HnfResult",
    "LatticeError",
    "LatticeHeightVector",
    "LatticePolytope",
    "NotEquivalent",
    "ParseError",
    "PrimitiveHyperplane",
    "PrimitiveVolumeVector",
    "PrimitivityReport",
    "RationalAffineMap",
    "Region",
    "RegionTooLarge",
    "SublatticeInfo",
    "TooLarge",
    "VolumeVector",
    "ZeroVector",
    "affine_equivalent",
    "affine_key",
    "affine_map_census",
    "attains_minimal_volume",
    "build_volume_representatives",
    "canonical_polygon",
    "canonical_triangle",
    "census",
    "classes_by_volume",
    "convex_hull_2d",
    "dilate",
    "enumerate_convex_polygons",
    "hnf",
    "lattice_height_vector",
    "lattice_points",
    "normalized_volume",
    "oracle_equivalent",
    "orthant_hull_construction",
    "primitive_decomposition",
    "primitive_hyperplane",
    "primitivity_scan",
    "shave",
    "shrink_to_minimal_volume",
    "simplex_determinant",
    "sublattice_info",
    "unimodular_affine_equivalent",
    "unimodular_equivalent",
    "volume_vector",
]
