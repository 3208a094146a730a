"""Shortest watchman tours in simple polygons under direction-constrained
visibility, with a rotating sweep over the direction parameter."""

from .cuts import (
    CutColor,
    CutKind,
    ThetaCut,
    VertexClass,
    classify_vertex,
    compute_cuts,
    dominates,
    left_region,
    left_region_contains,
)
from .gates import ReducedPolygon, compute_gates, reduce_polygon
from .geom import (
    Angle,
    EventAngleError,
    GeometryError,
    Point,
    Polygon,
    Segment,
    normalize_deg,
)
from .kinetic import (
    EventType,
    FrozenStructure,
    StructureInfeasibleError,
    evaluate_close_tour,
    freeze_structure,
)
from .oracle import (
    ReferenceResult,
    ValidationReport,
    dense_sweep,
    reference_min_tour,
    validate_tour,
)
from .rotor import (
    Event,
    SweepConfig,
    SweepReport,
    enumerate_candidate_events,
    minimize_interval,
    optimize,
    structure_signature,
)
from .sleeve import (
    Sleeve,
    Tour,
    TourTag,
    Triangulation,
    fold_back,
    shortest_path,
    tour_length,
    triangulate,
    unroll,
)
from .solver import (
    MaximalMovingSubpath,
    SolveResult,
    decompose_subpaths,
    solve_theta,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "CutColor",
    "CutKind",
    "Event",
    "EventAngleError",
    "EventType",
    "FrozenStructure",
    "GeometryError",
    "MaximalMovingSubpath",
    "Point",
    "Polygon",
    "ReducedPolygon",
    "ReferenceResult",
    "Segment",
    "Sleeve",
    "SolveResult",
    "StructureInfeasibleError",
    "SweepConfig",
    "SweepReport",
    "ThetaCut",
    "Tour",
    "TourTag",
    "Triangulation",
    "ValidationReport",
    "VertexClass",
    "classify_vertex",
    "compute_cuts",
    "compute_gates",
    "decompose_subpaths",
    "dense_sweep",
    "dominates",
    "enumerate_candidate_events",
    "evaluate_close_tour",
    "fold_back",
    "freeze_structure",
    "left_region",
    "left_region_contains",
    "minimize_interval",
    "normalize_deg",
    "optimize",
    "reduce_polygon",
    "reference_min_tour",
    "shortest_path",
    "solve_theta",
    "structure_signature",
    "tour_length",
    "triangulate",
    "unroll",
    "validate_tour",
]
