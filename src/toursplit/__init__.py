"""Exact min-max multi-salesperson tours and guaranteed tour splitting.

Desk-scale exact oracles (optimal tours, optimal k-partitions), the
short-diagonal splitting construction with worst-case ratio guarantees,
closed-form circle lower bounds with exhaustive verification, and a CLI.
"""

from .circle import (
    ArcOptimalityReport,
    VerificationError,
    arc_tour_length,
    circle_limit_ratio,
    circle_points,
    circle_ratio,
    verify_arc_optimality,
    verify_gap_fill_monotonicity,
)
from .exact import (
    MAX_EXACT_POINTS,
    CapacityError,
    Instance,
    Partition,
    SolveResult,
    optimal_partition,
    optimal_tour,
    speedup_ratio,
    tour_values_by_subset,
)
from .geometry import (
    ClosedTour,
    Diagonal,
    Direction,
    Point,
    convex_hull,
    min_width,
)
from .kernels import BACKEND as SOLVER_BACKEND
from .splitting import (
    BoundsRow,
    MAX_SPLIT_K,
    ChordSearchError,
    PlanNode,
    bounds_table,
    chord_at_arclength,
    equalizing_fraction,
    guaranteed_partition,
    split_plan,
)

__version__ = "0.1.0"

__all__ = [
    "ArcOptimalityReport",
    "BoundsRow",
    "CapacityError",
    "ChordSearchError",
    "ClosedTour",
    "Diagonal",
    "Direction",
    "Instance",
    "MAX_EXACT_POINTS",
    "MAX_SPLIT_K",
    "Partition",
    "PlanNode",
    "Point",
    "SOLVER_BACKEND",
    "SolveResult",
    "VerificationError",
    "arc_tour_length",
    "bounds_table",
    "chord_at_arclength",
    "circle_limit_ratio",
    "circle_points",
    "circle_ratio",
    "convex_hull",
    "equalizing_fraction",
    "guaranteed_partition",
    "min_width",
    "optimal_partition",
    "optimal_tour",
    "speedup_ratio",
    "split_plan",
    "tour_values_by_subset",
    "verify_arc_optimality",
    "verify_gap_fill_monotonicity",
]
