"""Feasibility solvers for intersections of closed sets.

Projection oracles for common sets, supporting-halfspace accumulation, a
dual active-set QP for polyhedral projection, several intersection solvers
built on those pieces, and diagnostics that measure convergence rates and
sampled regularity constants.
"""

from types import ModuleType as _ModuleType

from .diagnostics import (
    InsufficientDataError,
    NoDistanceOracleError,
    PredictedBounds,
    RateReport,
    RegularityEstimate,
    analyze_trace,
    estimate_regularity,
    predicted_bounds,
)
from .gallery import GalleryEntry, gallery_entries, gallery_names, get_entry
from .harness import ExperimentConfig, UsageError, run_experiment, run_sweep
from .polyhedra import (
    Halfspace,
    InfeasiblePolyhedronError,
    NoSeparationError,
    Polyhedron,
    QPResult,
    ZeroGapError,
    derived_halfspace,
    eta,
    halfspace_from_projection,
    project_onto_polyhedron,
)
from .sets import (
    AffineSubspace,
    Ball,
    Box,
    DimensionMismatchError,
    FixedRankSet,
    HalfspaceSet,
    HyperplaneSet,
    InsufficientSamplesError,
    IntersectionSet,
    LevelSet,
    ManifoldCurve,
    PointSet,
    PolyhedralSet,
    ProjectionNotConvergedError,
    SetOracle,
    Sphere,
    UnionOfConvex,
    check_sosh,
    check_super_regular,
    project,
)
from .solvers import (
    ProblemInstance,
    Schedule,
    SolverConfig,
    Trace,
    TraceRecord,
    merit_value,
    run_averaged_projections,
    run_basic_shqp,
    run_global,
    run_map,
    run_mass_projection,
    run_memory_shqp,
    run_two_shqp,
)

__version__ = "0.1.0"

# Every public name imported above, sorted; the submodules are not exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
