"""Workbench for intersection patterns of separated multi-level intervals.

A point lives on one of d ordered levels; a set meets each level in a
contiguous run of the level's points.  The package computes nerves and
sweep collapses of such families, checks Radon / Helly style statements
exhaustively, solves exact piercing and fractional matching problems,
and generates seeded random corpora for all of the above.
"""

from .complexes import (
    CollapseSequence,
    CollapseStep,
    SimplicialComplex,
    SweepIteration,
    SweepResult,
    is_d_collapsible,
    nerve,
    sweep_collapse,
)
from .errors import (
    DimensionMismatchError,
    DIntervalError,
    GroundSetMismatchError,
    GuardExceededError,
    NotAFaceError,
    NotFreeError,
    PreconditionError,
    SchemaError,
    SweepInvariantError,
    TheoremViolationError,
)
from .generators import (
    ColorfulHellyProperty,
    ConditionedOutcome,
    GenSpec,
    KIntersectRich,
    PqProperty,
    gen_conditioned,
    gen_family,
    gen_ground,
    gen_helly_lower_bound,
    gen_instance,
    gen_radon_lower_bound,
)
from .geometry import (
    DInterval,
    LevelInterval,
    LexValue,
    Point,
    PointSet,
    TraceSet,
    f_value,
    hull,
    intersect_all,
    k_intersects,
    minimal_dinterval,
    trace_of,
)
from .helly import (
    ColorfulSelection,
    HellyReport,
    RadonPartition,
    cfh_stats,
    colorful_helly_points,
    frac_helly_stats,
    helly_check,
    max_k_intersecting_subfamily,
    maxima_witness_subfamily,
    radon_number_bruteforce,
    radon_partition,
)
from .instances import Instance, dump_instance, parse_instance, serialize_instance
from .piercing import (
    LPSolution,
    PiercingResult,
    blow_up,
    max_point_cover,
    pierce_all,
    piercing_bound_check,
    pq_check,
)
from .reports import Report, emit_report, jsonify

__version__ = "0.1.0"
