"""Ordered rational-valued finite metric spaces: exact validation,
embedding search, strong amalgamation, fair limit stages, orbit calculus,
and the ball-cover refinement witness.

``FraisseReport`` and ``check_fraisse_properties`` resolve on access (PEP
562), importing ``ordmet.fraisse`` the first time: it is the only module
that imports numpy, so every other command starts without loading it.
"""

from .amalgam import (
    AmalgamError,
    ExtensionType,
    InfeasibleExtensionError,
    amalgamate,
    extend_one_point,
    extension_feasible,
    feasibility_violation,
)
from .limit import (
    FuelExhaustedError,
    LimitBuilder,
    compose,
    new_builder,
)
from .orbits import Support, orbit_traces, same_fix_orbit
from .rationals import calkin_wilf, format_rational, parse_rational
from .spacefile import SpaceParseError, parse_space, serialize_space
from .spaces import (
    FinSpace,
    MissingDistanceError,
    PartialIso,
    PointId,
    SpaceError,
    ValidationReport,
    Violation,
    ball_trace,
    canonical_iso,
    diameter,
    embedding_ok,
    enumerate_embeddings,
    make_space,
    partial_iso_ok,
    validate,
)
from .witness import (
    ExhaustReport,
    InadmissibleTraceError,
    InjectionReport,
    WitnessConfig,
    admissible,
    build_witness,
    exhaust_all_traces,
    min_index,
    shift_iso,
    verify_injection,
)

__all__ = [
    "AmalgamError",
    "ExhaustReport",
    "ExtensionType",
    "FinSpace",
    "FraisseReport",
    "FuelExhaustedError",
    "InadmissibleTraceError",
    "InfeasibleExtensionError",
    "InjectionReport",
    "LimitBuilder",
    "MissingDistanceError",
    "PartialIso",
    "PointId",
    "SpaceError",
    "SpaceParseError",
    "Support",
    "ValidationReport",
    "Violation",
    "WitnessConfig",
    "admissible",
    "amalgamate",
    "ball_trace",
    "build_witness",
    "calkin_wilf",
    "canonical_iso",
    "check_fraisse_properties",
    "compose",
    "diameter",
    "embedding_ok",
    "enumerate_embeddings",
    "exhaust_all_traces",
    "extend_one_point",
    "extension_feasible",
    "feasibility_violation",
    "format_rational",
    "make_space",
    "min_index",
    "new_builder",
    "orbit_traces",
    "parse_rational",
    "parse_space",
    "partial_iso_ok",
    "same_fix_orbit",
    "serialize_space",
    "shift_iso",
    "validate",
    "verify_injection",
]


def __getattr__(name: str):
    if name in ("FraisseReport", "check_fraisse_properties"):
        from . import fraisse

        return getattr(fraisse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
