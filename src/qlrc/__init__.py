"""Locally recoverable codes that contain their duals, with quantum parameters.

The package builds evaluation codes whose coordinates split into repair
blocks of size r + 1, chooses multipliers so the big code contains its own
dual, derives the [[n, 2k - n]] quantum parameters, and certifies distance
lower bounds in closed form, and the exact distance from a witness at the
degree bound or by enumeration at desk scale.
"""

from .agl import (
    AffineMap,
    AglSubgroup,
    GoodPolynomial,
    good_polynomial,
    orbits,
    subgroup_from_MB,
    subgroup_from_descriptor,
    theta_subgroup,
)
from .construct import (
    CodeInstance,
    EvaluationSet,
    ExponentSets,
    build_code,
    build_evaluation_set,
    encode,
    exponent_sets,
    instance_from_dump,
    instance_from_spec,
    instance_to_dump,
    repair,
    solve_multipliers,
    verify_instance,
)
from .errors import ConstructionError, InputError, QlrcError, ResourceError, VerificationError
from .field import Field, FieldElement, field_from_descriptor, smallest_prime_factor
from .poly import Polynomial, annihilator, interpolate
from .rng import Xorshift64Star

__version__ = "0.1.0"

# Names of the bounds layer, imported with qlrc.bounds (and qlrc.linalg) on
# first use, so that a process that only constructs, verifies, encodes or
# repairs never compiles them.  __all__ adds them to the names imported above.
_BOUNDS_NAMES = frozenset(
    {
        "QlrcParams",
        "SchreierGraph",
        "agl_bound",
        "css_params",
        "degree_bound",
        "distance_bruteforce",
        "exact_distance",
        "low_weight_witness",
        "quantum_singleton_rhs",
        "schreier_graph",
        "second_eigenvalue",
        "singleton_optimal",
        "sweep_rows",
        "weight_bound",
        "weight_bound_audit",
    }
)


def __getattr__(name: str):
    if name in _BOUNDS_NAMES:
        from . import bounds

        return getattr(bounds, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _BOUNDS_NAMES)


__all__ = sorted(
    [
        "AffineMap",
        "AglSubgroup",
        "CodeInstance",
        "ConstructionError",
        "EvaluationSet",
        "ExponentSets",
        "Field",
        "FieldElement",
        "GoodPolynomial",
        "InputError",
        "Polynomial",
        "QlrcError",
        "ResourceError",
        "VerificationError",
        "Xorshift64Star",
        "annihilator",
        "build_code",
        "build_evaluation_set",
        "encode",
        "exponent_sets",
        "field_from_descriptor",
        "good_polynomial",
        "instance_from_dump",
        "instance_from_spec",
        "instance_to_dump",
        "interpolate",
        "orbits",
        "repair",
        "smallest_prime_factor",
        "solve_multipliers",
        "subgroup_from_MB",
        "subgroup_from_descriptor",
        "theta_subgroup",
        "verify_instance",
        *_BOUNDS_NAMES,
    ]
)
