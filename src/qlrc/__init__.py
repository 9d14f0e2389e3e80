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
from .bounds import (
    QlrcParams,
    SchreierGraph,
    agl_bound,
    css_params,
    degree_bound,
    distance_bruteforce,
    exact_distance,
    low_weight_witness,
    quantum_singleton_rhs,
    schreier_graph,
    second_eigenvalue,
    singleton_optimal,
    smallest_prime_factor,
    sweep_rows,
    weight_bound,
    weight_bound_audit,
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
from .field import Field, FieldElement, field_from_descriptor
from .poly import Polynomial, annihilator, interpolate, poly_from_lists
from .rng import Xorshift64Star

__version__ = "0.1.0"

__all__ = [
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
    "QlrcParams",
    "ResourceError",
    "SchreierGraph",
    "VerificationError",
    "Xorshift64Star",
    "agl_bound",
    "annihilator",
    "build_code",
    "build_evaluation_set",
    "css_params",
    "degree_bound",
    "distance_bruteforce",
    "encode",
    "exact_distance",
    "exponent_sets",
    "field_from_descriptor",
    "good_polynomial",
    "instance_from_dump",
    "instance_from_spec",
    "instance_to_dump",
    "interpolate",
    "low_weight_witness",
    "orbits",
    "poly_from_lists",
    "quantum_singleton_rhs",
    "repair",
    "schreier_graph",
    "second_eigenvalue",
    "singleton_optimal",
    "smallest_prime_factor",
    "solve_multipliers",
    "subgroup_from_MB",
    "subgroup_from_descriptor",
    "sweep_rows",
    "theta_subgroup",
    "verify_instance",
    "weight_bound",
    "weight_bound_audit",
]
