"""Combinatorial model of the perfect derived category of the derived
discrete algebras Lambda(r, n, m), and their graded centers.

The package computes, by exact linear algebra over prime fields:

* validation of gentle one-cycle quivers and the clock condition,
* the arrow category of indecomposable perfect complexes (vertices,
  graded arrows, composition, suspension, AR translation),
* Hom-space bases together with independent closed-form dimensions,
* the graded center z_p and its commutative variant z'_p on a
  truncated coordinate window, with explicit generators,
* symbolic ring presentations of the full center and their
  reconciliation against the solver output.
"""

from gradedcenter.gf import FieldScalar
from gradedcenter.gentle import (
    GentleQuiver,
    OmegaParams,
    parse_quiver,
    format_quiver,
    is_gentle,
    is_one_cycle,
    cycle_arrows,
    clock_condition,
    build_lambda,
)
from gradedcenter.model import (
    ModelParams,
    Vertex,
    ArrowGen,
    Morphism,
    vertex_exists,
    compose,
    sigma,
    sigma_pow,
    sigma_mor_pow,
    tau,
    tau_sigma_periodic,
    enumerate_vertices,
    enumerate_arrows,
)
from gradedcenter.hom import HomSpace, hom_basis, hom_dim_closed_form
from gradedcenter.center import (
    CenterElement,
    InconsistencyError,
    GeneratorSpec,
    make_generator,
    check_membership,
    solve_component,
    multiply,
)
from gradedcenter.ring import RingPresentation, theorem_case, reduced_and_nil, reconcile

__version__ = "0.1.0"

__all__ = [
    "FieldScalar",
    "GentleQuiver",
    "OmegaParams",
    "parse_quiver",
    "format_quiver",
    "is_gentle",
    "is_one_cycle",
    "cycle_arrows",
    "clock_condition",
    "build_lambda",
    "ModelParams",
    "Vertex",
    "ArrowGen",
    "Morphism",
    "vertex_exists",
    "compose",
    "sigma",
    "sigma_pow",
    "sigma_mor_pow",
    "tau",
    "tau_sigma_periodic",
    "enumerate_vertices",
    "enumerate_arrows",
    "HomSpace",
    "hom_basis",
    "hom_dim_closed_form",
    "CenterElement",
    "InconsistencyError",
    "GeneratorSpec",
    "make_generator",
    "check_membership",
    "solve_component",
    "multiply",
    "RingPresentation",
    "theorem_case",
    "reduced_and_nil",
    "reconcile",
]
