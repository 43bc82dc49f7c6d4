"""Numerical laboratory for the Dirac sea in closed FRW universes.

Construct the mode-by-mode unitary evolution of a Dirac field on a closed
Friedmann-Robertson-Walker background, its WKB approximation, the
signature operator of the indefinite space-time pairing, the spectral
projector onto the filled (negative) subspace, finite-rank correlation
operators, and piecewise-constant scenarios whose fine-tuned rotations
make the signature operator vanish.
"""

from .errors import (
    ConventionMismatch,
    ConvergenceFailure,
    DegenerateFamily,
    DegenerateFrame,
    DegenerateSignature,
    DiracSeaError,
    DomainError,
    IntegrationFailure,
    InvalidParameter,
)
from .model import (
    Hermitian2,
    Mode,
    PiecewiseConstantScale,
    ScaleFunction,
    SmoothScale,
    TestFunction,
    Unitary2,
    bump,
    complex_bump,
    constant_scale,
    dust_scale,
    smooth_table_scale,
)
from .evolution import (
    EvolutionResult,
    accumulated_phase,
    evolve,
    evolve_grid,
    hamiltonian,
    wkb_deviation,
    wkb_evolve,
)
from .projector import (
    ProjectorOutput,
    Provenance,
    SignatureResult,
    fermionic_projector_apply,
    k_m_apply,
    k_wkb_apply,
    negative_projection,
    p_wkb_apply,
    p_wkb_leading_apply,
    signature_operator,
    signature_operator_wkb,
    wkb_eigenvalues_closed_form,
    wkb_signature_leading_term,
)
from .bloch import (
    BlochState,
    Scenario,
    bloch_axis,
    build_six_segment,
    build_twelve_segment,
    make_scenario,
    perturb_scenario,
    propagate_bloch,
    scenario_signature_components,
    v_components,
)
from .cfs import (
    Classification,
    CorrelationOperator,
    SolutionFamily,
    build_family,
    causal_classify,
    kernel_apply,
    local_correlation,
    negative_subspace_family,
    orthonormalize,
    regularized_kernel,
)
from .studies import LambdaSpec, ProbeSpec, StudyKind, StudyRecord, run_study

__version__ = "0.1.0"
