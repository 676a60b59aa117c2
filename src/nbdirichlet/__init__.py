"""Non-bilinear Dirichlet forms on finite measure spaces.

Convex energies over weighted point sets, the piecewise-linear normal
contraction algebra with its two-breakpoint factorisation, explicit lattice
and projection operators, implicit-Euler gradient flows, and a seeded
property-testing harness for the order/contraction criteria.
"""

from types import ModuleType as _ModuleType

from .contraction import (
    PLFunction,
    compose,
    decompose,
    envelope,
    make_phi,
    negate,
)
from .errors import (
    BadSpec,
    BadWeight,
    EmptySpace,
    InconsistentSamples,
    NoConvergence,
    NotAlternating,
    NotIncreasing,
    PreconditionFailed,
    SpaceMismatch,
)
from .flow import (
    FlowConfig,
    FlowTrace,
    evolve,
    exact_graph_resolvent,
    prox_certificate,
    prox_step,
    trace_to_csv,
)
from .forms import FormInstance, ScalarPiece, make_form
from .lattice_ops import (
    h_alpha,
    phi_alpha,
    project_band,
    project_oracle,
    project_order,
    twist_residuals,
)
from .measure import Field, MeasureSpace, make_field
from .samplers import (
    SuiteConfig,
    check_rng,
    sample_alpha,
    sample_contraction,
)
from .verifier import (
    CheckResult,
    check_criteria,
    check_identities,
    check_normal_contraction,
    counterexample_demo,
    replay,
    run_proof_chain,
    verify_form,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__version__ = "0.1.0"
