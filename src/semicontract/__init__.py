"""Contraction certificates for switched systems with non-contracting modes.

The library certifies contraction on subspaces via weighted seminorms, turns
the per-subspace certificates into average dwell/leave-time bounds over a
separating family, and validates the bounds empirically through hybrid
simulation. The `semicontract` CLI exposes the full pipeline.
"""

from .certificates import (
    DecayConstants,
    DwellBounds,
    InfeasibleError,
    SubspaceCertificate,
    build_certificate,
    check_rate,
    check_switch_coupling,
    classify_mode,
    decay_constants,
    dwell_bounds_family,
    dwell_bounds_subspace,
    search_scalar_weights,
    tightest_beta,
    tightest_eta,
    tightest_m_bounds,
)
from .expr import differentiate, parse_expr
from .linalg import cholesky, gen_sym_eig, psd_check, sym_eig
from .signals import (
    SwitchingSignal,
    dwell_stats,
    generate_periodic,
    generate_random,
    verify_mdadt,
    verify_mdalt,
    verify_per_activation,
)
from .sim import (
    Trajectory,
    distance_trace,
    fit_rate,
    integrate,
    integrate_variational,
    projected_trace,
)
from .subspaces import (
    Projector,
    Subspace,
    WeightedSeminorm,
    check_invariance,
    check_separating,
    log_seminorm,
    orthonormalize,
    projector,
    reduce_weight,
    seminorm_eval,
    weighted_seminorm_eval,
)
from .system import (
    Mode,
    SampleSet,
    SwitchedSystem,
    eval_field,
    eval_jacobian,
    load_config,
    make_mode,
    sample_domain,
)

__version__ = "0.1.0"
