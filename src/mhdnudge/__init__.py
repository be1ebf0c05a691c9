"""Pseudo-spectral 2D periodic MHD in Elsasser variables with a
continuous-data-assimilation (nudging) layer."""

from .spectral import (
    Grid,
    forward_transform,
    inverse_transform,
    gradient,
    laplacian,
    leray_project_coef,
    dealias_coef,
    l2_norm,
    h1_seminorm,
    h2_seminorm,
    inner_product,
    random_divfree_field,
    save_field,
    load_field,
)
from .dynamics import (
    DimensionalParams,
    ElsasserParams,
    ForcingSpec,
    Modulation,
    MhdStepper,
    derive_elsasser_params,
    nondimensionalize,
    to_elsasser,
    from_elsasser,
    grashof_number,
    energy_budget,
    spin_up,
)
from .interpolants import (
    InterpolantSpec,
    apply_interpolant_coef,
    apply_masked,
    verify_type1_bound,
    verify_type2_bound,
)
from .nudging import (
    CoupledStepper,
    NudgingConfig,
    nudging_term,
    run_assimilation,
)
from .diagnostics import (
    AnalysisConstants,
    ErrorSeries,
    TheoremThresholds,
    fit_exponential_rate,
    theorem_thresholds,
    gronwall_condition_check,
    check_int_bound,
)

__version__ = "0.1.0"
