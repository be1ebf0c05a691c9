"""Pseudo-spectral 2D periodic MHD in Elsasser variables with a
continuous-data-assimilation (nudging) layer."""

from .spectral import (
    Grid,
    leray_project_coef,
    dealias_coef,
    random_divfree_field,
)
from .dynamics import (
    ForcingSpec,
    Modulation,
    MhdStepper,
    derive_elsasser_params,
    to_elsasser,
    spin_up,
)
from .interpolants import (
    InterpolantSpec,
    apply_interpolant_coef,
    apply_masked,
)
from .nudging import (
    CoupledStepper,
    NudgingConfig,
    nudging_term,
    run_assimilation,
)
from .diagnostics import (
    ErrorSeries,
    fit_exponential_rate,
    gronwall_condition_check,
    check_int_bound,
)

__version__ = "0.1.0"
