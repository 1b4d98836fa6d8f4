"""Pseudo-spectral laboratory for three quasi-geostrophic models.

A numpy library for simulating and verifying the inviscid, fractionally
dissipative and BBM-style regularized QG equations on the periodic square:
conservation laws, maximum principles, contraction-mapping local solves,
scale-local energy fluxes and the mu -> 0 convergence of the regularized
model.
"""

from .diagnostics import (
    HALF_SQUARE,
    FluxEstimate,
    NormRecord,
    coarse_grained_flux,
    energy_balance_residual,
    fit_loglog_slope,
    flux_decay_exponent,
    flux_scan,
    gn_constant,
    gn_residual,
    ladder_bracket,
    log_interpolation_constant,
    lp_norm,
    max_principle_check,
    sobolev_norm,
)
from .errors import (
    CorruptSnapshot,
    DegenerateFit,
    NegativePowerOnMean,
    NoContraction,
    ParseError,
    QGLabError,
    ReferenceTooCoarse,
    UnstableStep,
    ValidationError,
    Violation,
)
from .experiments import MuSweepResult, compare_mu
from .io import RunConfig, Snapshot, load_config, load_snapshot, save_snapshot, write_series
from .models import ModelParams, regularized_gradient_kernel, rhs
from .presets import cmt, from_init_string, random_shell_field, single_mode
from .spectral import (
    Grid,
    Mollifier,
    PhysicalField,
    SpectralField,
    apply_sqrt_laplacian,
    dealias,
    forward_transform,
    inverse_transform,
    mollify,
    pad_spectrum,
    riesz_velocity,
)
from .stepping import (
    PicardCertificate,
    PicardTrajectory,
    RunResult,
    StepperConfig,
    continue_solution,
    picard_solve,
    run,
)

__version__ = "0.1.0"
