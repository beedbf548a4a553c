"""Marginal likelihoods, scores, and score-based tests for GLMMs.

A single-grouping-factor generalized linear mixed model toolkit built
around adaptive Gauss-Hermite quadrature: casewise log-likelihood
contributions and their derivatives, robust (sandwich) covariance,
parameter-instability tests along auxiliary orderings, and Vuong model
comparison tests.
"""

from .covariance import (
    dG_dtheta_jacobian,
    lambda_to_G,
    theta_length,
    theta_to_lambda,
)
from .derivatives import (
    HessianResult,
    ScoreMatrix,
    estfun,
    gradient,
    hessian,
    llcont,
)
from .datasets import load_lsat7
from .design import GlmmData
from .estimation import (
    FitControl,
    FittedGlmm,
    conditional_modes,
    default_points,
    fit,
    load_fitted,
)
from .exceptions import (
    ConfigError,
    DegenerateError,
    DomainError,
    EstimationError,
    GlmmKitError,
    IngestionError,
    ShapeError,
    SingularityError,
)
from .families import FamilySpec, family_spec
from .ingest import IngestResult, ModelConfig, ingest_csv
from .quadrature import GhRule, gh_rule
from .sandwich import SandwichResult, sandwich_vcov
from .simulate import (
    SimulatedGlmm,
    make_counts_data,
    make_glmm_data,
    make_rasch_data,
)
from .stability import (
    FluctuationPath,
    ScoreTestResult,
    cumulative_score_process,
    sctest,
)
from .vuong import VuongResult, vuong_lr_test, vuong_variance_test

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateError",
    "DomainError",
    "EstimationError",
    "FamilySpec",
    "FitControl",
    "FittedGlmm",
    "FluctuationPath",
    "GhRule",
    "GlmmData",
    "GlmmKitError",
    "HessianResult",
    "IngestResult",
    "IngestionError",
    "ModelConfig",
    "SandwichResult",
    "ScoreMatrix",
    "ScoreTestResult",
    "ShapeError",
    "SimulatedGlmm",
    "SingularityError",
    "VuongResult",
    "conditional_modes",
    "cumulative_score_process",
    "dG_dtheta_jacobian",
    "default_points",
    "estfun",
    "family_spec",
    "fit",
    "gh_rule",
    "gradient",
    "hessian",
    "ingest_csv",
    "lambda_to_G",
    "llcont",
    "load_fitted",
    "load_lsat7",
    "make_counts_data",
    "make_glmm_data",
    "make_rasch_data",
    "sandwich_vcov",
    "sctest",
    "theta_length",
    "theta_to_lambda",
    "vuong_lr_test",
    "vuong_variance_test",
    "__version__",
]
