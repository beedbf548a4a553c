"""Every name a glmmkit module lists in ``__all__`` exists, and the
package's own list is pinned.

Tracing tools resolve each exported name with ``getattr``, so a stale
entry left behind by a deletion fails here first.
"""

import importlib
import pkgutil

import pytest

import glmmkit

MODULES = ["glmmkit"] + [f"glmmkit.{info.name}"
                         for info in pkgutil.iter_modules(glmmkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert not missing


# The public surface, pinned: adding or retiring a public name means an
# edit here, and a line in CHANGES.md saying what replaces a retired one.
PUBLIC = [
    "ConfigError", "DegenerateError", "DomainError", "EstimationError",
    "FamilySpec", "FitControl", "FittedGlmm", "FluctuationPath", "GhRule",
    "GlmmData", "GlmmKitError", "HessianResult", "IngestResult",
    "IngestionError", "ModelConfig", "SandwichResult", "ScoreMatrix",
    "ScoreTestResult", "ShapeError", "SimulatedGlmm", "SingularityError",
    "VuongResult", "conditional_modes", "cumulative_score_process",
    "dG_dtheta_jacobian", "default_points", "estfun", "family_spec", "fit",
    "gh_rule", "gradient", "hessian", "ingest_csv", "lambda_to_G", "llcont",
    "load_fitted", "load_lsat7", "make_counts_data", "make_glmm_data",
    "make_rasch_data", "sandwich_vcov", "sctest", "theta_length",
    "theta_to_lambda", "vuong_lr_test", "vuong_variance_test", "__version__",
]


def test_the_public_names_are_the_pinned_list():
    assert glmmkit.__all__ == PUBLIC
