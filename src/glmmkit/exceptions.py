"""Exception hierarchy shared across the package.

Every error raised by the public API carries a ``category`` attribute so the
command line front end can emit machine readable error reports.  Categories:

* ``config``      bad model specification or invalid arguments
* ``ingestion``   CSV or config files that cannot be turned into model data
* ``estimation``  optimizer or mode-finding failures
* ``singularity`` matrices that cannot be inverted or factored
* ``degenerate``  requests that are statistically meaningless as posed
"""

from __future__ import annotations

import numbers


class GlmmKitError(Exception):
    """Base class for all package errors."""

    category = "config"


class ConfigError(GlmmKitError, ValueError):
    category = "config"


class ShapeError(ConfigError):
    """Array arguments whose dimensions do not line up."""


class DomainError(ConfigError):
    """Numeric arguments outside the mathematical domain of an operation."""


class IngestionError(GlmmKitError, ValueError):
    category = "ingestion"


class EstimationError(GlmmKitError, RuntimeError):
    category = "estimation"


class SingularityError(GlmmKitError, RuntimeError):
    category = "singularity"


class DegenerateError(GlmmKitError, RuntimeError):
    category = "degenerate"


def _check_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; ConfigError unless it is an integer, not a
    bool, and at least ``minimum``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)
