"""Exponential-family kernels for the supported response distributions.

The likelihood and score machinery only ever needs a handful of
distribution-specific quantities: the inverse link and its first four
derivatives in ``eta``, the variance function ``Var(mu)``, and the
conditional log density written in exponential-family form

    y * kappa - h(kappa) + c(y)

from its primitives ``canonical_parameter``, ``cumulant`` and
``log_normalizer``, with dispersion fixed at 1 for both supported
families.  Binomial responses are Bernoulli trials (0/1); Poisson
responses are nonnegative counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .exceptions import ConfigError, DomainError

__all__ = ["FamilySpec", "family_spec", "SUPPORTED_LINKS"]

# Mean clamp applied before density evaluation.  Out-of-range eta never
# errors; only explicitly supplied boundary mu does.
_EPS = 1e-10

# exp() saturates around 709.78 in double precision; cap the Poisson linear
# predictor so the mean stays finite and log densities stay well defined.
_ETA_MAX = 709.0

# kappa range matching the mean clamp, for the canonical-link shortcut
# kappa = clamped eta: logit([eps, 1 - eps]) and log([eps, exp(_ETA_MAX)])
_KAPPA_RANGE = {
    "binomial": (float(special.logit(_EPS)), float(special.logit(1.0 - _EPS))),
    "poisson": (float(np.log(_EPS)), _ETA_MAX),
}

SUPPORTED_LINKS = {
    "binomial": ("logit", "probit", "cloglog"),
    "poisson": ("log",),
}

_CANONICAL = {"binomial": "logit", "poisson": "log"}


def _asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class FamilySpec:
    """Response family plus link, with the quantities the scores need.

    Parameters
    ----------
    family : str
        "binomial" or "poisson".
    link : str
        "logit", "probit" or "cloglog" for binomial; "log" for poisson.

    All numeric methods accept scalars or arrays and broadcast like numpy
    ufuncs.  Scalars in, scalar out.
    """

    family: str
    link: str

    def __post_init__(self) -> None:
        if self.family not in SUPPORTED_LINKS:
            raise ConfigError(f"unknown family {self.family!r}")
        if self.link not in SUPPORTED_LINKS[self.family]:
            raise ConfigError(
                f"link {self.link!r} is not supported for family {self.family!r}"
            )

    @property
    def canonical(self) -> bool:
        """True when the link is the canonical link for the family."""
        return _CANONICAL[self.family] == self.link

    # -- link functions -------------------------------------------------

    def inverse_link(self, eta):
        """Map the linear predictor to the mean, clamped away from the
        boundary of the mean space (binomial: [eps, 1-eps], poisson:
        [eps, inf)).  Non-finite eta raises DomainError."""
        eta = _asarray(eta)
        if not np.isfinite(eta).all():
            raise DomainError("non-finite linear predictor")
        if self.family == "poisson":
            mu = np.exp(np.minimum(eta, _ETA_MAX))
            mu = np.maximum(mu, _EPS)
        elif self.link == "logit":
            mu = special.expit(eta)
        elif self.link == "probit":
            mu = special.ndtr(eta)
        else:  # cloglog
            mu = -np.expm1(-np.exp(np.minimum(eta, _ETA_MAX)))
        if self.family == "binomial":
            mu = mu.clip(_EPS, 1.0 - _EPS)
        return mu[()] if mu.ndim == 0 else mu

    def variance_function(self, mu):
        """Var(y | mu) with the dispersion a(phi) = 1."""
        mu = self._check_interior(mu)
        out = mu * (1.0 - mu) if self.family == "binomial" else mu + 0.0
        return out[()] if out.ndim == 0 else out

    # -- densities -------------------------------------------------------

    def validate_support(self, y: np.ndarray) -> None:
        if self.family == "binomial":
            if not np.all((y == 0.0) | (y == 1.0)):
                raise DomainError("binomial responses must be 0/1")
        else:
            if not np.all((y >= 0.0) & (y == np.floor(y)) & np.isfinite(y)):
                raise DomainError("poisson responses must be nonnegative integers")

    def canonical_parameter(self, mu):
        """kappa(mu), the natural parameter."""
        mu = self._clamp(_asarray(mu))
        out = np.log(mu) if self.family == "poisson" else special.logit(mu)
        return out[()] if out.ndim == 0 else out

    def cumulant(self, kappa):
        """h(kappa), the cumulant function normalizing the density."""
        kappa = _asarray(kappa)
        if self.family == "poisson":
            out = np.exp(kappa)
        else:
            # log(1 + e^kappa), stable at both tails
            out = np.maximum(kappa, 0.0) + np.log1p(np.exp(-np.abs(kappa)))
        return out[()] if out.ndim == 0 else out

    def log_normalizer(self, y):
        """c(y), the carrier term; 0 for Bernoulli, -log(y!) for Poisson."""
        y = _asarray(y)
        if self.family == "poisson":
            out = -special.gammaln(y + 1.0)
        else:
            out = np.zeros_like(y)
        return out[()] if out.ndim == 0 else out

    # -- internal fast paths (inputs already validated/clamped) ----------

    def _natural_parameter(self, eta: np.ndarray, mu=None) -> np.ndarray:
        """kappa at a linear predictor, given its mean from
        :meth:`inverse_link` unless the link is canonical.

        Under the canonical link kappa is eta itself, clamped to the range
        the mean clamp allows, so the mean is not needed; without one,
        non-finite eta raises DomainError as :meth:`inverse_link` would.
        """
        if not self.canonical:
            return self.canonical_parameter(mu)
        if mu is None and not np.isfinite(eta).all():
            raise DomainError("non-finite linear predictor")
        return eta.clip(*_KAPPA_RANGE[self.family])

    def _clamp(self, mu: np.ndarray) -> np.ndarray:
        if self.family == "binomial":
            return mu.clip(_EPS, 1.0 - _EPS)
        return np.maximum(mu, _EPS)

    def _check_interior(self, mu) -> np.ndarray:
        mu = _asarray(mu)
        bad = (mu <= 0.0) | ~np.isfinite(mu)
        if self.family == "binomial":
            bad |= mu >= 1.0
        if bad.any():
            raise DomainError("mu must lie strictly inside the mean space")
        return mu

    def _dmu_deta(self, eta: np.ndarray) -> np.ndarray:
        """d mu / d eta as a function of eta (no boundary checks)."""
        if self.family == "poisson":
            return np.exp(np.minimum(eta, _ETA_MAX))
        if self.link == "logit":
            p = special.expit(eta)
            return p * (1.0 - p)
        if self.link == "probit":
            return _norm_pdf(eta)
        e = np.exp(np.minimum(eta, _ETA_MAX))
        return e * np.exp(-e)

    def _d2mu_deta2(self, eta: np.ndarray) -> np.ndarray:
        """Second derivative of mu with respect to eta."""
        if self.family == "poisson":
            return np.exp(np.minimum(eta, _ETA_MAX))
        if self.link == "logit":
            p = special.expit(eta)
            return p * (1.0 - p) * (1.0 - 2.0 * p)
        if self.link == "probit":
            return -eta * _norm_pdf(eta)
        e = np.exp(np.minimum(eta, _ETA_MAX))
        return e * np.exp(-e) * (1.0 - e)

    def _d3mu_deta3(self, eta: np.ndarray) -> np.ndarray:
        """Third derivative of mu with respect to eta."""
        if self.family == "poisson":
            return np.exp(np.minimum(eta, _ETA_MAX))
        if self.link == "logit":
            p = special.expit(eta)
            return p * (1.0 - p) * (1.0 - 6.0 * p * (1.0 - p))
        if self.link == "probit":
            return (eta * eta - 1.0) * _norm_pdf(eta)
        # dmu is exactly 0 from eta = 6.61 on, so a bound of 30 on the
        # exponent changes no value and keeps 3 e finite
        e = np.exp(np.minimum(eta, 30.0))
        dmu = e * np.exp(-e)
        # dmu * e * e, not dmu * (e * e): e * e overflows where dmu is 0
        return dmu * (1.0 - 3.0 * e) + dmu * e * e

    def _d4mu_deta4(self, eta: np.ndarray) -> np.ndarray:
        """Fourth derivative of mu with respect to eta."""
        if self.family == "poisson":
            return np.exp(np.minimum(eta, _ETA_MAX))
        if self.link == "logit":
            p = special.expit(eta)
            dmu = p * (1.0 - p)
            return dmu * (1.0 - 2.0 * p) * (1.0 - 12.0 * dmu)
        if self.link == "probit":
            return (3.0 - eta * eta) * (eta * _norm_pdf(eta))
        e = np.exp(np.minimum(eta, _ETA_MAX))
        dmu = e * np.exp(-e)
        # every power of e follows the factor dmu, which is 0 where the
        # power alone would overflow
        de = dmu * e
        return dmu - 7.0 * de + 6.0 * de * e - de * e * e

    def _dvar_dmu(self, mu: np.ndarray) -> np.ndarray:
        if self.family == "binomial":
            return 1.0 - 2.0 * mu
        return np.ones_like(mu)

    def _d2var_dmu2(self) -> float:
        """V''(mu), a constant for both families."""
        return -2.0 if self.family == "binomial" else 0.0


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def family_spec(family: str, link: str | None = None) -> FamilySpec:
    """Build a :class:`FamilySpec`, defaulting to the canonical link."""
    if link is None:
        link = _CANONICAL.get(family)
        if link is None:
            raise ConfigError(f"unknown family {family!r}")
    return FamilySpec(family, link)


def as_family_spec(family) -> FamilySpec:
    """Pass a :class:`FamilySpec` through; build one from a family name."""
    if isinstance(family, FamilySpec):
        return family
    return family_spec(str(family))
