"""Seeded data generators for mixed-model examples and checks.

Each generator returns the drawn dataset together with the generating
parameters so simulation studies can compare estimates against truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import theta_length, theta_to_lambda
from .design import GlmmData
from .exceptions import ConfigError
from .families import family_spec

__all__ = [
    "SimulatedGlmm",
    "make_glmm_data",
    "make_rasch_data",
    "make_counts_data",
]


@dataclass(frozen=True)
class SimulatedGlmm:
    """A simulated dataset plus the parameters that generated it."""

    data: GlmmData
    beta: np.ndarray
    theta: np.ndarray
    u: np.ndarray        # standardized random effects, one row per cluster


def _draw_response(rng, family, link, eta):
    spec = family_spec(family, link)
    mu = spec.inverse_link(eta)
    if spec.family == "binomial":
        return (rng.random(eta.shape[0]) < mu).astype(float)
    return rng.poisson(mu).astype(float)


def make_glmm_data(family: str = "binomial", link: str | None = None,
                   n_clusters: int = 50, cluster_size: int = 8,
                   beta=(0.5, -0.8), random: str = "intercept",
                   theta=None, seed: int = 0) -> SimulatedGlmm:
    """Simulate a clustered GLMM dataset with one grouping factor.

    Parameters
    ----------
    family : {"binomial", "poisson"}
    link : str, optional
        Defaults to the family's canonical link.
    n_clusters, cluster_size : int
    beta : sequence
        Fixed effects; the first is the intercept, the rest multiply
        independent standard normal covariates.
    random : {"intercept", "slope"}
        "slope" uses a random intercept plus a random coefficient on the
        first covariate (q = 2).
    theta : sequence, optional
        Lower-triangle covariance factor values.  Defaults to (0.7,) for
        an intercept and (0.7, 0.2, 0.4) for a slope model.
    seed : int

    Returns
    -------
    SimulatedGlmm
    """
    if random not in ("intercept", "slope"):
        raise ConfigError(f"unknown random-effect layout {random!r}")
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] < 2 and random == "slope":
        raise ConfigError("a random slope needs at least one covariate")
    n_obs = n_clusters * cluster_size
    covariates = rng.standard_normal((n_obs, beta.shape[0] - 1))
    x = np.column_stack([np.ones(n_obs), covariates])
    if random == "intercept":
        z = np.ones((n_obs, 1))
        z_names = ["(Intercept)"]
        theta = np.asarray((0.7,) if theta is None else theta, dtype=float)
    else:
        z = np.column_stack([np.ones(n_obs), covariates[:, 0]])
        z_names = ["(Intercept)", "x1"]
        theta = np.asarray((0.7, 0.2, 0.4) if theta is None else theta,
                           dtype=float)
    q = z.shape[1]
    if theta.shape[0] != theta_length(q):
        raise ConfigError(
            f"theta has {theta.shape[0]} entries; expected {theta_length(q)}"
        )
    lam = theta_to_lambda(theta, q)
    cluster = np.repeat(np.arange(n_clusters), cluster_size)
    u = rng.standard_normal((n_clusters, q))
    eta = x @ beta + np.einsum("nj,nj->n", z, (u @ lam.T)[cluster])
    y = _draw_response(rng, family, link, eta)
    x_names = ["(Intercept)"] + [f"x{j}" for j in
                                 range(1, beta.shape[0])]
    data = GlmmData.from_arrays(y, x, z, cluster, x_names=x_names,
                                z_names=z_names)
    return SimulatedGlmm(data=data, beta=beta, theta=theta, u=u)


def make_rasch_data(n_subjects: int = 1000,
                    item_effects=(-1.0, -0.5, 0.0, 0.5, 1.0),
                    sd: float = 1.0, seed: int = 0) -> SimulatedGlmm:
    """Simulate binary item responses from a Rasch model.

    Every subject answers every item; the design matrix holds one dummy
    column per item (no intercept) and the subject ability is a random
    intercept with standard deviation ``sd``.
    """
    rng = np.random.default_rng(seed)
    item_effects = np.asarray(item_effects, dtype=float)
    n_items = item_effects.shape[0]
    n_obs = n_subjects * n_items
    x = np.tile(np.eye(n_items), (n_subjects, 1))
    z = np.ones((n_obs, 1))
    cluster = np.repeat(np.arange(n_subjects), n_items)
    u = rng.standard_normal((n_subjects, 1))
    eta = x @ item_effects + sd * u[cluster, 0]
    y = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    data = GlmmData.from_arrays(
        y, x, z, cluster,
        x_names=[f"item{j + 1}" for j in range(n_items)],
        z_names=["(Intercept)"],
    )
    return SimulatedGlmm(data=data, beta=item_effects,
                         theta=np.array([sd]), u=u)


def make_counts_data(n_clusters: int = 59, n_periods: int = 4,
                     beta=(2.2, -0.25), theta=(0.45, 0.05, 0.18),
                     seed: int = 0) -> SimulatedGlmm:
    """Simulate longitudinal count data with a random slope on time.

    Each cluster is observed over ``n_periods`` equally spaced centered
    time points; the linear predictor carries a random intercept and a
    random time slope.  The defaults mimic a seizure-count trial: about
    nine events per period, a moderate subject intercept spread, and a
    small correlated slope spread.
    """
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != theta_length(2):
        raise ConfigError("theta must parameterize a 2x2 factor")
    time = np.linspace(-0.5, 0.5, n_periods)
    n_obs = n_clusters * n_periods
    time_col = np.tile(time, n_clusters)
    x = np.column_stack([np.ones(n_obs), time_col])
    z = x.copy()
    cluster = np.repeat(np.arange(n_clusters), n_periods)
    lam = theta_to_lambda(theta, 2)
    u = rng.standard_normal((n_clusters, 2))
    eta = x @ beta + np.einsum("nj,nj->n", z, (u @ lam.T)[cluster])
    y = rng.poisson(np.exp(eta)).astype(float)
    data = GlmmData.from_arrays(
        y, x, z, cluster,
        x_names=["(Intercept)", "time"],
        z_names=["(Intercept)", "time"],
    )
    return SimulatedGlmm(data=data, beta=beta, theta=theta, u=u)
