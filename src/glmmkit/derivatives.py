"""Casewise likelihood derivatives for fitted models.

Everything here is post-estimation: given a :class:`FittedGlmm` (fitted
internally or rehydrated from external estimates), compute per-cluster log
likelihood contributions, per-cluster scores for the fixed effects and the
random-effect hyperparameters on any of the three parameterizations, and a
finite-difference Hessian of the total log-likelihood.

Scores are ratios of two integrals sharing one adapted quadrature rule per
cluster: the numerator integrates the conditional score times the
conditional density, the denominator the conditional density alone.  Both
come from the same kernel as the fit objective
(``estimation._quadrature_sweep``), one pass over the nodes in blocks of at
most ``estimation._BLOCK_ELEMENTS`` (row, node) entries.  The ratio is
formed in log space with a per-cluster max shift, so small marginal
densities never produce NaN scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from .estimation import (FittedGlmm, _quadrature_sweep, conditional_modes,
                         default_points)
from .exceptions import EstimationError, SingularityError
from .quadrature import GhRule, gh_rule

__all__ = ["ScoreMatrix", "HessianResult", "llcont", "estfun", "gradient",
           "hessian"]

_FD_STEP = 1e-5


@dataclass(frozen=True)
class ScoreMatrix:
    """Per-cluster scores: one row per cluster, one column per parameter."""

    values: np.ndarray
    labels: tuple[str, ...]
    parameterization: str
    m_used: int

    @property
    def n_clusters(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class HessianResult:
    """Finite-difference Hessian of the total log-likelihood.

    ``one_sided`` lists parameter indices where a central difference was
    infeasible (the perturbation left the parameter space) and a one-sided
    difference was used instead.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    parameterization: str
    m_used: int
    one_sided: tuple[int, ...] = ()


def llcont(fit: FittedGlmm, n_points: int | None = None) -> np.ndarray:
    """Per-cluster log marginal likelihood contributions.

    Uses the posterior modes stored in the fit (modes depend on the
    parameters, not on the point count), so changing ``n_points`` refines
    the same anchored rule.  The default is 5 points per dimension, which
    is not the fit's own count: pass ``fit.m_used`` to reproduce
    ``fit.loglik``.  Computed by the shared quadrature kernel, which
    evaluates the nodes in blocks of at most
    ``estimation._BLOCK_ELEMENTS`` (row, node) entries.
    """
    return _quadrature_sweep(fit.beta, fit.lambda_matrix, fit.data,
                             fit.family, fit.modes, fit.cond_chol,
                             _derivative_rule(fit, n_points))


def _derivative_rule(fit: FittedGlmm, n_points: int | None) -> GhRule:
    q = fit.data.n_random
    return gh_rule(default_points(q, "derivatives") if n_points is None
                   else n_points, q)


def _scores(fit: FittedGlmm, beta, theta, modes, chols, rule: GhRule,
            parameterization: str) -> np.ndarray:
    """Per-cluster scores at (beta, theta) on the requested scale."""
    q = fit.data.n_random
    lam = cov.theta_to_lambda(theta, q, fit.structure)
    _, values = _quadrature_sweep(beta, lam, fit.data, fit.family, modes,
                                  chols, rule,
                                  cov.free_positions(q, fit.structure))
    if parameterization == "theta":
        return values
    p = fit.data.n_fixed
    return np.hstack([values[:, :p], cov.reparameterize_scores(
        values[:, p:], lam, parameterization, fit.structure)])


def estfun(fit: FittedGlmm, parameterization: str = "var",
           n_points: int | None = None) -> ScoreMatrix:
    """Per-cluster scores for all parameters on the requested scale.

    Theta-scale scores come from one pass of the shared quadrature
    kernel (nodes in blocks of at most ``estimation._BLOCK_ELEMENTS``
    (row, node) entries); the var and sd scales apply the chain rule.
    The derivative of Lambda w.r.t. each free theta entry is a 0/1
    selector, so that entry's score is the posterior mean of one entry of
    ``Z' D^-1 V^-1 (y - mu) u'``.

    Parameters
    ----------
    fit : FittedGlmm
    parameterization : {"var", "theta", "sd"}
        "theta" differentiates w.r.t. the free entries of the relative
        covariance factor; "var" w.r.t. the unique entries of G; "sd"
        w.r.t. standard deviations and correlations.
    n_points : int, optional
        Quadrature points per dimension (default 5).

    Raises
    ------
    SingularityError
        If the fit sits on the theta boundary and var/sd scores are
        requested; the chain-rule Jacobian is singular there.
    """
    cov.validate_parameterization(parameterization)
    if fit.boundary and parameterization != "theta":
        raise SingularityError(
            "fit is on the boundary (a relative-covariance diagonal entry is "
            "zero); only theta-scale scores are defined"
        )
    rule = _derivative_rule(fit, n_points)
    values = _scores(fit, fit.beta, fit.theta, fit.modes, fit.cond_chol, rule,
                     parameterization)
    return ScoreMatrix(values=values,
                       labels=tuple(fit.parameter_labels(parameterization)),
                       parameterization=parameterization,
                       m_used=rule.points_per_dim)


def gradient(fit: FittedGlmm, parameterization: str = "var",
             n_points: int | None = None) -> np.ndarray:
    """Total score: column sums of :func:`estfun`."""
    return estfun(fit, parameterization, n_points).values.sum(axis=0)


# ---------------------------------------------------------------------------
# parameter vector mapping for finite differences


def _parameter_vector(fit: FittedGlmm, parameterization: str) -> np.ndarray:
    if parameterization == "theta":
        return np.concatenate([fit.beta, fit.theta])
    G = fit.relcov.G
    positions = cov.var_positions(fit.data.n_random, fit.structure)
    if parameterization == "var":
        tail = [G[i, j] for i, j in positions]
    else:
        sd = np.sqrt(np.diag(G))
        tail = [sd[i] if i == j else G[i, j] / (sd[i] * sd[j])
                for i, j in positions]
    return np.concatenate([fit.beta, tail])


def _theta_from_vector(tail: np.ndarray, q: int, structure: str,
                       parameterization: str) -> np.ndarray | None:
    """Rebuild theta from a var- or sd-scale tail; None when infeasible."""
    positions = cov.var_positions(q, structure)
    G = np.zeros((q, q))
    if parameterization == "var":
        for value, (i, j) in zip(tail, positions):
            G[i, j] = G[j, i] = value
    else:
        sd = np.empty(q)
        for value, (i, j) in zip(tail, positions):
            if i == j:
                sd[i] = value
        if np.any(sd <= 0.0):
            return None
        for value, (i, j) in zip(tail, positions):
            G[i, j] = G[j, i] = sd[i] * sd[j] if i == j else value * sd[i] * sd[j]
    if structure == "diagonal":
        diag = np.diag(G)
        if np.any(diag <= 0.0):
            return None
        return np.sqrt(diag)
    try:
        lam = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    return cov.lambda_to_theta(lam, structure)


def _gradient_at(vector: np.ndarray, fit: FittedGlmm, parameterization: str,
                 rule: GhRule) -> np.ndarray | None:
    """Total gradient at a perturbed vector, modes re-solved from fit.modes."""
    p = fit.data.n_fixed
    beta = vector[:p]
    if parameterization == "theta":
        theta = vector[p:]
        if np.any(theta[_diag_positions(fit)] < 0.0):
            return None
    else:
        theta = _theta_from_vector(vector[p:], fit.data.n_random,
                                   fit.structure, parameterization)
        if theta is None:
            return None
    lam = cov.theta_to_lambda(theta, fit.data.n_random, fit.structure)
    try:
        modes, chols = conditional_modes(beta, lam, fit.data, fit.family,
                                         start=fit.modes)
    except (EstimationError, np.linalg.LinAlgError):
        return None
    return _scores(fit, beta, theta, modes, chols, rule,
                   parameterization).sum(axis=0)


def _diag_positions(fit: FittedGlmm) -> list[int]:
    return [idx for idx, (i, j)
            in enumerate(cov.free_positions(fit.data.n_random, fit.structure))
            if i == j]


def hessian(fit: FittedGlmm, parameterization: str = "var",
            n_points: int | None = None) -> HessianResult:
    """Hessian of the total log-likelihood by central finite differences
    of the analytic gradient.

    Each of the 2(p+k) perturbations re-solves the posterior modes,
    starting from the fitted modes, before evaluating the gradient (step
    ``max(1e-5, 1e-5 |param|)``).  When a perturbation leaves the
    parameter space (a variance pushed negative, a correlation matrix
    losing positive definiteness) that column falls back to a one-sided
    difference and is flagged in ``one_sided``.  The result is
    symmetrized as ``(H + H') / 2``.
    """
    cov.validate_parameterization(parameterization)
    if fit.boundary and parameterization != "theta":
        raise SingularityError(
            "fit is on the boundary; request the theta parameterization"
        )
    rule = _derivative_rule(fit, n_points)
    x0 = _parameter_vector(fit, parameterization)
    n = x0.size
    matrix = np.empty((n, n))
    center = None
    one_sided: list[int] = []
    for j in range(n):
        h = max(_FD_STEP, _FD_STEP * abs(x0[j]))
        plus = x0.copy()
        plus[j] += h
        minus = x0.copy()
        minus[j] -= h
        g_plus = _gradient_at(plus, fit, parameterization, rule)
        g_minus = _gradient_at(minus, fit, parameterization, rule)
        if g_plus is not None and g_minus is not None:
            matrix[:, j] = (g_plus - g_minus) / (2.0 * h)
            continue
        if g_plus is None and g_minus is None:
            raise SingularityError(
                f"both perturbations of parameter {j} left the parameter space"
            )
        if center is None:
            center = _gradient_at(x0, fit, parameterization, rule)
            if center is None:
                raise SingularityError("gradient undefined at the fitted value")
        one_sided.append(j)
        if g_plus is not None:
            matrix[:, j] = (g_plus - center) / h
        else:
            matrix[:, j] = (center - g_minus) / h
    matrix = 0.5 * (matrix + matrix.T)
    return HessianResult(values=matrix,
                         labels=tuple(fit.parameter_labels(parameterization)),
                         parameterization=parameterization,
                         m_used=rule.points_per_dim,
                         one_sided=tuple(one_sided))
