"""Casewise likelihood derivatives for fitted models.

Everything here is post-estimation: given a :class:`FittedGlmm` (fitted
internally or rehydrated from external estimates), compute per-cluster log
likelihood contributions, per-cluster scores for the fixed effects and the
random-effect hyperparameters on any of the three parameterizations, and
the Hessian of the total log-likelihood: the exact derivative of the
summed scores with the quadrature anchors following the parameters.

Scores are ratios of two integrals sharing one adapted quadrature rule per
cluster: the numerator integrates the conditional score times the
conditional density, the denominator the conditional density alone.  Both
come from the same kernel as the fit objective
(``estimation._quadrature_sweep``), one pass over the nodes in blocks of at
most ``estimation._BLOCK_ELEMENTS`` (row, node) entries.  The ratio is
formed in log space with a per-cluster max shift, so small marginal
densities never produce NaN scores.  The Hessian comes from one more
pass of the same kernel, which also sums the observed curvature against
every product of two design columns and returns the scores with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import covariance as cov
from .estimation import (FittedGlmm, _on_boundary, _quadrature_sweep,
                         default_points)
from .exceptions import SingularityError
from .quadrature import GhRule, gh_rule

__all__ = ["ScoreMatrix", "HessianResult", "llcont", "estfun", "gradient",
           "hessian"]


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
    """Hessian of the total log-likelihood (see :func:`hessian`).

    ``scores`` holds the per-cluster scores on the same scale and point
    count, which the Hessian's sweep yields on the way; a caller that
    needs both (the sandwich, the Vuong null) runs one sweep instead of
    two.  ``one_sided`` lists the parameter indices of theta-scale
    diagonal entries on the bound, where only the derivative from the
    feasible side exists.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    parameterization: str
    m_used: int
    scores: ScoreMatrix
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


def _refuse_boundary(fit: FittedGlmm, parameterization: str) -> None:
    """Check the scale, and refuse var/sd scores at the theta boundary,
    where the chain-rule Jacobian is singular."""
    cov.validate_parameterization(parameterization)
    if fit.boundary and parameterization != "theta":
        raise SingularityError(
            "fit is on the boundary (a relative-covariance diagonal entry is "
            "zero); only theta-scale scores are defined"
        )


def _on_scale(values, p, jac) -> np.ndarray:
    """Theta-scale score columns mapped by the chain Jacobian ``jac``
    (``covariance.theta_chain``); None leaves them on the theta scale."""
    if jac is None:
        return values
    return np.hstack([values[:, :p], values[:, p:] @ jac])


def _scores(fit: FittedGlmm, beta, theta, modes, chols, rule: GhRule,
            parameterization: str) -> np.ndarray:
    """Per-cluster scores at (beta, theta) on the requested scale."""
    q = fit.data.n_random
    lam = cov.theta_to_lambda(theta, q, fit.structure)
    _, values = _quadrature_sweep(beta, lam, fit.data, fit.family, modes,
                                  chols, rule,
                                  cov.free_positions(q, fit.structure))
    jac = (None if parameterization == "theta"
           else cov.theta_chain(lam, parameterization, fit.structure)[0])
    return _on_scale(values, fit.data.n_fixed, jac)


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
    _refuse_boundary(fit, parameterization)
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


def hessian(fit: FittedGlmm, parameterization: str = "var",
            n_points: int | None = None) -> HessianResult:
    """Hessian of the total log-likelihood: the exact Jacobian of the
    summed casewise scores, with the modes and conditional factors
    following the parameters.

    One quadrature sweep at the fit's anchors gives the Louis identity
    (posterior mean of the conditional Hessian plus the posterior
    variance of the conditional score) and, through implicit
    differentiation of the mode and of the conditional Cholesky factor,
    the scores' motion with the anchors; see
    ``estimation._anchored_hessian``.  The var and sd scales apply the
    second-order chain rule ``H_v = J' H_theta J + sum_t s_theta_t
    d^2 theta_t / dv dv'`` (``covariance.theta_chain``), whose second term
    is not zero away from a stationary point.  The result is symmetrized
    as ``(H + H') / 2``.  ``one_sided`` lists the theta-scale diagonal
    entries on the bound (``estimation._on_boundary``): their
    columns are derivatives from the feasible side.

    The same sweep gives the per-cluster scores, mapped by the same
    Jacobian ``J``; they come back as ``scores`` and equal
    :func:`estfun`'s at this scale and point count bit for bit.

    Raises
    ------
    SingularityError
        If the fit sits on the theta boundary and the var or sd scale is
        requested, with :func:`estfun`'s message.
    """
    _refuse_boundary(fit, parameterization)
    return _hessian_on_scale(fit, _hessian_sweep(fit, n_points),
                             parameterization)


@dataclass(frozen=True)
class _HessianSweep:
    """The Hessian's sweep on the theta scale: the per-cluster
    log-likelihood ``ell`` (I,), which equals :func:`llcont`'s at the same
    point count bit for bit, the scores (I, p + k), the Jacobian
    (p + k, p + k) and the points per dimension."""

    ell: np.ndarray
    scores: np.ndarray
    matrix: np.ndarray
    m_used: int


def _hessian_sweep(fit: FittedGlmm, n_points: int | None) -> _HessianSweep:
    """The one quadrature sweep behind :func:`hessian`, at the fit's
    anchors."""
    rule = _derivative_rule(fit, n_points)
    positions = cov.free_positions(fit.data.n_random, fit.structure)
    ell, scores, matrix, _ = _quadrature_sweep(
        fit.beta, fit.lambda_matrix, fit.data, fit.family, fit.modes,
        fit.cond_chol, rule, positions, second=True)
    return _HessianSweep(ell, scores, matrix, rule.points_per_dim)


def _hessian_on_scale(fit: FittedGlmm, sweep: _HessianSweep,
                      parameterization: str) -> HessianResult:
    """:func:`hessian` from its sweep: the chain rule to the requested
    scale, the symmetrization and the one-sided entries.  The caller has
    refused the boundary (``_refuse_boundary``); the sweep's Jacobian is
    overwritten."""
    p = fit.data.n_fixed
    scores, matrix = sweep.scores, sweep.matrix
    jac = None
    if parameterization != "theta":
        jac, second = cov.theta_chain(fit.lambda_matrix, parameterization,
                                      fit.structure)
        matrix[:, p:] = matrix[:, p:] @ jac
        matrix[p:] = jac.T @ matrix[p:]
        matrix[p:, p:] += np.einsum("t,tsr->sr", scores[:, p:].sum(axis=0),
                                    second)
    matrix = 0.5 * (matrix + matrix.T)
    # only a boundary fit has such entries, and it is refused off theta
    one_sided = tuple(p + t for t in _on_boundary(
        fit.theta, fit.data.n_random, fit.structure))
    labels = tuple(fit.parameter_labels(parameterization))
    return HessianResult(values=matrix,
                         labels=labels,
                         parameterization=parameterization,
                         m_used=sweep.m_used,
                         scores=ScoreMatrix(values=_on_scale(scores, p, jac),
                                            labels=labels,
                                            parameterization=parameterization,
                                            m_used=sweep.m_used),
                         one_sided=one_sided)
