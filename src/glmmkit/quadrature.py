"""Gauss-Hermite quadrature on the standard-normal kernel, with the
posterior-mode-anchored adaptive transform used for cluster integrals.

The base rule (``gh_rule``) is normalized so that weights sum to one and
``sum(w_m * f(a_m))`` approximates ``E[f(U)]`` for ``U ~ N(0, I_d)``.  The
adapted rule recentres and rescales the grid at a cluster's posterior mode
``b`` with conditional Cholesky factor ``C``:

    a*_m = b + C a_m
    w*_m = w_m * (2*pi)^(d/2) * det(C) * exp(0.5 * ||a_m||^2) * phi(a*_m | 0, G)

so the prior density ``phi(.|0, G)`` is folded into the weights and cluster
integrands only need to supply the conditional density itself.  For the
identity prior this is ``log w*_m = log w_m + log det C + 0.5 ||a_m||^2 -
0.5 ||a*_m||^2``; ``_adapted_grid`` evaluates it for every cluster at once,
and a general prior ``G = P P'`` reduces to it on the whitened scale
``v = P^-1 u``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_triangular

from .exceptions import ConfigError, DomainError, ShapeError, SingularityError

__all__ = ["GhRule", "AdaptedRule", "gh_rule", "adapt_rule", "integrate_cluster"]

_MAX_POINTS = 25
_MAX_DIM = 3


@dataclass(frozen=True)
class GhRule:
    """Tensor-product Gauss-Hermite rule on the N(0, I_d) kernel."""

    points_per_dim: int
    dim: int
    nodes: np.ndarray    # (M**d, d)
    weights: np.ndarray  # (M**d,)

    @property
    def size(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class AdaptedRule:
    """Cluster-specific rule with the prior folded into the weights."""

    locations: np.ndarray    # (M**d, d)
    weights: np.ndarray      # (M**d,)
    log_weights: np.ndarray  # (M**d,)


def _gh_nodes_1d(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Golub-Welsch nodes/weights for the physicists' Hermite weight, then
    rescaled to the standard-normal kernel (nodes *sqrt(2), weights /sqrt(pi))."""
    if m == 1:
        return np.array([0.0]), np.array([1.0])
    k = np.arange(1, m)
    nodes, vectors = eigh_tridiagonal(np.zeros(m), np.sqrt(k / 2.0))
    weights = vectors[0] ** 2  # raw weights / sqrt(pi) since they sum to 1
    nodes = nodes * math.sqrt(2.0)
    # symmetrize against eigensolver round-off; the rule is exactly symmetric
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if m % 2 == 1:
        nodes[m // 2] = 0.0
    return nodes, weights / weights.sum()


def gh_rule(points_per_dim: int, dim: int = 1) -> GhRule:
    """Build the tensor-product rule with ``points_per_dim`` nodes per axis.

    Parameters
    ----------
    points_per_dim : int
        Number of quadrature points per dimension, between 1 and 25.
    dim : int
        Random-effect dimension, between 1 and 3 (grids grow as M**d).
    """
    m, d = int(points_per_dim), int(dim)
    if not 1 <= m <= _MAX_POINTS:
        raise ConfigError(f"points per dimension must be in [1, {_MAX_POINTS}], got {m}")
    if not 1 <= d <= _MAX_DIM:
        raise ConfigError(f"dimension must be in [1, {_MAX_DIM}], got {d}")
    x, w = _gh_nodes_1d(m)
    if d == 1:
        nodes = x[:, None]
        weights = w.copy()
    else:
        grids = np.meshgrid(*([x] * d), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=1)
        wgrids = np.meshgrid(*([w] * d), indexing="ij")
        weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return GhRule(points_per_dim=m, dim=d, nodes=nodes, weights=weights)


def adapt_rule(rule: GhRule, center, chol, prior_cov) -> AdaptedRule:
    """Anchor the rule at a posterior mode and fold in the prior density.

    Parameters
    ----------
    rule : GhRule
    center : array, shape (d,)
        Posterior mode of the cluster's random effect.
    chol : array, shape (d, d)
        Lower-triangular conditional Cholesky factor with positive diagonal.
    prior_cov : array, shape (d, d)
        Covariance of the random-effect prior the weights should absorb.

    Returns
    -------
    AdaptedRule with ``sum(w* f(a*))`` approximating the integral of
    ``f(u) phi(u | 0, prior_cov)``.
    """
    d = rule.dim
    center = np.asarray(center, dtype=float).ravel()
    chol = np.atleast_2d(np.asarray(chol, dtype=float))
    prior_cov = np.atleast_2d(np.asarray(prior_cov, dtype=float))
    if center.size != d or chol.shape != (d, d) or prior_cov.shape != (d, d):
        raise ShapeError("center, chol and prior_cov must match the rule dimension")
    if np.any(np.diag(chol) <= 0.0) or np.any(np.triu(chol, 1) != 0.0):
        raise DomainError("chol must be lower-triangular with positive diagonal")
    try:
        prior_chol = np.linalg.cholesky(prior_cov)
    except np.linalg.LinAlgError as exc:
        raise SingularityError("prior covariance is not positive definite") from exc

    # on the whitened scale v = P^-1 u the prior is N(0, I); the weights
    # carry the Jacobian through det(P^-1 C)
    white_center = solve_triangular(prior_chol, center, lower=True)
    white_chol = solve_triangular(prior_chol, chol, lower=True)
    log_w = _adapted_grid(rule, white_center[None], white_chol[None])[0][0]
    return AdaptedRule(locations=center + rule.nodes @ chol.T,
                       weights=np.exp(log_w), log_weights=log_w)


def _adapted_grid(rule: GhRule, centers: np.ndarray, chols: np.ndarray):
    """Adapted log weights and locations of many clusters at once, for the
    identity prior.

    ``centers`` is (I, d) and ``chols`` (I, d, d) lower triangular.
    Returns log weights (I, M**d) and locations component-major, shape
    (d, I, M**d), so each coordinate of every node is one contiguous block.
    """
    locations = np.stack([centers[:, a, None] + chols[:, a, :] @ rule.nodes.T
                          for a in range(rule.dim)])
    logdet = np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    half_sq = 0.5 * np.sum(rule.nodes ** 2, axis=1)
    log_w = (np.log(rule.weights) + half_sq + logdet[:, None]
             - 0.5 * np.sum(locations ** 2, axis=0))
    return log_w, locations


def integrate_cluster(integrand, adapted: AdaptedRule) -> float:
    """Weighted sum of integrand evaluations over the adapted grid."""
    total = 0.0
    for loc, w in zip(adapted.locations, adapted.weights):
        value = float(integrand(loc))
        if not math.isfinite(value):
            raise DomainError(f"integrand returned {value} at node {loc}")
        total += w * value
    return total
