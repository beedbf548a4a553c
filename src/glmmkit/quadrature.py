"""Gauss-Hermite quadrature on the standard-normal kernel, with the
posterior-mode-anchored adaptive transform used for cluster integrals.

The base rule (``gh_rule``) is normalized so that weights sum to one and
``sum(w_m * f(a_m))`` approximates ``E[f(U)]`` for ``U ~ N(0, I_d)``.  The
package integrates the spherical random effect ``u ~ N(0, I_d)``, and
``_adapted_grid`` recentres and rescales the grid at each cluster's
posterior mode ``b`` with conditional Cholesky factor ``C``:

    a*_m = b + C a_m
    log w*_m = log w_m + log det C + 0.5 ||a_m||^2 - 0.5 ||a*_m||^2

so the N(0, I) prior density is folded into the weights and
``sum(w*_m f(a*_m))`` approximates the integral of ``f(u) phi(u | 0, I)``:
cluster integrands only supply the conditional density itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .exceptions import ConfigError, _check_integer

__all__ = ["GhRule", "gh_rule"]

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
        Number of quadrature points per dimension, an integer between 1
        and 25.
    dim : int
        Random-effect dimension, between 1 and 3 (grids grow as M**d).

    Each rule is built once and shared by every later call with the same
    point count and dimension; its arrays are read-only.
    """
    m, d = _check_integer(points_per_dim, "points per dimension"), int(dim)
    if not 1 <= m <= _MAX_POINTS:
        raise ConfigError(f"points per dimension must be in [1, {_MAX_POINTS}], got {m}")
    if not 1 <= d <= _MAX_DIM:
        raise ConfigError(f"dimension must be in [1, {_MAX_DIM}], got {d}")
    return _tensor_rule(m, d)


@functools.lru_cache(maxsize=None)
def _tensor_rule(m: int, d: int) -> GhRule:
    """The rule of ``m`` points per axis in ``d`` dimensions, built from
    validated counts."""
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


def _adapted_grid(rule: GhRule, centers: np.ndarray, chols: np.ndarray):
    """Adapted log weights and locations of many clusters at once, for the
    identity prior.

    ``centers`` is (I, d) and ``chols`` (I, d, d) lower triangular.
    Returns log weights (I, M**d) and locations component-major, shape
    (d, I, M**d), so each coordinate of every node is one contiguous block.

    At d = 1 every factor is a scalar per cluster, and the grid is formed
    from scalars, ``b + c z`` and ``log w + z^2 / 2 + log c - (b + c
    z)^2 / 2``: the same products in the same order as the matrix form,
    so the same bits, without its per-call overhead.
    """
    if rule.dim == 1:
        z = rule.nodes[:, 0]
        scale = chols[:, 0]                                   # (I, 1)
        locations = centers + scale * z
        log_w = (np.log(rule.weights) + 0.5 * (z * z) + np.log(scale)
                 - 0.5 * (locations * locations))
        return log_w, locations[None]
    locations = np.stack([centers[:, a, None] + chols[:, a, :] @ rule.nodes.T
                          for a in range(rule.dim)])
    logdet = np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    half_sq = 0.5 * np.sum(rule.nodes ** 2, axis=1)
    log_w = (np.log(rule.weights) + half_sq + logdet[:, None]
             - 0.5 * np.sum(locations ** 2, axis=0))
    return log_w, locations

