"""Huber-White sandwich covariance built from cluster scores.

``V = A^{-1} B A^{-1}`` with ``A`` the negative Hessian of the total log
likelihood and ``B`` the sum of per-cluster score outer products (the
clusters are the independent units, so the meat is assembled at the
cluster level and left unscaled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import ScoreMatrix, estfun, hessian
from .estimation import FittedGlmm, default_points
from .exceptions import ConfigError, SingularityError

__all__ = ["SandwichResult", "sandwich_vcov"]


@dataclass(frozen=True)
class SandwichResult:
    """Bread, meat and the assembled robust covariance."""

    A: np.ndarray             # negative Hessian
    B: np.ndarray             # sum of score outer products
    V: np.ndarray             # A^-1 B A^-1
    robust_se: np.ndarray
    model_se: np.ndarray      # from A^-1, for comparison
    labels: tuple[str, ...]
    parameterization: str
    m_used: int


def sandwich_vcov(fit: FittedGlmm, parameterization: str = "var",
                  n_points: int | None = None,
                  scores=None, neg_hessian=None) -> SandwichResult:
    """Robust covariance of the parameter estimates.

    Parameters
    ----------
    fit : FittedGlmm
    parameterization : {"var", "theta", "sd"}
        Scale on which scores and Hessian are taken.
    n_points : int, optional
        Quadrature points for the scores and the Hessian (default 5).
    scores, neg_hessian : optional
        Precomputed :func:`estfun` result and negative Hessian matrix, for
        callers that already have them.  Both must be on the requested
        scale and point count.  Given neither, one :func:`hessian` sweep
        supplies both (its ``scores`` equal :func:`estfun`'s); given one,
        the other is computed alone.

    Raises
    ------
    ConfigError
        If a :class:`ScoreMatrix` was computed on another parameterization
        or point count, or ``neg_hessian`` is not (n_params, n_params).
    SingularityError
        If A cannot be inverted; the message reports its eigenvalues.
    """
    if n_points is None:
        n_points = default_points(fit.data.n_random, "derivatives")
    if fit.data.n_clusters <= fit.n_params:
        raise ConfigError(
            "need more clusters than parameters for a sandwich covariance"
        )
    if isinstance(scores, ScoreMatrix) and (
            scores.parameterization != parameterization
            or scores.m_used != n_points):
        raise ConfigError(
            f"scores are on the {scores.parameterization!r} scale at "
            f"{scores.m_used} points; the request is {parameterization!r} "
            f"at {n_points} points"
        )
    if neg_hessian is not None and np.shape(neg_hessian) != (fit.n_params,
                                                             fit.n_params):
        raise ConfigError(
            f"neg_hessian has shape {np.shape(neg_hessian)}, expected "
            f"({fit.n_params}, {fit.n_params})"
        )
    if scores is None and neg_hessian is None:
        result = hessian(fit, parameterization, n_points)
        scores, neg_hessian = result.scores, -result.values
    elif scores is None:
        scores = estfun(fit, parameterization, n_points)
    a_matrix = (-hessian(fit, parameterization, n_points).values
                if neg_hessian is None else np.asarray(neg_hessian, dtype=float))
    s = np.asarray(scores.values if isinstance(scores, ScoreMatrix)
                   else scores, dtype=float)
    b_matrix = s.T @ s
    try:
        a_inv = np.linalg.inv(a_matrix)
    except np.linalg.LinAlgError as exc:
        eigs = np.linalg.eigvalsh(0.5 * (a_matrix + a_matrix.T))
        raise SingularityError(
            f"negative Hessian is singular; eigenvalues {eigs}"
        ) from exc
    v = a_inv @ b_matrix @ a_inv
    v = 0.5 * (v + v.T)
    model_var = np.diag(a_inv).copy()
    if np.any(np.diag(v) < 0.0) or np.any(model_var < 0.0):
        eigs = np.linalg.eigvalsh(a_matrix)
        raise SingularityError(
            "robust covariance has negative diagonal entries; the fit is "
            f"likely not an interior optimum (A eigenvalues {eigs})"
        )
    if isinstance(scores, ScoreMatrix):
        labels = scores.labels
    else:
        labels = tuple(fit.parameter_labels(parameterization))
    return SandwichResult(
        A=a_matrix, B=b_matrix, V=v,
        robust_se=np.sqrt(np.diag(v)),
        model_se=np.sqrt(model_var),
        labels=labels,
        parameterization=parameterization,
        m_used=n_points,
    )
