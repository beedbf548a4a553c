"""Vuong-style model comparison tests for clustered likelihoods.

Three related tests built from per-cluster log-likelihood contributions:
a variance (distinguishability) test, a non-nested likelihood-ratio test
with a standard normal null, and a nested likelihood-ratio test whose
null is a weighted sum of chi-square variables.  The weights come from
the eigenvalues of a block matrix assembled from both models' score
covariance, cross-covariance, and negative Hessians.  The tails of both
chi-square mixtures are computed exactly, to an absolute error of 1e-9,
by :func:`~glmmkit._nulls._chisq_mixture_tail`, so nothing is simulated:
``seed`` is accepted and ignored, and ``n_sim`` is validated and
reported.  The non-nested test's normal tails are ``scipy.special.ndtr``
at -z and z, the calls ``scipy.stats.norm.sf`` and ``norm.cdf`` make,
without the import of ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._nulls import _TAIL_EPS, _chisq_mixture_tail
from .derivatives import _hessian_on_scale, _hessian_sweep, _refuse_boundary
from .estimation import FittedGlmm
from .exceptions import ConfigError, DegenerateError, _check_integer

__all__ = ["VuongResult", "vuong_variance_test", "vuong_lr_test"]

# Weights below this share of the comparison matrix's norm are dropped.  A
# zero eigenvalue of a defective matrix (identical fits give a nilpotent
# one) comes back from the eigensolver as noise of order sqrt(eps) times
# the norm, about 1.5e-8 of it; genuine weights this small move no tail.
_EIG_REL_TOL = 1e-6


@dataclass(frozen=True)
class VuongResult:
    """Outcome of a Vuong variance or likelihood-ratio test.

    Attributes
    ----------
    test : {"variance", "non-nested", "nested"}
    omega2 : float
        Variance (population divisor) of the per-cluster log-likelihood
        differences.
    variance_p_value : float
        P-value of the distinguishability test; small values mean the two
        models can be told apart on this dataset.
    statistic : float
        I*omega2 for the variance test, the z statistic for the
        non-nested test, 2*sum of log-likelihood differences for the
        nested test.
    variance_p_value_se : float
        Absolute error bound of ``variance_p_value``: 1e-9 for the exact
        chi-square mixture tail, 0 when the mixture has no weights and
        the null is a point mass at zero.
    p_value : float or None
        Headline p-value (variance and nested tests); None for the
        non-nested test, which reports the directional pair instead.
    p_value_se : float
        Absolute error bound of the headline p-value, as for
        ``variance_p_value_se``; 0 for the non-nested test, whose normal
        p-values are exact to rounding.
    p_a, p_b : float or None
        Non-nested directional p-values: small p_a favors model 1, small
        p_b favors model 2.  They sum to one.
    weights : ndarray
        Eigenvalues of the comparison matrix that weight the chi-square
        mixture (squared for the variance null); eigenvalues below 1e-6
        of the matrix's Frobenius norm are eigensolver noise and dropped.
    n_sim : int
        The validated argument, kept for compatibility; the tails are not
        simulated.
    """

    test: str
    omega2: float
    variance_p_value: float
    variance_p_value_se: float
    statistic: float
    p_value: float | None
    p_value_se: float
    p_a: float | None
    p_b: float | None
    weights: np.ndarray
    n_sim: int


def _check_same_clustering(fit1: FittedGlmm, fit2: FittedGlmm) -> None:
    d1, d2 = fit1.data, fit2.data
    if (d1.n_obs != d2.n_obs
            or d1.n_clusters != d2.n_clusters
            or not np.array_equal(d1.cluster_index, d2.cluster_index)):
        raise ConfigError(
            "model comparison requires both fits on the identical "
            "clustered dataset (same observations, same cluster partition)"
        )
    if not np.array_equal(d1.y, d2.y):
        raise ConfigError(
            "model comparison requires both fits to share the response"
        )


def _differences(fit1, fit2, n_points, n_sim, caller):
    """Both models' Hessian sweeps, the per-cluster log-likelihood
    differences they give and the differences' variance omega2.

    A Hessian's sweep returns the per-cluster log-likelihood of
    :func:`~glmmkit.derivatives.llcont` at the same point count, so the
    differences cost no sweep of their own.
    """
    _check_integer(n_sim, f"{caller} n_sim", 1)
    _check_same_clustering(fit1, fit2)
    sweeps = _hessian_sweep(fit1, n_points), _hessian_sweep(fit2, n_points)
    diff = sweeps[0].ell - sweeps[1].ell
    return sweeps, diff, float(np.var(diff))


def _variance_null(fit1, fit2, sweeps, parameterization, statistic):
    """Eigenvalue weights of the chi-square mixture null, and the variance
    test's p-value with its error bound, from both models' Hessian
    sweeps.

    Assembles W = [[B1 A1^-1, B12 A2^-1], [-B21 A1^-1, -B2 A2^-1]] with
    A the negative Hessians and B the score outer-product sums (the scale
    factors cancel between B and A^-1).  Under correct specification of
    a nested pair the spectrum collapses to ones and zeros, recovering
    the classical chi-square null.
    """
    for fit in (fit1, fit2):
        _refuse_boundary(fit, parameterization)
    # each Hessian's sweep also gives that model's scores
    h1, h2 = (_hessian_on_scale(fit, sweep, parameterization)
              for fit, sweep in zip((fit1, fit2), sweeps))
    s1, s2 = h1.scores.values, h2.scores.values
    a1, a2 = -h1.values, -h2.values
    b1 = s1.T @ s1
    b2 = s2.T @ s2
    b12 = s1.T @ s2
    a1_inv = np.linalg.inv(a1)
    a2_inv = np.linalg.inv(a2)
    top = np.hstack([b1 @ a1_inv, b12 @ a2_inv])
    bottom = np.hstack([-b12.T @ a1_inv, -b2 @ a2_inv])
    comparison = np.vstack([top, bottom])
    lam = np.linalg.eigvals(comparison).real
    weights = lam[np.abs(lam) >= _EIG_REL_TOL * np.linalg.norm(comparison)]
    p_value = _chisq_mixture_tail(np.square(weights), statistic)
    return weights, p_value, _tail_error(weights)


def _tail_error(weights):
    """Error bound of a mixture tail: 0 without weights, where the null is
    a point mass at zero."""
    return _TAIL_EPS if weights.shape[0] else 0.0


def vuong_variance_test(fit1: FittedGlmm, fit2: FittedGlmm,
                        n_points: int | None = None,
                        seed: int | None = None,
                        n_sim: int = 10 ** 6,
                        parameterization: str = "var") -> VuongResult:
    """Test whether two models are distinguishable on this dataset.

    omega2 is the variance of the per-cluster log-likelihood differences;
    its null (omega2 = 0, indistinguishable models) is a weighted sum of
    chi-squares with squared eigenvalue weights.

    Parameters
    ----------
    fit1, fit2 : FittedGlmm
        Fits on the identical clustered dataset.
    n_points : int, optional
        Quadrature points for log-likelihood and score evaluation.
    seed : optional
        Accepted for compatibility and ignored: the chi-square mixture
        tail is exact and draws nothing.
    n_sim : int
        At least 1; reported as ``n_sim`` on the result and otherwise
        unused.

    Returns
    -------
    VuongResult
        With ``test="variance"``, ``statistic = I * omega2``.
    """
    sweeps, diff, omega2 = _differences(fit1, fit2, n_points, n_sim,
                                        "vuong_variance_test")
    return _variance_result(fit1, fit2, sweeps, diff, omega2, n_sim,
                            parameterization)


def _variance_result(fit1, fit2, sweeps, diff, omega2, n_sim,
                     parameterization):
    """The variance test on precomputed Hessian sweeps and per-cluster
    differences (``_differences``)."""
    statistic = diff.size * omega2
    weights, p_value, p_value_se = _variance_null(
        fit1, fit2, sweeps, parameterization, statistic)
    return VuongResult(
        test="variance",
        omega2=omega2,
        variance_p_value=p_value,
        variance_p_value_se=p_value_se,
        statistic=statistic,
        p_value=p_value,
        p_value_se=p_value_se,
        p_a=None,
        p_b=None,
        weights=weights,
        n_sim=n_sim,
    )


def vuong_lr_test(fit1: FittedGlmm, fit2: FittedGlmm, nested: bool = False,
                  n_points: int | None = None, seed: int | None = None,
                  n_sim: int = 10 ** 6,
                  parameterization: str = "var") -> VuongResult:
    """Likelihood-ratio comparison of two models on the same clusters.

    Non-nested: z = sum of per-cluster log-likelihood differences divided
    by sqrt(I)*omega_hat, with directional normal p-values (small p_a
    favors model 1).  Nested: LR = 2 * sum of differences against the
    weighted chi-square null; model 2 must be the reduction of model 1.
    ``seed`` and ``n_sim`` are treated as in :func:`vuong_variance_test`:
    both mixture tails are exact and draw nothing.

    The variance test runs first and its p-value is reported alongside.

    Raises
    ------
    DegenerateError
        In non-nested mode when omega_hat is zero; the variance test is
        the informative comparison in that case.  The differences and
        omega2 are attached as ``.differences``, and both models' Hessian
        sweeps as ``.sweeps``.
    """
    sweeps, diff, omega2 = _differences(fit1, fit2, n_points, n_sim,
                                        "vuong_lr_test")
    if not nested and omega2 == 0.0:
        err = DegenerateError(
            "per-cluster log-likelihood differences have zero variance; "
            "the non-nested z statistic is undefined. Run "
            "vuong_variance_test: the models are indistinguishable here."
        )
        err.differences = (diff, omega2)
        err.sweeps = sweeps
        raise err
    weights, variance_p, variance_se = _variance_null(
        fit1, fit2, sweeps, parameterization, diff.size * omega2)
    total = float(diff.sum())
    p_value = p_a = p_b = None
    p_value_se = 0.0
    if nested:
        test, statistic = "nested", 2.0 * total
        p_value = _chisq_mixture_tail(weights, statistic)
        p_value_se = _tail_error(weights)
    else:
        test = "non-nested"
        statistic = float(total / np.sqrt(diff.size * omega2))
        p_a = float(ndtr(-statistic))
        p_b = float(ndtr(statistic))
    return VuongResult(
        test=test,
        omega2=omega2,
        variance_p_value=variance_p,
        variance_p_value_se=variance_se,
        statistic=statistic,
        p_value=p_value,
        p_value_se=p_value_se,
        p_a=p_a,
        p_b=p_b,
        weights=weights,
        n_sim=n_sim,
    )
