"""Vuong-style model comparison tests for clustered likelihoods.

Three related tests built from per-cluster log-likelihood contributions:
a variance (distinguishability) test, a non-nested likelihood-ratio test
with a standard normal null, and a nested likelihood-ratio test whose
null is a weighted sum of chi-square variables.  The weights come from
the eigenvalues of a block matrix assembled from both models' score
covariance, cross-covariance, and negative Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .derivatives import estfun, hessian, llcont
from .estimation import FittedGlmm
from .exceptions import ConfigError, DegenerateError

__all__ = ["VuongResult", "vuong_variance_test", "vuong_lr_test"]

_EIG_TOL = 1e-10


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
    p_value : float or None
        Headline p-value (variance and nested tests); None for the
        non-nested test, which reports the directional pair instead.
    p_a, p_b : float or None
        Non-nested directional p-values: small p_a favors model 1, small
        p_b favors model 2.  They sum to one.
    weights : ndarray
        Eigenvalues of the comparison matrix, truncated at 1e-10, that
        weight the chi-square mixture (squared for the variance null).
    """

    test: str
    omega2: float
    variance_p_value: float
    statistic: float
    p_value: float | None
    p_a: float | None
    p_b: float | None
    weights: np.ndarray
    n_sim: int
    seed: int


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


def _differences(fit1, fit2, n_points, seed, caller):
    """Per-cluster log-likelihood differences and their variance omega2."""
    if seed is None:
        raise ConfigError(f"{caller} requires a seed for the p-value simulation")
    _check_same_clustering(fit1, fit2)
    diff = llcont(fit1, n_points) - llcont(fit2, n_points)
    return diff, float(np.var(diff))


def _variance_null(fit1, fit2, n_points, parameterization, statistic, seed,
                   n_sim):
    """Eigenvalue weights of the chi-square mixture null, the seeded
    generator, and the variance test's p-value, which is always the
    generator's first draws.

    Assembles W = [[B1 A1^-1, B12 A2^-1], [-B21 A1^-1, -B2 A2^-1]] with
    A the negative Hessians and B the score outer-product sums (the scale
    factors cancel between B and A^-1).  Under correct specification of
    a nested pair the spectrum collapses to ones and zeros, recovering
    the classical chi-square null.
    """
    s1 = estfun(fit1, parameterization, n_points).values
    s2 = estfun(fit2, parameterization, n_points).values
    a1 = -hessian(fit1, parameterization, n_points).values
    a2 = -hessian(fit2, parameterization, n_points).values
    b1 = s1.T @ s1
    b2 = s2.T @ s2
    b12 = s1.T @ s2
    a1_inv = np.linalg.inv(a1)
    a2_inv = np.linalg.inv(a2)
    top = np.hstack([b1 @ a1_inv, b12 @ a2_inv])
    bottom = np.hstack([-b12.T @ a1_inv, -b2 @ a2_inv])
    lam = np.linalg.eigvals(np.vstack([top, bottom])).real
    weights = lam[np.abs(lam) >= _EIG_TOL]
    rng = np.random.default_rng(seed)
    p_value = float(_mixture_tail(np.square(weights), statistic, rng, n_sim))
    return weights, rng, p_value


def _mixture_tail(weights, value, rng, n_sim):
    """P(sum of weighted chi-square(1) >= value), by simulation."""
    k = weights.shape[0]
    if k == 0:
        return 1.0 if value <= _EIG_TOL else 0.0
    chunk = max(1, int(2 ** 23 // k))
    count = 0
    done = 0
    while done < n_sim:
        size = min(chunk, n_sim - done)
        draws = rng.standard_normal((size, k))
        sims = np.square(draws) @ weights
        count += int(np.count_nonzero(sims >= value))
        done += size
    return count / n_sim


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
    seed : int
        Required; drives the chi-square mixture simulation.
    n_sim : int
        Simulation draws for the p-value.

    Returns
    -------
    VuongResult
        With ``test="variance"``, ``statistic = I * omega2``.
    """
    diff, omega2 = _differences(fit1, fit2, n_points, seed,
                                "vuong_variance_test")
    statistic = diff.size * omega2
    weights, _, p_value = _variance_null(fit1, fit2, n_points,
                                         parameterization, statistic, seed,
                                         n_sim)
    return VuongResult(
        test="variance",
        omega2=omega2,
        variance_p_value=p_value,
        statistic=statistic,
        p_value=p_value,
        p_a=None,
        p_b=None,
        weights=weights,
        n_sim=n_sim,
        seed=int(seed),
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

    The variance test runs first and its p-value is reported alongside.

    Raises
    ------
    DegenerateError
        In non-nested mode when omega_hat is zero; the variance test is
        the informative comparison in that case.
    """
    diff, omega2 = _differences(fit1, fit2, n_points, seed, "vuong_lr_test")
    if not nested and omega2 == 0.0:
        raise DegenerateError(
            "per-cluster log-likelihood differences have zero variance; "
            "the non-nested z statistic is undefined. Run "
            "vuong_variance_test: the models are indistinguishable here."
        )
    weights, rng, variance_p = _variance_null(fit1, fit2, n_points,
                                              parameterization,
                                              diff.size * omega2, seed, n_sim)
    total = float(diff.sum())
    p_value = p_a = p_b = None
    if nested:
        test, statistic = "nested", 2.0 * total
        p_value = float(_mixture_tail(weights, statistic, rng, n_sim))
    else:
        test = "non-nested"
        statistic = float(total / np.sqrt(diff.size * omega2))
        p_a = float(sps.norm.sf(statistic))
        p_b = float(sps.norm.cdf(statistic))
    return VuongResult(
        test=test,
        omega2=omega2,
        variance_p_value=variance_p,
        statistic=statistic,
        p_value=p_value,
        p_a=p_a,
        p_b=p_b,
        weights=weights,
        n_sim=n_sim,
        seed=int(seed),
    )
