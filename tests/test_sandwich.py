"""Robust covariance assembly: V = A^-1 B A^-1."""

import numpy as np
import pytest

from glmmkit import (ConfigError, SingularityError, estfun, hessian,
                     load_fitted, make_glmm_data, sandwich_vcov)


def test_sandwich_assembles_from_parts(binom_fit):
    result = sandwich_vcov(binom_fit, parameterization="var", n_points=7)
    scores = estfun(binom_fit, "var", n_points=7).values
    neg_hess = -hessian(binom_fit, "var", n_points=7).values
    np.testing.assert_allclose(result.A, neg_hess, rtol=1e-12)
    np.testing.assert_allclose(result.B, scores.T @ scores, rtol=1e-12)
    a_inv = np.linalg.inv(neg_hess)
    expect = a_inv @ result.B @ a_inv
    np.testing.assert_allclose(result.V, 0.5 * (expect + expect.T),
                               rtol=1e-10)


def test_robust_and_model_se_definitions(binom_fit):
    result = sandwich_vcov(binom_fit, parameterization="var", n_points=7)
    np.testing.assert_allclose(result.robust_se, np.sqrt(np.diag(result.V)),
                               rtol=1e-14)
    np.testing.assert_allclose(result.model_se,
                               np.sqrt(np.diag(np.linalg.inv(result.A))),
                               rtol=1e-12)
    assert result.labels == estfun(binom_fit, "var").labels
    assert result.parameterization == "var"


def test_meat_equals_bread_collapses_to_model_vcov(binom_fit):
    # supplying B := A turns the sandwich into A^-1, the model-based vcov
    neg_hess = -hessian(binom_fit, "var", n_points=7).values
    result = sandwich_vcov(binom_fit, parameterization="var", n_points=7,
                           neg_hessian=neg_hess)
    forced = sandwich_vcov(binom_fit, parameterization="var", n_points=7,
                           scores=None, neg_hessian=neg_hess)
    np.testing.assert_allclose(result.V, forced.V, rtol=1e-12)
    model_v = np.linalg.inv(neg_hess)
    np.testing.assert_allclose(
        np.sqrt(np.diag(model_v)), result.model_se, rtol=1e-12)


def test_precomputed_scores_short_circuit(binom_fit):
    scores = estfun(binom_fit, "var", n_points=7)
    direct = sandwich_vcov(binom_fit, parameterization="var", n_points=7)
    reused = sandwich_vcov(binom_fit, parameterization="var", n_points=7,
                           scores=scores.values)
    np.testing.assert_allclose(direct.V, reused.V, rtol=1e-13)


def test_sandwich_se_sane_scale(binom_fit):
    # robust and model SEs should be the same order of magnitude on a
    # correctly specified simulated model
    result = sandwich_vcov(binom_fit, parameterization="var", n_points=7)
    ratio = result.robust_se / result.model_se
    assert np.all(ratio > 0.5) and np.all(ratio < 2.0)


def test_too_few_clusters_rejected():
    sim = make_glmm_data("binomial", n_clusters=3, cluster_size=9, seed=21)
    fitted = load_fitted(sim.beta, sim.theta, sim.data, "binomial")
    with pytest.raises(ConfigError):
        sandwich_vcov(fitted)


def test_singular_bread_reported():
    sim = make_glmm_data("binomial", n_clusters=25, cluster_size=6, seed=33)
    fitted = load_fitted(sim.beta, sim.theta, sim.data, "binomial")
    singular = np.zeros((3, 3))
    with pytest.raises(SingularityError):
        sandwich_vcov(fitted, neg_hessian=singular)


def test_precomputed_inputs_must_match_the_request(binom_fit):
    theta_scores = estfun(binom_fit, "theta", n_points=7)
    with pytest.raises(ConfigError, match="scale"):
        sandwich_vcov(binom_fit, "var", n_points=7, scores=theta_scores)
    with pytest.raises(ConfigError, match="points"):
        sandwich_vcov(binom_fit, "theta", n_points=5, scores=theta_scores)
    with pytest.raises(ConfigError, match="neg_hessian"):
        sandwich_vcov(binom_fit, "theta", n_points=7, scores=theta_scores,
                      neg_hessian=np.eye(binom_fit.n_params - 1))
