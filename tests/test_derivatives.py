"""Casewise scores and the finite-difference Hessian.

The central oracle: scores returned by estfun are the exact gradient of
the fixed-anchor quadrature log-likelihood, so central differences of
llcont with the anchors held at the stored modes must reproduce them to
finite-difference truncation accuracy (~1e-8 relative at h = 1e-5).
"""

import numpy as np
import pytest

from glmmkit import (ConfigError, FitControl, SingularityError, estfun,
                     family_spec, fit, gradient, hessian, llcont, load_fitted,
                     make_glmm_data, marginal_loglik, sandwich_vcov, sctest,
                     vuong_lr_test, vuong_variance_test)
from glmmkit.estimation import _quadrature_sweep
from glmmkit.quadrature import gh_rule
from oracles import (fd_scores_fixed_anchor, raw_fd_hessian,
                     score_beta_cluster, score_theta_cluster, simpson_cluster)


def _rel_dev(analytic, fd):
    scale = np.maximum(np.abs(fd), 1e-3)
    return np.max(np.abs(analytic - fd) / scale)


def test_estfun_matches_fixed_anchor_fd_binomial(binom_fit):
    scores = estfun(binom_fit, parameterization="theta", n_points=7)
    fd = fd_scores_fixed_anchor(binom_fit, n_points=7)
    assert _rel_dev(scores.values, fd) < 1e-6


def test_estfun_matches_fixed_anchor_fd_poisson(poisson_fit):
    scores = estfun(poisson_fit, parameterization="theta", n_points=7)
    fd = fd_scores_fixed_anchor(poisson_fit, n_points=7)
    assert _rel_dev(scores.values, fd) < 1e-6


def test_estfun_matches_fixed_anchor_fd_probit():
    sim = make_glmm_data("binomial", link="probit", n_clusters=25,
                         cluster_size=6, seed=55)
    fitted = load_fitted(sim.beta, sim.theta, sim.data,
                         family_spec("binomial", "probit"))
    scores = estfun(fitted, parameterization="theta", n_points=7)
    fd = fd_scores_fixed_anchor(fitted, n_points=7)
    assert _rel_dev(scores.values, fd) < 1e-6


def test_estfun_matches_fixed_anchor_fd_random_slope(slope_fit):
    scores = estfun(slope_fit, parameterization="theta", n_points=5)
    fd = fd_scores_fixed_anchor(slope_fit, n_points=5)
    assert _rel_dev(scores.values, fd) < 1e-6


def test_estfun_matches_simpson_scores(binom_fit):
    # independent integration oracle, not just a derivative identity
    scores = estfun(binom_fit, parameterization="theta", n_points=21)
    data = binom_fit.data
    for i in (0, 7, 23):
        rows = data.rows(i)
        _, beta_s, theta_s = simpson_cluster(
            data.y[rows], data.X[rows], data.Z[rows][:, 0], binom_fit.beta,
            binom_fit.theta[0], "binomial", "logit")
        np.testing.assert_allclose(scores.values[i],
                                   np.r_[beta_s, theta_s], atol=1e-9)


def _sweep_scores(fitted, n_points, general):
    _, values = _quadrature_sweep(
        fitted.beta, fitted.lambda_matrix, fitted.data, fitted.family,
        fitted.modes, fitted.cond_chol, gh_rule(n_points, 1), [(0, 0)],
        general=general)
    p = fitted.data.n_fixed
    return values[:, :p], values[:, p:]


def test_canonical_shortcut_agrees_with_general_form(binom_fit, poisson_fit):
    for fitted in (binom_fit, poisson_fit):
        b_canon, t_canon = _sweep_scores(fitted, 7, general=False)
        b_general, t_general = _sweep_scores(fitted, 7, general=True)
        np.testing.assert_allclose(b_canon, b_general, rtol=1e-12,
                                   atol=1e-14)
        np.testing.assert_allclose(t_canon, t_general, rtol=1e-12,
                                   atol=1e-14)


def test_var_scale_is_theta_scale_over_two_lambda(binom_fit):
    s_theta = estfun(binom_fit, parameterization="theta", n_points=7)
    s_var = estfun(binom_fit, parameterization="var", n_points=7)
    lam = binom_fit.theta[0]
    np.testing.assert_allclose(s_var.values[:, -1],
                               s_theta.values[:, -1] / (2 * lam),
                               rtol=1e-12)
    # beta columns are untouched by the hyperparameter rescaling
    np.testing.assert_allclose(s_var.values[:, :-1], s_theta.values[:, :-1],
                               rtol=1e-15)


def test_score_columns_sum_to_near_zero_at_mle(binom_fit):
    scores = estfun(binom_fit, parameterization="theta", n_points=7)
    total = np.abs(scores.values.sum(axis=0))
    assert np.all(total < 1e-4 * binom_fit.data.n_clusters)


def test_gradient_is_column_sum(binom_fit):
    scores = estfun(binom_fit, parameterization="var", n_points=7)
    np.testing.assert_allclose(gradient(binom_fit, "var", n_points=7),
                               scores.values.sum(axis=0), rtol=1e-14)


def test_per_cluster_helpers_match_estfun(binom_fit):
    scores = estfun(binom_fit, parameterization="theta", n_points=7)
    p = binom_fit.data.n_fixed
    for i in (0, 13):
        np.testing.assert_allclose(
            score_beta_cluster(binom_fit, i, n_points=7),
            scores.values[i, :p], rtol=1e-10)
        np.testing.assert_allclose(
            score_theta_cluster(binom_fit, i, n_points=7),
            scores.values[i, p:], rtol=1e-10)


def test_cluster_lookup_by_label(binom_fit):
    label = binom_fit.data.cluster_ids[4]
    np.testing.assert_allclose(score_beta_cluster(binom_fit, label),
                               score_beta_cluster(binom_fit, 4))


def test_labels_follow_parameterization(binom_fit):
    assert estfun(binom_fit, "theta").labels == (
        "(Intercept)", "x1", "chol[(Intercept),(Intercept)]")
    assert estfun(binom_fit, "var").labels == (
        "(Intercept)", "x1", "var[(Intercept)]")


def test_boundary_fit_refuses_var_and_sd_scales(binom_fit):
    at_zero = load_fitted(binom_fit.beta, [0.0], binom_fit.data, "binomial")
    assert at_zero.boundary
    with pytest.raises(SingularityError):
        estfun(at_zero, parameterization="var")
    with pytest.raises(SingularityError):
        estfun(at_zero, parameterization="sd")
    theta_scale = estfun(at_zero, parameterization="theta")
    assert np.all(np.isfinite(theta_scale.values))


def test_hessian_is_symmetric_and_negative_definite(binom_fit):
    result = hessian(binom_fit, parameterization="theta", n_points=7)
    np.testing.assert_allclose(result.values, result.values.T, atol=0)
    eigvals = np.linalg.eigvalsh(result.values)
    assert eigvals[-1] < 0
    assert result.one_sided == ()
    assert result.labels == estfun(binom_fit, "theta").labels


def test_hessian_matches_second_differences_of_loglik(binom_fit):
    # independent check of one diagonal entry: second central difference
    # of the marginal loglik in beta_0, modes re-solved at each point,
    # which is the same convention hessian's outer difference uses
    result = hessian(binom_fit, parameterization="theta", n_points=7)
    h = 1e-4
    beta = binom_fit.beta

    def ll(b0):
        shifted = load_fitted(np.r_[b0, beta[1:]], binom_fit.theta,
                              binom_fit.data, "binomial", n_points=7)
        return shifted.loglik

    second = (ll(beta[0] + h) - 2 * ll(beta[0]) + ll(beta[0] - h)) / h ** 2
    np.testing.assert_allclose(result.values[0, 0], second, rtol=5e-4)


def test_warm_started_hessian_matches_cold_reference(binom_fit, slope_fit):
    # hessian re-solves the perturbed modes from fit.modes; the reference
    # rehydrates every perturbed fit from cold modes.  Measured gap:
    # 6.4e-12 (binom_fit) and 2.5e-12 (slope_fit) relative to the
    # largest entry, against exactly 0 with cold re-solves.
    for fitted in (binom_fit, slope_fit):
        raw = raw_fd_hessian(fitted, 5)
        reference = 0.5 * (raw + raw.T)
        gap = np.max(np.abs(hessian(fitted, "theta").values - reference))
        assert gap <= 1e-10 * np.max(np.abs(reference))


def test_hessian_var_scale_consistent_with_sandwich_chain(binom_fit):
    # var-scale Hessian via FD must agree with the theta-scale Hessian
    # mapped through the q = 1 chain rule at the optimum:
    # H_var = H_theta / (2 lam)^2 + s_theta * d(1/(2 lam))/d var, and the
    # second term uses the total theta score, ~0 at the MLE
    h_theta = hessian(binom_fit, parameterization="theta", n_points=7).values
    h_var = hessian(binom_fit, parameterization="var", n_points=7).values
    lam = binom_fit.theta[0]
    np.testing.assert_allclose(h_var[:-1, :-1], h_theta[:-1, :-1], rtol=1e-7)
    np.testing.assert_allclose(h_var[-1, :-1], h_theta[-1, :-1] / (2 * lam),
                               rtol=1e-5)


ZERO_POINT_CALLS = {
    "fit": lambda f: fit(f.data, "binomial", control=FitControl(n_points=0)),
    "load_fitted": lambda f: load_fitted(f.beta, f.theta, f.data, "binomial",
                                         n_points=0),
    "marginal_loglik": lambda f: marginal_loglik(f.beta, f.lambda_matrix,
                                                 f.data, "binomial", 0),
    "llcont": lambda f: llcont(f, n_points=0),
    "estfun": lambda f: estfun(f, "theta", n_points=0),
    "gradient": lambda f: gradient(f, "theta", n_points=0),
    "hessian": lambda f: hessian(f, "theta", n_points=0),
    "sandwich_vcov": lambda f: sandwich_vcov(f, "theta", n_points=0),
    "sctest": lambda f: sctest(f, np.arange(f.data.n_clusters), n_points=0,
                               seed=1),
    "vuong_variance_test": lambda f: vuong_variance_test(f, f, n_points=0,
                                                         seed=1),
    "vuong_lr_test": lambda f: vuong_lr_test(f, f, n_points=0, seed=1),
}


@pytest.mark.parametrize("entry", sorted(ZERO_POINT_CALLS))
def test_zero_points_is_an_error_not_the_default(binom_fit, entry):
    with pytest.raises(ConfigError):
        ZERO_POINT_CALLS[entry](binom_fit)
