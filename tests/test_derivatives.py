"""Casewise scores and the Hessian.

The central oracle: scores returned by estfun are the exact gradient of
the fixed-anchor quadrature log-likelihood, so central differences of
llcont with the anchors held at the stored modes must reproduce them to
finite-difference truncation accuracy (~1e-8 relative at h = 1e-5).  The
analytic Hessian is checked against central differences of the total
score with the modes re-solved at every perturbed point
(``oracles.fd_hessian``).
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmmkit.covariance as cov
import oracles
from glmmkit import (ConfigError, FitControl, GlmmData, SingularityError,
                     estfun,
                     family_spec, fit, gradient, hessian, llcont, load_fitted,
                     make_glmm_data, sandwich_vcov, sctest, vuong_lr_test,
                     vuong_variance_test)
from glmmkit import estimation
from glmmkit.derivatives import _hessian_sweep
from glmmkit.estimation import _BOUNDARY_TOL, _quadrature_sweep
from glmmkit.families import FamilySpec
from glmmkit.quadrature import gh_rule
from oracles import (fd_hessian, fd_scores_fixed_anchor, raw_fd_hessian,
                     score_beta_cluster, score_theta_cluster, simpson_cluster)
from test_estimation import _gradient_case


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
        rows = slice(data.offsets[i], data.offsets[i + 1])
        _, beta_s, theta_s = simpson_cluster(
            data.y[rows], data.X[rows], data.Z[rows][:, 0], binom_fit.beta,
            binom_fit.theta[0], "binomial", "logit")
        np.testing.assert_allclose(scores.values[i],
                                   np.r_[beta_s, theta_s], atol=1e-9)


def _sweep_scores(fitted, n_points):
    _, values = _quadrature_sweep(
        fitted.beta, fitted.lambda_matrix, fitted.data, fitted.family,
        fitted.modes, fitted.cond_chol, gh_rule(n_points, 1), [(0, 0)])
    p = fitted.data.n_fixed
    return values[:, :p], values[:, p:]


def test_canonical_shortcut_agrees_with_general_form(binom_fit, poisson_fit,
                                                     monkeypatch):
    # the general residual (y - mu) mu'(eta) / V(mu) runs for every link
    # the family does not call canonical
    canonical = [_sweep_scores(fitted, 7) for fitted in (binom_fit,
                                                         poisson_fit)]
    monkeypatch.setattr(FamilySpec, "canonical", False)
    for fitted, (b_canon, t_canon) in zip((binom_fit, poisson_fit),
                                          canonical):
        b_general, t_general = _sweep_scores(fitted, 7)
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


@pytest.mark.parametrize("parameterization", ["var", "sd"])
def test_boundary_refusal_has_one_message(binom_fit, parameterization):
    at_zero = load_fitted(binom_fit.beta, [0.0], binom_fit.data, "binomial")
    message = "^fit is on the boundary .*only theta-scale scores are defined$"
    for derivative in (estfun, hessian):
        with pytest.raises(SingularityError, match=message):
            derivative(at_zero, parameterization=parameterization)
    with pytest.raises(SingularityError, match=message):
        sandwich_vcov(at_zero, parameterization=parameterization)


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
    # the reference rehydrates every perturbed fit from cold modes.
    # Measured gap: 6.5e-11 (binom_fit) and 8.7e-11 (slope_fit) relative
    # to the largest entry, the reference's own finite-difference error.
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


def _fd_reference(fitted, parameterization, n_points, monkeypatch):
    """fd_hessian at the step where its own error is smallest: h = 1e-5
    on the theta scale; 1e-6 on the var and sd scales, where the
    truncation error at 1e-5 reaches 1.5e-8 for q = 3."""
    monkeypatch.setattr(oracles, "_FD_STEP",
                        1e-5 if parameterization == "theta" else 1e-6)
    return fd_hessian(fitted, parameterization, n_points).values


@pytest.mark.parametrize("q,structure", [(1, "unstructured"),
                                         (2, "unstructured"), (2, "diagonal"),
                                         (3, "unstructured"), (3, "diagonal")])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_analytic_hessian_matches_finite_differences(family, link, q,
                                                     structure, monkeypatch):
    # the finite differences re-solve the modes at every perturbed point;
    # a tight mode tolerance keeps the Fisher-scoring solves of the
    # non-canonical links from adding tolerance / h (up to 9e-7 at the
    # default 1e-10) to them.  Measured gap over these 20 cases, relative
    # to the largest entry: at most 9.3e-10 on the theta scale, 5.0e-9 on
    # the var scale and 5.1e-10 on the sd scale
    monkeypatch.setattr(estimation, "_MODE_TOL", 1e-13)
    data, spec, beta, theta = _gradient_case(family, link, q, structure)
    for n_points, scales in ((1, ("theta", "var")), (3, ("theta", "sd")),
                             (5, ("theta", "var")), (7, ("theta", "sd"))):
        fitted = load_fitted(beta, theta, data, spec, n_points=n_points,
                             structure=structure)
        for parameterization in scales:
            analytic = hessian(fitted, parameterization, n_points)
            reference = _fd_reference(fitted, parameterization, n_points,
                                      monkeypatch)
            gap = (np.max(np.abs(analytic.values - reference))
                   / np.max(np.abs(reference)))
            assert gap <= 1e-8, (n_points, parameterization, gap)
            assert analytic.one_sided == ()


@pytest.mark.parametrize("family,link,q", [("binomial", "probit", 2),
                                           ("binomial", "cloglog", 1)])
def test_analytic_hessian_follows_the_expected_curvature_branch(
        family, link, q, monkeypatch):
    # force the conditional factor onto the expected curvature in the
    # analytic path and in the reference's mode re-solves alike; at M = 3
    # the branch moves the Hessian by 2e-3 to 4e-3, and the measured gap
    # is at most 6e-11
    monkeypatch.setattr(estimation, "_MODE_TOL", 1e-13)

    def expected_only(m_obs, m_exp, lam, data):
        return np.linalg.cholesky(
            estimation._penalized_curvature(m_exp, lam, data)), False

    monkeypatch.setattr(estimation, "_factor_curvature", expected_only)
    data, spec, beta, theta = _gradient_case(family, link, q, "unstructured")
    fitted = load_fitted(beta, theta, data, spec, n_points=3)
    for parameterization in ("theta", "var"):
        analytic = hessian(fitted, parameterization, 3).values
        reference = _fd_reference(fitted, parameterization, 3, monkeypatch)
        gap = np.max(np.abs(analytic - reference)) / np.max(np.abs(reference))
        assert gap <= 1e-9, (parameterization, gap)


@pytest.mark.parametrize("q,structure", [(1, "unstructured"),
                                         (2, "unstructured"), (2, "diagonal")])
@pytest.mark.parametrize("family,link", [("binomial", "logit"),
                                         ("binomial", "probit")])
def test_hessian_scores_are_estfun_bit_for_bit(family, link, q, structure):
    data, spec, beta, theta = _gradient_case(family, link, q, structure)
    fitted = load_fitted(beta, theta, data, spec, n_points=3,
                         structure=structure)
    for parameterization in ("theta", "var", "sd"):
        scores = hessian(fitted, parameterization, 3).scores
        expect = estfun(fitted, parameterization, 3)
        assert scores.values.tobytes() == expect.values.tobytes()
        assert scores.values.shape == expect.values.shape
        assert (scores.labels, scores.parameterization, scores.m_used) == (
            expect.labels, expect.parameterization, expect.m_used)
    # the sweep's per-cluster log-likelihood, which the Vuong tests read,
    # is llcont's
    sweep = _hessian_sweep(fitted, 3)
    assert sweep.ell.tobytes() == llcont(fitted, 3).tobytes()


def test_hessian_flags_diagonal_entries_on_the_bound(slope_fit):
    # the reference's column there is a one-sided difference, O(h) off:
    # measured gap 1.8e-6 of the largest entry
    theta = slope_fit.theta.copy()
    theta[2] = 0.0     # the second diagonal entry of the factor
    at_bound = load_fitted(slope_fit.beta, theta, slope_fit.data, "binomial",
                           n_points=3)
    result = hessian(at_bound, "theta", n_points=3)
    reference = fd_hessian(at_bound, "theta", n_points=3)
    assert result.one_sided == reference.one_sided == (
        slope_fit.data.n_fixed + 2,)
    gap = (np.max(np.abs(result.values - reference.values))
           / np.max(np.abs(reference.values)))
    assert gap <= 1e-5
    with pytest.raises(SingularityError):
        hessian(at_bound, "var", n_points=3)


@functools.cache
def _boundary_data(q):
    """30 clusters of 6 binary rows, with random effects on the first q
    columns of X."""
    rng = np.random.default_rng(40 + q)
    x = np.column_stack([np.ones(180), rng.standard_normal((180, 2))])
    y = (rng.random(180) < 1.0 / (1.0 + np.exp(-x @ [0.2, 0.5, -0.3])))
    return GlmmData.from_arrays(y.astype(float), x, x[:, :q].copy(),
                                np.repeat(np.arange(30), 6))


@st.composite
def boundary_cases(draw):
    q = draw(st.integers(1, 3))
    structure = draw(st.sampled_from(["unstructured", "diagonal"]))
    theta = [draw(st.sampled_from([0.0, 5e-7, 1e-6, 2e-6, 0.5])) if i == j
             else 0.2 for i, j in cov.free_positions(q, structure)]
    return q, structure, np.array(theta)


@settings(max_examples=40, deadline=None)
@given(boundary_cases())
def test_boundary_flag_and_one_sided_columns_follow_one_rule(case):
    q, structure, theta = case
    data = _boundary_data(q)
    fitted = load_fitted([0.2, 0.5, -0.3], theta, data, "binomial",
                         structure=structure)
    one_sided = hessian(fitted, "theta", n_points=2).one_sided
    assert fitted.boundary == bool(one_sided)
    assert one_sided == tuple(
        3 + t for t, (i, j) in enumerate(cov.free_positions(q, structure))
        if i == j and theta[t] < _BOUNDARY_TOL)


ZERO_POINT_CALLS = {
    "fit": lambda f: fit(f.data, "binomial", control=FitControl(n_points=0)),
    "load_fitted": lambda f: load_fitted(f.beta, f.theta, f.data, "binomial",
                                         n_points=0),
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
