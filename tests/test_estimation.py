"""Mode finding, marginal likelihood, and the fitting loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import glmmkit.covariance as cov
from glmmkit import (ConfigError, DomainError, EstimationError, FitControl,
                     GlmmData, ShapeError, conditional_modes, family_spec,
                     fit, llcont, load_fitted, make_glmm_data,
                     marginal_loglik)
from glmmkit.estimation import default_points
from oracles import _dmu_deta, _inverse_link, _variance, simpson_cluster


def test_default_points():
    assert default_points(1) == 7
    assert default_points(2) == 1
    assert default_points(1, "derivatives") == 5
    assert default_points(3, "derivatives") == 5


def test_poisson_single_observation_mode_closed_form():
    # one Poisson count y = 2 with eta = u: the penalized score is
    # 2 - exp(u) - u, whose root brentq pins at 0.442854...; the
    # conditional factor is (exp(mode) + 1)^(-1/2)
    data = GlmmData.from_arrays([2.0], np.ones((1, 1)), np.ones((1, 1)), [0])
    family = family_spec("poisson", "log")
    modes, chols = conditional_modes(np.zeros(1), np.eye(1), data, family)
    root = brentq(lambda b: 2.0 - np.exp(b) - b, 0.0, 1.0, xtol=1e-14)
    np.testing.assert_allclose(root, 0.4428544010, atol=1e-9)
    np.testing.assert_allclose(modes[0, 0], root, atol=1e-9)
    np.testing.assert_allclose(chols[0, 0, 0],
                               (np.exp(root) + 1.0) ** -0.5, rtol=1e-8)


def test_modes_are_stationary_points():
    # penalized gradient Lam' Z' r - u must vanish at the reported modes
    sim = make_glmm_data("binomial", link="probit", random="slope",
                         n_clusters=15, cluster_size=10, seed=44)
    data = sim.data
    family = family_spec("binomial", "probit")
    lam = cov.theta_to_lambda(sim.theta, 2)
    modes, _ = conditional_modes(sim.beta, lam, data, family)
    for i in range(data.n_clusters):
        rows = data.rows(i)
        eta = data.X[rows] @ sim.beta + data.Z[rows] @ (lam @ modes[i])
        mu = family.inverse_link(eta)
        resid = ((data.y[rows] - mu) * family._dmu_deta(eta)
                 / family.variance_function(mu))
        grad = lam.T @ (data.Z[rows].T @ resid) - modes[i]
        assert np.max(np.abs(grad)) < 1e-8


@pytest.mark.parametrize("q", [1, 2])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), spread=st.floats(0.1, 2.0))
def test_warm_and_cold_mode_solves_agree_at_a_stationary_point(
        family, link, q, seed, spread):
    sim = make_glmm_data(family, link=link, n_clusters=10, cluster_size=6,
                         random="intercept" if q == 1 else "slope", seed=seed)
    data, spec = sim.data, family_spec(family, link)
    lam = cov.theta_to_lambda(sim.theta, q)
    cold, _ = conditional_modes(sim.beta, lam, data, spec)
    start = cold + spread * np.random.default_rng(seed).standard_normal(
        cold.shape)
    warm, _ = conditional_modes(sim.beta, lam, data, spec, start=start)
    np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-8)
    for modes in (cold, warm):
        # penalized gradient Lam' Z' r - u from the oracle's primitives,
        # with the package's mean clamp (a cloglog mean rounds to 1)
        b = (modes @ lam.T)[data.cluster_index]
        eta = data.X @ sim.beta + np.sum(data.Z * b, axis=1)
        mu = _inverse_link(link, eta)
        if family == "binomial":
            mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
        resid = (data.y - mu) * _dmu_deta(link, eta) / _variance(family, mu)
        grad = data.sum_by_cluster(data.Z * resid[:, None]) @ lam - modes
        assert np.max(np.abs(grad)) <= 1e-8


@pytest.mark.parametrize("family,bad", [("binomial", 2.0), ("binomial", 0.5),
                                        ("poisson", -1.0), ("poisson", 0.5)])
@pytest.mark.parametrize("entry", ["fit", "load_fitted", "marginal_loglik"])
def test_responses_outside_the_support_are_a_domain_error(entry, family, bad):
    sim = make_glmm_data(family, n_clusters=30, cluster_size=5, seed=5)
    d = sim.data
    y = d.y.copy()
    y[7] = bad
    data = GlmmData.from_arrays(y, d.X, d.Z, d.cluster_index)
    lam = cov.theta_to_lambda(sim.theta, 1)
    calls = {
        "fit": lambda: fit(data, family),
        "load_fitted": lambda: load_fitted(sim.beta, sim.theta, data, family),
        "marginal_loglik": lambda: marginal_loglik(sim.beta, lam, data,
                                                   family, n_points=5),
    }
    with pytest.raises(DomainError, match="responses must be"):
        calls[entry]()


def test_marginal_loglik_matches_simpson_oracle():
    sim = make_glmm_data("binomial", n_clusters=8, cluster_size=5, seed=9)
    family = family_spec("binomial", "logit")
    lam = cov.theta_to_lambda(sim.theta, 1)
    total = marginal_loglik(sim.beta, lam, sim.data, family, n_points=15)
    oracle = 0.0
    for i in range(8):
        rows = sim.data.rows(i)
        ll, _, _ = simpson_cluster(sim.data.y[rows], sim.data.X[rows],
                                   sim.data.Z[rows][:, 0], sim.beta,
                                   sim.theta[0], "binomial", "logit")
        oracle += ll
    np.testing.assert_allclose(total, oracle, atol=5e-10)


def test_fit_recovers_simulation_truth(binom_fit):
    # beta truth (0.5, -0.8), theta truth 0.7; with I = 40 the estimates
    # should land within a few standard errors
    assert binom_fit.converged
    assert not binom_fit.boundary
    np.testing.assert_allclose(binom_fit.beta, [0.5, -0.8], atol=0.45)
    assert 0.25 < binom_fit.theta[0] < 1.6


def test_fit_is_no_worse_than_truth(binom_fit):
    sim = make_glmm_data("binomial", n_clusters=40, cluster_size=6, seed=101)
    at_truth = load_fitted(sim.beta, sim.theta, binom_fit.data, "binomial",
                           n_points=binom_fit.m_used)
    assert binom_fit.loglik >= at_truth.loglik - 1e-9


def test_load_fitted_reproduces_fit_loglik(binom_fit):
    again = load_fitted(binom_fit.beta, binom_fit.theta, binom_fit.data,
                        "binomial", n_points=binom_fit.m_used)
    np.testing.assert_allclose(again.loglik, binom_fit.loglik, rtol=1e-13)
    np.testing.assert_allclose(again.modes, binom_fit.modes, atol=1e-9)


def test_llcont_sums_to_loglik(binom_fit, poisson_fit, slope_fit):
    # at each fit's own point count: M = 7 for q = 1, Laplace for q = 2
    for fitted in (binom_fit, poisson_fit, slope_fit):
        contributions = llcont(fitted, n_points=fitted.m_used)
        assert contributions.shape == (fitted.data.n_clusters,)
        np.testing.assert_allclose(contributions.sum(), fitted.loglik,
                                   rtol=1e-12)


def test_warm_start_reaches_same_optimum(binom_fit):
    warm = fit(binom_fit.data, "binomial",
               control=FitControl(restarts=0, beta_start=binom_fit.beta,
                                  theta_start=binom_fit.theta))
    assert abs(warm.loglik - binom_fit.loglik) < 1e-5


def test_diagonal_structure_slope_model():
    sim = make_glmm_data("poisson", beta=(0.3, 0.2), random="slope",
                         theta=(0.5, 0.0, 0.25), n_clusters=25,
                         cluster_size=6, seed=77)
    fitted = fit(sim.data, "poisson", structure="diagonal",
                 control=FitControl(restarts=0))
    assert fitted.theta.size == 2
    assert fitted.structure == "diagonal"
    assert fitted.converged


def test_load_fitted_validates_lengths(binom_fit):
    with pytest.raises(ConfigError):
        load_fitted(binom_fit.beta[:-1], binom_fit.theta, binom_fit.data,
                    "binomial")
    with pytest.raises(ConfigError):
        load_fitted(binom_fit.beta, np.array([0.7, 0.1]), binom_fit.data,
                    "binomial")


def test_fit_rejects_tiny_cluster_counts():
    sim = make_glmm_data("binomial", random="slope", n_clusters=2,
                         cluster_size=4, seed=3)
    with pytest.raises(ConfigError):
        fit(sim.data, "binomial")


def test_exhausted_budget_raises_with_best_attached():
    sim = make_glmm_data("binomial", n_clusters=20, cluster_size=4, seed=15)
    with pytest.raises(EstimationError) as excinfo:
        fit(sim.data, "binomial", control=FitControl(max_fev=10, restarts=0))
    best = excinfo.value.best
    assert best.n_fev <= 10
    assert not best.converged


def test_bad_start_lengths_raise(binom_fit):
    with pytest.raises(ShapeError):
        fit(binom_fit.data, "binomial",
            control=FitControl(beta_start=np.zeros(5)))
    with pytest.raises(ShapeError):
        fit(binom_fit.data, "binomial",
            control=FitControl(theta_start=np.zeros(3)))


def test_quadrature_refinement_changes_little_at_optimum(binom_fit):
    # M = 7 vs M = 15 on a fitted q = 1 model: the anchored rule has
    # essentially converged (measured gap 1.6e-6 on this testbed)
    coarse = llcont(binom_fit, n_points=7).sum()
    fine = llcont(binom_fit, n_points=15).sum()
    assert abs(coarse - fine) < 1e-5
