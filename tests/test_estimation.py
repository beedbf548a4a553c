"""Mode finding, marginal likelihood, and the fitting loop."""

import dataclasses
import logging
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import glmmkit.covariance as cov
import glmmkit.estimation as estimation
from glmmkit import (ConfigError, DomainError, EstimationError, FitControl,
                     GlmmData, ShapeError, conditional_modes, family_spec,
                     fit, llcont, load_fitted, make_glmm_data)
from glmmkit.estimation import _quadrature_sweep, default_points
from glmmkit.families import FamilySpec
from glmmkit.quadrature import gh_rule
from oracles import (_dmu_deta, _inverse_link, _variance,
                     lapack_conditional_factor, lapack_penalized_curvature,
                     matrix_adapted_grid, matrix_anchor_motion,
                     matrix_anchor_terms, matrix_anchored_hessian,
                     moment_theta_pairs, nelder_mead_loglik,
                     plain_conditional_modes, simpson_cluster)
from test_edge_datasets import _q3


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


@pytest.mark.parametrize("lam", [0.7, [0.7], np.eye(2)])
def test_conditional_modes_takes_only_a_q_by_q_factor(lam):
    data = GlmmData.from_arrays([2.0], np.ones((1, 1)), np.ones((1, 1)), [0])
    with pytest.raises(ShapeError, match="does not match Z"):
        conditional_modes(np.zeros(1), lam, data, "poisson")


def test_modes_are_stationary_points():
    # penalized gradient Lam' Z' r - u must vanish at the reported modes
    sim = make_glmm_data("binomial", link="probit", random="slope",
                         n_clusters=15, cluster_size=10, seed=44)
    data = sim.data
    family = family_spec("binomial", "probit")
    lam = cov.theta_to_lambda(sim.theta, 2)
    modes, _ = conditional_modes(sim.beta, lam, data, family)
    for i in range(data.n_clusters):
        rows = slice(data.offsets[i], data.offsets[i + 1])
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
@pytest.mark.parametrize("entry", ["fit", "load_fitted"])
def test_responses_outside_the_support_are_a_domain_error(entry, family, bad):
    sim = make_glmm_data(family, n_clusters=30, cluster_size=5, seed=5)
    d = sim.data
    y = d.y.copy()
    y[7] = bad
    data = GlmmData.from_arrays(y, d.X, d.Z, d.cluster_index)
    calls = {
        "fit": lambda: fit(data, family),
        "load_fitted": lambda: load_fitted(sim.beta, sim.theta, data, family),
    }
    with pytest.raises(DomainError, match="responses must be"):
        calls[entry]()


def test_loglik_at_given_estimates_matches_simpson_oracle():
    sim = make_glmm_data("binomial", n_clusters=8, cluster_size=5, seed=9)
    family = family_spec("binomial", "logit")
    total = load_fitted(sim.beta, sim.theta, sim.data, family,
                        n_points=15).loglik
    oracle = 0.0
    for i in range(8):
        rows = slice(sim.data.offsets[i], sim.data.offsets[i + 1])
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


def test_point_counts_must_be_integers(binom_fit):
    # a non-integer count is refused, not truncated to M = 2
    with pytest.raises(ConfigError, match="n_points"):
        FitControl(n_points=2.7)
    with pytest.raises(ConfigError, match="n_points"):
        FitControl(n_points=0)
    with pytest.raises(ConfigError, match="integer"):
        load_fitted(binom_fit.beta, binom_fit.theta, binom_fit.data,
                    "binomial", n_points=2.7)


def test_fit_rejects_tiny_cluster_counts():
    sim = make_glmm_data("binomial", random="slope", n_clusters=2,
                         cluster_size=4, seed=3)
    with pytest.raises(ConfigError):
        fit(sim.data, "binomial")


def test_exhausted_budget_raises_with_best_attached():
    # this fit converges in 9 evaluations, so a budget of 4 runs out
    sim = make_glmm_data("binomial", n_clusters=20, cluster_size=4, seed=15)
    with pytest.raises(EstimationError) as excinfo:
        fit(sim.data, "binomial", control=FitControl(max_fev=4, restarts=0))
    best = excinfo.value.best
    assert best.n_fev <= 4
    assert not best.converged


def test_failed_evaluations_do_not_stop_the_fit(binom_fit, monkeypatch):
    # the 3rd and 4th mode solves fail, inside the first line search; the
    # fit must step back and still reach the optimum, not stop there
    calls = []
    solve = estimation.conditional_modes

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) in (3, 4):
            raise EstimationError("forced failure")
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimation, "conditional_modes", flaky)
    again = fit(binom_fit.data, "binomial", control=FitControl(restarts=1))
    assert len(calls) > 4
    assert again.converged
    np.testing.assert_allclose(again.loglik, binom_fit.loglik, rtol=1e-12)


def test_bad_start_lengths_raise(binom_fit):
    with pytest.raises(ShapeError):
        fit(binom_fit.data, "binomial",
            control=FitControl(beta_start=np.zeros(5)))
    with pytest.raises(ShapeError):
        fit(binom_fit.data, "binomial",
            control=FitControl(theta_start=np.zeros(3)))


@pytest.mark.parametrize("field", ["beta", "theta"])
def test_non_numeric_estimates_are_a_config_error(binom_fit, field):
    beta, theta = binom_fit.beta, binom_fit.theta
    if field == "beta":
        beta = ["x", 1]
    else:
        theta = ["a"]
    with pytest.raises(ConfigError, match=f"^{field} must hold only numbers"):
        load_fitted(beta, theta, binom_fit.data, "binomial")


@pytest.mark.parametrize("field,start", [("beta_start", ["x", 1.0]),
                                         ("theta_start", ["a"])])
def test_non_numeric_fit_starts_are_a_config_error(binom_fit, field, start):
    with pytest.raises(ConfigError, match=f"^{field} must hold only numbers"):
        fit(binom_fit.data, "binomial", control=FitControl(**{field: start}))


def test_load_fitted_refuses_a_negative_theta_diagonal(binom_fit, slope_fit):
    # as fit refuses such a theta_start; accepted, it would read as a
    # boundary fit whose scores and Hessian then fail
    with pytest.raises(DomainError, match="theta must have a nonnegative"):
        load_fitted(binom_fit.beta, [-0.7], binom_fit.data, "binomial")
    with pytest.raises(DomainError, match="nonnegative diagonal"):
        load_fitted(slope_fit.beta, [0.5, 0.3, -0.4], slope_fit.data,
                    "binomial")
    # a negative off-diagonal entry is a valid factor
    assert not load_fitted(slope_fit.beta, [0.5, -0.3, 0.4], slope_fit.data,
                           "binomial").boundary


def test_negative_theta_start_diagonal_is_a_domain_error(binom_fit):
    # the diagonal is bounded below by zero; no start is folded into it
    with pytest.raises(DomainError, match="nonnegative diagonal"):
        fit(binom_fit.data, "binomial",
            control=FitControl(theta_start=np.array([-0.7])))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_theta_is_a_domain_error(binom_fit, slope_fit, bad):
    # refused before any arithmetic: an inf used to emit numpy's "invalid
    # value encountered in matmul" and then report a non-finite linear
    # predictor
    with pytest.raises(DomainError, match="theta must be finite"):
        load_fitted(binom_fit.beta, [bad], binom_fit.data, "binomial")
    with pytest.raises(DomainError, match="theta must be finite"):
        load_fitted(slope_fit.beta, [0.5, bad, 0.4], slope_fit.data,
                    "binomial")
    with pytest.raises(DomainError, match="theta_start must be finite"):
        fit(binom_fit.data, "binomial",
            control=FitControl(theta_start=np.array([bad])))


def test_quadrature_refinement_changes_little_at_optimum(binom_fit):
    # M = 7 vs M = 15 on a fitted q = 1 model: the anchored rule has
    # essentially converged (measured gap 1.6e-6 on this testbed)
    coarse = llcont(binom_fit, n_points=7).sum()
    fine = llcont(binom_fit, n_points=15).sum()
    assert abs(coarse - fine) < 1e-5


# ---------------------------------------------------------------------------
# the exact gradient the fit optimizes


def _gradient_case(family, link, q, structure, seed=8):
    """Data on 10 clusters of 6 rows, and parameters with an interior
    factor: q = 1 intercept, q = 2 intercept and slope, q = 3 intercept
    and two slopes."""
    rng = np.random.default_rng(seed)
    n_cl, size = 10, 6
    x = np.column_stack([np.ones(n_cl * size),
                         rng.standard_normal((n_cl * size, 2))])
    beta = np.array([0.2, 0.5, -0.4])
    full = {1: [0.7], 2: [0.7, 0.2, 0.4],
            3: [0.5, 0.1, 0.0, 0.4, 0.05, 0.3]}[q]
    theta = (np.array(full) if structure == "unstructured"
             else np.diag(cov.theta_to_lambda(full, q)))
    spec = family_spec(family, link)
    cluster = np.repeat(np.arange(n_cl), size)
    lam = cov.theta_to_lambda(theta, q, structure)
    u = rng.standard_normal((n_cl, q)) @ lam.T
    mu = spec.inverse_link(x @ beta + np.einsum("nj,nj->n", x[:, :q],
                                                u[cluster]))
    y = (rng.random(mu.size) < mu if family == "binomial"
         else rng.poisson(mu)).astype(float)
    return GlmmData.from_arrays(y, x, x[:, :q], cluster), spec, beta, theta


@pytest.mark.parametrize("n_points", [1, 3, 7])
@pytest.mark.parametrize("q,structure", [(1, "unstructured"),
                                         (2, "unstructured"), (2, "diagonal"),
                                         (3, "unstructured"), (3, "diagonal")])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_exact_gradient_matches_differences_of_the_reanchored_loglik(
        family, link, q, structure, n_points):
    # every perturbed point re-solves the modes and factors cold, so the
    # differences see the same objective the fit maximizes
    data, spec, beta, theta = _gradient_case(family, link, q, structure)
    lam = cov.theta_to_lambda(theta, q, structure)
    modes, chols = conditional_modes(beta, lam, data, spec)
    _, exact = _quadrature_sweep(beta, lam, data, spec, modes, chols,
                                 gh_rule(n_points, q),
                                 cov.free_positions(q, structure), exact=True)

    def reanchored(x):
        refit = load_fitted(x[:3], x[3:], data, spec, n_points=n_points,
                            structure=structure)
        return llcont(refit, n_points)

    x0 = np.concatenate([beta, theta])
    h = 1e-5
    fd = np.column_stack([
        (reanchored(x0 + h * e) - reanchored(x0 - h * e)) / (2.0 * h)
        for e in np.eye(x0.size)])
    # measured gap at most 4.4e-10 over these 60 cases; the fixed-anchor
    # scores miss by 2e-6 to 2e-4 at M = 7, 2e-3 to 1e-2 at M = 3 and
    # 25-50% at M = 1
    gap = np.max(np.abs(exact - fd)) / np.max(np.abs(fd))
    assert gap <= 5e-9


@pytest.mark.parametrize("curvature", ["observed", "expected"])
@pytest.mark.parametrize("q,structure", [(1, "unstructured"),
                                         (2, "unstructured"), (2, "diagonal"),
                                         (3, "unstructured"), (3, "diagonal")])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_laplace_hessian_matches_differences_of_the_exact_gradient(
        family, link, q, structure, curvature, monkeypatch):
    # on the one-point rule the fit's Hessian is the sweep's symmetrized
    # Jacobian plus the second derivative of sum log|C_i|.  Every point
    # re-solves the modes and factors cold, so the differences see the
    # gradient the fit follows; "expected" checks the term's fallback
    # branch, where C comes from the expected curvature
    if curvature == "expected":
        monkeypatch.setattr(
            estimation, "_factor_curvature",
            lambda m_obs, m_exp, lam, data: (estimation._cholesky(
                estimation._penalized_curvature(m_exp, lam, data)), False))
    data, spec, beta, theta = _gradient_case(family, link, q, structure)
    positions = cov.free_positions(q, structure)

    def sweep(x, second=False):
        lam = cov.theta_to_lambda(x[3:], q, structure)
        solve = conditional_modes(x[:3], lam, data, spec, record=True)
        out = _quadrature_sweep(x[:3], lam, data, spec, solve.modes,
                                solve.cond_chol, gh_rule(1, q), positions,
                                exact=True, second=second, state=solve.state)
        if not second:
            return out[1].sum(axis=0)
        assert solve.state.observed == (curvature == "observed")
        jacobian = 0.5 * (out[2] + out[2].T)
        return jacobian, jacobian + estimation._log_det_hessian(
            lam, data, spec, solve.modes, solve.cond_chol, positions,
            solve.state, out[3])

    x0 = np.concatenate([beta, theta])
    jacobian, exact = sweep(x0, second=True)
    h = 1e-5
    fd = np.column_stack([(sweep(x0 + h * e) - sweep(x0 - h * e)) / (2.0 * h)
                          for e in np.eye(x0.size)])
    # central differences with h = 1e-5 carry h^2 / 6 times the third
    # derivative, about 1e-10 of the Hessian's scale here, and round-off
    # of order 1e-16 / h; the measured gap is at most 6.8e-10 over these
    # 40 cases, and the Jacobian alone misses by 5% to 84%
    scale = np.max(np.abs(fd))
    assert np.max(np.abs(exact - fd)) <= 5e-9 * scale
    assert np.max(np.abs(jacobian - fd)) > 0.01 * scale


def test_default_laplace_fit_reports_the_optimized_gradient(slope_fit):
    # q = 2 defaults to the Laplace approximation; grad_norm is the norm
    # of the exact gradient there, not of the fixed-anchor scores (~30)
    assert slope_fit.m_used == 1
    assert slope_fit.converged
    assert slope_fit.grad_norm < 1e-3


@pytest.mark.parametrize("fixture", ["binom_fit", "slope_fit"])
def test_fit_is_no_worse_than_a_nelder_mead_reference(request, fixture):
    # q = 1 at M = 7 and q = 2 at the Laplace default
    fitted = request.getfixturevalue(fixture)
    reference = nelder_mead_loglik(fitted.data, fitted.family, fitted.m_used)
    assert fitted.loglik >= reference - 1e-8 * abs(reference)


# ---------------------------------------------------------------------------
# the mode solver, its hand-over to the sweep, and the fit's last evaluation


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("start", ["cold", "warm", "far"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_mode_solver_matches_the_plain_newton_loop(family, link, q, start):
    # the solver starts each iteration from its last accepted trial and
    # factors the curvature once at the end; the plain loop recomputes
    # both, so modes, factors and the handed-over state agree bit for bit
    data, spec, beta, theta = _gradient_case(family, link, q, "unstructured")
    lam = cov.theta_to_lambda(theta, q)
    begin = None
    if start == "warm":
        # as in the fit: modes solved at nearby parameters
        begin, _ = conditional_modes(0.9 * beta, 1.1 * lam, data, spec)
    elif start == "far":
        # a wide factor and a start far below the modes: full steps
        # overshoot, and clusters settle after different step halvings
        lam = 3.0 * lam
        begin = np.full((data.n_clusters, q), -3.0)
    modes, chols, counts = plain_conditional_modes(beta, lam, data, spec,
                                                   begin)
    assert counts["unsettled"] == 0
    plain = conditional_modes(beta, lam, data, spec, start=begin)
    solve = conditional_modes(beta, lam, data, spec, start=begin,
                              record=True)
    assert solve.iterations == counts["iterations"] >= 2
    assert solve.halvings == counts["halvings"]
    assert (solve.halvings > 0) == (start == "far")
    for got in (plain, (solve.modes, solve.cond_chol)):
        assert _same_bits(got[0], modes)
        assert _same_bits(got[1], chols)
    rebuilt = estimation._mode_state(beta, lam, data, spec, solve.modes)
    for field in dataclasses.fields(rebuilt):
        assert _same_bits(getattr(solve.state, field.name),
                          getattr(rebuilt, field.name)), field.name


@pytest.mark.parametrize("link,shift,scale", [("logit", -24.0, 0.3),
                                              ("probit", -6.4, 0.03)])
def test_unsettled_clusters_fail_like_the_plain_newton_loop(
        link, shift, scale, monkeypatch):
    # cluster 0 answers 1 on every row at a linear predictor just past the
    # mean clamp, where log f is flat but d log f / d eta is not: from
    # u = 0.7 every trial step lowers the objective, through the penalty,
    # by more than the floor allows, so the cluster never settles and
    # keeps its rows.  Its gradient is far above the loose tolerance, so
    # both solvers fail on it at that first step, after reading the same
    # rows, eta and mean.
    rng = np.random.default_rng(3)
    cluster = np.repeat(np.arange(4), 6)
    y = np.where(cluster == 0, 1.0, (rng.random(24) < 0.5).astype(float))
    x = np.column_stack([np.ones(24), (cluster == 0).astype(float)])
    data = GlmmData.from_arrays(y, x, np.ones((24, 1)), cluster)
    spec = family_spec("binomial", link)
    beta, lam = np.array([0.0, shift]), np.array([[scale]])
    start = np.full((4, 1), 0.7)

    rows = []
    dmu_deta, variance = FamilySpec._dmu_deta, FamilySpec.variance_function
    monkeypatch.setattr(FamilySpec, "_dmu_deta", lambda self, eta: (
        rows.append(eta.copy()), dmu_deta(self, eta))[1])
    monkeypatch.setattr(FamilySpec, "variance_function", lambda self, mu: (
        rows.append(mu.copy()), variance(self, mu))[1])
    with pytest.raises(EstimationError) as plain:
        plain_conditional_modes(beta, lam, data, spec, start)
    assert plain.value.counts == {"iterations": 0, "halvings": 29,
                                  "unsettled": 1}
    assert "cluster 0" in str(plain.value)
    plain_rows = rows[:]
    rows.clear()
    with pytest.raises(EstimationError) as ours:
        conditional_modes(beta, lam, data, spec, start=start, record=True)
    assert str(ours.value) == str(plain.value)
    assert len(rows) == len(plain_rows)
    assert all(_same_bits(a, b) for a, b in zip(rows, plain_rows))
    # with a gradient inside the loose tolerance the cluster keeps its
    # modes to the last iteration, where that tolerance accepts them
    monkeypatch.setattr(estimation, "_MODE_LAST_TOL", 1e3)
    monkeypatch.setattr(estimation, "_MODE_MAX_ITER", 4)
    solve = conditional_modes(beta, lam, data, spec, start=start,
                              record=True)
    assert solve.iterations == 4
    assert solve.modes[0, 0] == 0.7


@pytest.mark.parametrize("tight", [True, False])
def test_fit_solves_the_modes_once_per_evaluation(binom_fit, monkeypatch,
                                                  tight):
    # the optimum is the last point evaluated; when its solve met the
    # tight tolerance that evaluation is the fit, and no solve follows the
    # search.  With the tight tolerance out of reach every solve stops on
    # the loose one after _MODE_MAX_ITER iterations, a warm solve from
    # such modes would move them, and the fit solves once more.
    if not tight:
        monkeypatch.setattr(estimation, "_MODE_TOL", -1.0)
        monkeypatch.setattr(estimation, "_MODE_MAX_ITER", 12)
    calls = []
    solve = estimation.conditional_modes

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimation, "conditional_modes", counting)
    again = fit(binom_fit.data, "binomial", control=FitControl(restarts=1))
    assert again.converged
    assert len(calls) == again.n_fev + (0 if tight else 1)
    assert again.loglik == float(np.sum(llcont(again, again.m_used)))
    np.testing.assert_allclose(again.loglik, binom_fit.loglik, rtol=1e-12)


# ---------------------------------------------------------------------------
# the scalar closed forms at q = 1


def _lapack_or_error(compute):
    """The result of ``compute``, or ``LinAlgError`` if it raises one."""
    try:
        return compute()
    except np.linalg.LinAlgError:
        return np.linalg.LinAlgError


def _agree(ours, lapack) -> bool:
    if ours is np.linalg.LinAlgError or lapack is np.linalg.LinAlgError:
        return ours is lapack
    return _same_bits(ours, lapack)


@pytest.mark.parametrize("special", [None, 0.0, -0.0, -1.0, np.inf, -np.inf,
                                     np.nan])
def test_scalar_forms_equal_lapack_on_one_by_one_stacks(special):
    # every entry of the stack, and one planted entry on which LAPACK
    # fails (0 and below) or passes a non-finite value through
    rng = np.random.default_rng(11)
    entries = np.exp(rng.uniform(-30.0, 30.0, 4000))
    if special is not None:
        entries[1234] = special
    stack = entries[:, None, None]
    grad = rng.standard_normal((4000, 1)) * np.exp(rng.uniform(-20, 20,
                                                               (4000, 1)))

    def lapack_factor():
        inv = np.linalg.inv(stack)
        return np.linalg.cholesky(np.einsum("iba,ibc->iac", inv, inv))

    for ours, lapack in [
            (lambda: estimation._newton_step(stack, grad),
             lambda: np.linalg.solve(stack, grad[..., None])[..., 0]),
            (lambda: estimation._cholesky(stack),
             lambda: np.linalg.cholesky(stack)),
            (lambda: estimation._conditional_factor(stack), lapack_factor)]:
        assert _agree(_lapack_or_error(ours), _lapack_or_error(lapack))
    if special is None:
        assert _lapack_or_error(lapack_factor) is not np.linalg.LinAlgError


@pytest.mark.parametrize("planted", [None, -50.0, np.nan])
@pytest.mark.parametrize("scale", [0.0, 0.7, 40.0])
def test_scalar_curvature_and_factor_equal_the_batched_einsum(planted,
                                                              scale):
    # a strongly negative observed curvature on one cluster makes its
    # penalized curvature indefinite: both paths fall back to the expected
    # curvature for every cluster; a NaN passes through both
    data, spec, beta, theta = _gradient_case("binomial", "cloglog", 1,
                                             "unstructured")
    lam = np.array([[scale]])
    rng = np.random.default_rng(5)
    m_exp = rng.uniform(0.0, 0.3, data.n_obs)
    m_obs = m_exp + rng.normal(0.0, 0.05, data.n_obs)
    if planted is not None:
        m_obs[:6] = planted
    for weight in (m_obs, m_exp):
        assert _same_bits(
            estimation._penalized_curvature(weight, lam, data),
            lapack_penalized_curvature(weight, lam, data))
    chol_h, observed = estimation._factor_curvature(m_obs, m_exp, lam, data)
    assert observed == (planted != -50.0 or scale == 0.0)
    assert _same_bits(estimation._conditional_factor(chol_h),
                      lapack_conditional_factor(m_obs, m_exp, lam, data))


@pytest.mark.parametrize("slope", [False, True])
@pytest.mark.parametrize("planted", [None, -50.0])
@pytest.mark.parametrize("scale", [0.0, 0.7, 40.0])
@pytest.mark.parametrize("family,link", [("binomial", "logit"),
                                         ("binomial", "cloglog"),
                                         ("poisson", "log")])
def test_scalar_grid_equals_the_matrix_form(family, link, scale, planted,
                                            slope):
    # the grid an exact sweep anchors; a strongly negative observed
    # curvature on one cluster puts the factor on the expected curvature,
    # except at lambda = 0, where H is I.  A random slope on a covariate
    # with zero entries gives rows of Z Lambda that are 0 or negative,
    # where a zero product could come out as -0
    data, spec, beta, _ = _gradient_case(family, link, 1, "unstructured")
    if slope:
        z = data.X[:, 1:2].copy()
        z[7::4] = 0.0
        data = GlmmData.from_arrays(data.y, data.X, z, data.cluster_index)
    lam = np.array([[scale]])
    solve = conditional_modes(beta, lam, data, spec, record=True)
    state, chols = solve.state, solve.cond_chol
    if planted is not None:
        m_obs = state.m_obs.copy()
        m_obs[:6] = planted
        chol_h, observed = estimation._factor_curvature(m_obs, state.m_exp,
                                                        lam, data)
        state = dataclasses.replace(state, m_obs=m_obs, observed=observed)
        chols = estimation._conditional_factor(chol_h)
    assert state.observed == (planted is None or scale == 0.0)
    for n_points in (1, 5):
        rule = gh_rule(n_points, 1)
        grid = estimation._adapted_grid(rule, solve.modes, chols)
        reference = matrix_adapted_grid(rule, solve.modes, chols)
        assert all(map(_same_bits, grid, reference))


@pytest.mark.parametrize("curvature", ["observed", "expected"])
@pytest.mark.parametrize("q,structure", [(1, "unstructured"),
                                         (2, "unstructured"), (2, "diagonal"),
                                         (3, "unstructured"), (3, "diagonal")])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_exact_anchor_terms_match_the_adjoint_form(family, link, q,
                                                   structure, curvature,
                                                   monkeypatch):
    # the exact gradient's anchor terms contract the nodes' motion; the
    # oracle pulls the sweep's node moments E[grad g] and E[grad g z'] back
    # through H^-1 instead.  "expected" plants a strongly negative observed
    # curvature, which puts the factor on the expected curvature: the one
    # check of the gradient's fallback there
    data, spec, beta, theta = _gradient_case(family, link, q, structure)
    lam = cov.theta_to_lambda(theta, q, structure)
    solve = conditional_modes(beta, lam, data, spec, record=True)
    state, chols = solve.state, solve.cond_chol
    if curvature == "expected":
        m_obs = state.m_obs.copy()
        m_obs[:6] = -50.0
        chol_h, observed = estimation._factor_curvature(m_obs, state.m_exp,
                                                        lam, data)
        state = dataclasses.replace(state, m_obs=m_obs, observed=observed)
        chols = estimation._conditional_factor(chol_h)
    assert state.observed == (curvature == "observed")
    positions = cov.free_positions(q, structure)
    # the second-order sweep hands every cluster's node weights and grad g
    # to one Hessian call; its scores are the first-order sweep's
    calls, hessian = [], estimation._anchored_hessian
    monkeypatch.setattr(estimation, "_anchored_hessian",
                        lambda *args: calls.append(args) or hessian(*args))
    monkeypatch.setattr(estimation, "_CLUSTER_NODES", 10 ** 9)
    worst = 0.0
    for n_points in (1, 3, 5):
        rule = gh_rule(n_points, q)
        args = (beta, lam, data, spec, solve.modes, chols, rule, positions)
        _, fixed = _quadrature_sweep(*args, state=state)
        _, exact, _, _ = _quadrature_sweep(*args, exact=True, second=True,
                                           state=state)
        (_, _, _, _, rho, _, _, _, _, grad_g, _), = calls
        calls.clear()
        adjoint = matrix_anchor_terms(
            lam, data, solve.modes, chols, positions, state,
            np.einsum("im,jim->ij", rho, grad_g),
            np.einsum("im,jim,mc->ijc", rho, grad_g, rule.nodes))
        worst = max(worst, np.max(np.abs(exact - fixed - adjoint))
                    / np.max(np.abs(adjoint)))
    # measured worst gap 1.1e-12 of the largest entry over these 40 cases
    assert worst <= 1e-10


@pytest.mark.parametrize("planted", [None, -50.0])
@pytest.mark.parametrize("scale", [0.0, 0.7, 40.0])
@pytest.mark.parametrize("family,link", [("binomial", "logit"),
                                         ("binomial", "cloglog"),
                                         ("poisson", "log")])
def test_scalar_anchor_motion_and_hessian_equal_the_matrix_forms(
        family, link, scale, planted, monkeypatch):
    # the second-order sweep's anchor motion and Hessian, on the observed
    # state and on the expected-curvature fallback, whole and in slices of
    # one cluster: the scalar forms give the matrix forms' bits
    data, spec, beta, _ = _gradient_case(family, link, 1, "unstructured")
    lam = np.array([[scale]])
    solve = conditional_modes(beta, lam, data, spec, record=True)
    state, chols = solve.state, solve.cond_chol
    if planted is not None:
        m_obs = state.m_obs.copy()
        m_obs[:6] = planted
        chol_h, observed = estimation._factor_curvature(m_obs, state.m_exp,
                                                        lam, data)
        state = dataclasses.replace(state, m_obs=m_obs, observed=observed)
        chols = estimation._conditional_factor(chol_h)
    assert state.observed == (planted is None or scale == 0.0)
    calls = []
    for name in ("_anchor_motion", "_anchored_hessian"):
        def recording(*args, _form=getattr(estimation, name), _name=name):
            out = _form(*args)
            calls.append((_name, args, out))
            return out

        monkeypatch.setattr(estimation, name, recording)
    replays = {"_anchor_motion": matrix_anchor_motion,
               "_anchored_hessian": matrix_anchored_hessian}
    for n_points in (1, 5, 7):
        for cluster_nodes in (1, 10 ** 9):
            monkeypatch.setattr(estimation, "_CLUSTER_NODES", cluster_nodes)
            _quadrature_sweep(beta, lam, data, spec, solve.modes, chols,
                              gh_rule(n_points, 1),
                              cov.free_positions(1, "unstructured"),
                              exact=True, second=True, state=state)
            assert len(calls) == (11 if cluster_nodes == 1 else 2)
            for name, args, out in calls:
                assert _same_bits(out, replays[name](*args))
            calls.clear()


@pytest.mark.parametrize("sizes", ["one entry", "default"])
@pytest.mark.parametrize("observed", [True, False])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("family,link", [("binomial", "logit"),
                                         ("binomial", "probit"),
                                         ("poisson", "log")])
def test_second_order_sweeps_keep_the_exact_loglik_and_scores(
        family, link, q, observed, sizes, monkeypatch):
    # a Newton trial sweeps first-order where the step is expected to
    # converge, and an accepted trial that misses sweeps its solve again
    # second-order: the two sweeps give the same log-likelihood and
    # gradient bit for bit, on the observed curvature and on the expected
    # fallback, in blocks of one (row, node) entry and one cluster node
    data, spec, beta, theta = _gradient_case(family, link, q, "unstructured")
    lam = cov.theta_to_lambda(theta, q)
    solve = conditional_modes(beta, lam, data, spec, record=True)
    state, chols = solve.state, solve.cond_chol
    if not observed:
        m_obs = state.m_obs.copy()
        m_obs[:6] = -50.0
        chol_h, fallback = estimation._factor_curvature(m_obs, state.m_exp,
                                                        lam, data)
        state = dataclasses.replace(state, m_obs=m_obs, observed=fallback)
        chols = estimation._conditional_factor(chol_h)
    assert state.observed == observed
    if sizes == "one entry":
        monkeypatch.setattr(estimation, "_BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(estimation, "_CLUSTER_NODES", 1)
    positions = cov.free_positions(q, "unstructured")
    for n_points in (1, 3):
        args = (beta, lam, data, spec, solve.modes, chols,
                gh_rule(n_points, q), positions)
        first = _quadrature_sweep(*args, exact=True, state=state)
        second = _quadrature_sweep(*args, exact=True, second=True,
                                   state=state)
        assert _same_bits(first[0], second[0])
        assert _same_bits(first[1], second[1])


# ---------------------------------------------------------------------------
# restarts and the stored log-likelihood


def _stalled_case(name):
    """Data on which L-BFGS-B stops ABNORMAL on every run from the same
    point: simulation-study replicates of the benchmark."""
    if name == "intercept":
        return make_glmm_data("binomial", n_clusters=50, cluster_size=5,
                              seed=2954524756).data
    d = make_glmm_data("binomial", beta=(0.3, 1.2), n_clusters=50,
                       cluster_size=6,
                       seed=1323039214 if name == "reduced"
                       else 2105280324).data
    if name == "full":
        return d
    return GlmmData.from_arrays(d.y, d.X[:, :1], d.Z, d.cluster_index,
                                x_names=d.x_names[:1])


def _without_newton(patch):
    """Patch ``fit`` to hand its start straight to L-BFGS-B."""
    patch.setattr(estimation, "_newton_phase",
                  lambda objective, x, diagonal: (x, "patched"))


@pytest.mark.parametrize("name,loglik", [("intercept", -154.0354530226),
                                         ("reduced", -203.4936542833),
                                         ("full", -170.4472428899)])
def test_last_restart_confirms_a_point_no_run_reported_converged(
        name, loglik, monkeypatch):
    # with L-BFGS-B alone neither run reports success: each line search
    # fails at the round-off floor.  The restart starts where the first
    # run stopped and gains nothing, which confirms the point; without a
    # restart the failed run stands.  The Newton steps reach the same
    # point in fewer evaluations.  Every fit starts at theta = 1, the
    # ones-diagonal start these runs stalled from.
    data = _stalled_case(name)
    start = [1.0]
    runs = []
    minimize = estimation.minimize

    def recording(*args, **kwargs):
        result = minimize(*args, **kwargs)
        runs.append(result)
        return result

    with monkeypatch.context() as patch:
        _without_newton(patch)
        patch.setattr(estimation, "minimize", recording)
        fitted = fit(data, "binomial",
                     control=FitControl(restarts=1, theta_start=start))
        assert len(runs) == 2
        assert not any(run.success for run in runs)
        assert abs(runs[0].fun - runs[1].fun) < 1e-6
        assert fitted.converged
        assert fitted.loglik == pytest.approx(loglik, abs=1e-9)
        assert fitted.grad_norm < 2e-6
        with pytest.raises(EstimationError, match="ABNORMAL") as info:
            fit(data, "binomial",
                control=FitControl(restarts=0, theta_start=start))
        assert info.value.best.loglik == pytest.approx(loglik, abs=1e-6)
    newton = fit(data, "binomial",
                 control=FitControl(restarts=1, theta_start=start))
    assert newton.converged
    assert newton.loglik == pytest.approx(loglik, abs=1e-9)
    assert newton.n_fev < fitted.n_fev


def test_loglik_is_swept_on_first_read_only(binom_fit, monkeypatch):
    # fit stores its last sweep's value; a rehydrated fit sweeps on the
    # first read, on its own rule, to the bits the eager sweep gave
    assert "loglik" in vars(binom_fit)
    assert "loglik" not in {f.name for f in dataclasses.fields(binom_fit)}
    calls = []
    sweep = estimation._quadrature_sweep

    def counting(*args, **kwargs):
        calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(estimation, "_quadrature_sweep", counting)
    again = load_fitted(binom_fit.beta, binom_fit.theta, binom_fit.data,
                        "binomial", n_points=5)
    assert calls == []
    eager = float(np.sum(sweep(
        again.beta, cov.theta_to_lambda(again.theta, 1), again.data,
        again.family, again.modes, again.cond_chol, gh_rule(5, 1))))
    assert again.loglik == eager
    assert again.loglik == eager
    assert len(calls) == 1
    moved = dataclasses.replace(again, beta=again.beta + 0.1)
    assert moved.loglik != again.loglik
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# Newton steps before L-BFGS-B: M >= 2, from an interior start


def _count_second_order_sweeps(monkeypatch):
    """Record each second-order sweep the fit objective runs."""
    calls = []
    sweep = estimation._quadrature_sweep

    def counting(*args, **kwargs):
        if kwargs.get("second"):
            calls.append(None)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(estimation, "_quadrature_sweep", counting)
    return calls


def _slope_data(family, link, seed):
    beta = (0.2, 0.8) if family == "binomial" else (0.5, 0.3)
    return make_glmm_data(family, link=link, beta=beta, random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=40,
                          cluster_size=10, seed=seed).data


def _q3_binary_data(link, seed):
    """Three random effects, on the intercept and both covariates."""
    rng = np.random.default_rng(seed)
    n_clusters, size = 60, 10
    n = n_clusters * size
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    cluster = np.repeat(np.arange(n_clusters), size)
    u = rng.standard_normal((n_clusters, 3)) * [0.8, 0.4, 0.3]
    eta = x @ [0.2, 0.5, -0.3] + np.einsum("nj,nj->n", x, u[cluster])
    y = rng.random(n) < family_spec("binomial", link).inverse_link(eta)
    return GlmmData.from_arrays(y.astype(float), x, x.copy(), cluster)


@pytest.mark.parametrize("case,family,link,structure,n_points", [
    ("slope", "binomial", "logit", "unstructured", 7),
    ("slope", "binomial", "probit", "unstructured", 5),
    ("slope", "poisson", "log", "unstructured", 5),
    ("slope", "binomial", "logit", "diagonal", 7),
    ("q3", "binomial", "probit", "unstructured", 3)])
def test_refit_from_the_laplace_fit_takes_newton_steps(
        case, family, link, structure, n_points, monkeypatch):
    # lme4's two stages: the Laplace fit, then a refit from it.  Newton
    # steps on the sweep's Hessian reach the optimum that L-BFGS-B alone
    # reaches from the default start, and the last Newton point is the
    # fit.  Every evaluation but the last sweeps second-order: the last
    # step is one the quadratic model expects to converge, and it does
    data = (_slope_data(family, link, 11) if case == "slope"
            else _q3_binary_data(link, 301))
    spec = family_spec(family, link)
    laplace = fit(data, spec, structure)
    second = _count_second_order_sweeps(monkeypatch)
    with monkeypatch.context() as patch:
        _without_newton(patch)
        reference = fit(data, spec, structure, FitControl(n_points=n_points))
    assert second == []
    refit = fit(data, spec, structure,
                FitControl(n_points=n_points, beta_start=laplace.beta,
                           theta_start=laplace.theta))
    assert refit.converged and not laplace.boundary
    assert len(second) == refit.n_fev - 1
    assert refit.n_fev <= 6 < reference.n_fev
    assert refit.loglik == pytest.approx(reference.loglik, rel=1e-9)
    np.testing.assert_allclose(refit.theta, reference.theta, rtol=0,
                               atol=1e-5)
    assert refit.loglik == float(np.sum(llcont(refit, n_points)))
    assert refit.grad_norm < 1e-5


@pytest.mark.parametrize("case", ["q = 1", "M = 1", "no start",
                                  "boundary start", "q = 3 boundary"])
def test_newton_steps_need_an_interior_start(case, binom_fit, monkeypatch):
    # from a start with a theta diagonal below _BOUNDARY_TOL, L-BFGS-B
    # runs alone; any other fit, at any q, on any rule (the Laplace one
    # too) and from the default start too, steps first and reaches the
    # optimum that L-BFGS-B alone reaches
    slope = _slope_data("binomial", "logit", 11)
    if case == "q = 1":
        data, control = binom_fit.data, FitControl(
            beta_start=binom_fit.beta, theta_start=binom_fit.theta)
    elif case == "M = 1":
        data, control = slope, FitControl(theta_start=[1.2, 0.1, 0.9])
    elif case == "no start":
        data, control = slope, FitControl(n_points=3)
    elif case == "boundary start":
        data, control = slope, FitControl(n_points=3,
                                          theta_start=[1.2, 0.1, 0.0])
    else:
        # the Laplace fit of this q = 3 dataset has a zero theta diagonal
        laplace = fit(_q3(), "binomial")
        assert laplace.boundary
        data, control = laplace.data, FitControl(
            n_points=3, beta_start=laplace.beta, theta_start=laplace.theta)
    second = _count_second_order_sweeps(monkeypatch)
    fitted = fit(data, "binomial", control=control)
    assert fitted.converged
    if case in ("boundary start", "q = 3 boundary"):
        assert second == []
        return
    assert len(second) > 0
    with monkeypatch.context() as patch:
        _without_newton(patch)
        reference = fit(data, "binomial", control=control)
    assert reference.converged
    assert fitted.loglik == pytest.approx(reference.loglik, rel=1e-9)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_laplace_fits_converge_in_newton_steps(seed, monkeypatch, caplog):
    # the default fit at q = 2 is the Laplace one; with the log-determinant
    # term its Newton steps converge in a few evaluations, where L-BFGS-B
    # alone takes about 14 over two runs, and reach the same optimum
    data = _slope_data("binomial", "logit", seed)
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        laplace = fit(data, "binomial")
    record = [r for r in caplog.records if r.name == "glmmkit"][-1]
    assert laplace.m_used == 1 and laplace.converged
    assert record.newton == "converged" and record.lbfgsb_runs == 0
    assert laplace.n_fev <= 8
    with monkeypatch.context() as patch:
        _without_newton(patch)
        reference = fit(data, "binomial")
    assert laplace.loglik == pytest.approx(reference.loglik, rel=1e-9)


def test_short_newton_steps_on_a_poisson_slope_still_converge(caplog):
    # from the default start the slope's theta entry sits at 0.072 against
    # an optimum near 1, and the objective grows much faster than
    # quadratically in it, so each Newton step moves it by about half.
    # Capped at 8, the steps run out and two L-BFGS-B runs take the fit
    # to 21 evaluations; with 16 they converge in 14
    data = make_glmm_data("poisson", beta=(1.5, 0.5), random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=40,
                          cluster_size=10, seed=104).data
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        fitted = fit(data, "poisson")
    record = [r for r in caplog.records if r.name == "glmmkit"][-1]
    assert fitted.converged
    assert record.newton == "converged" and record.lbfgsb_runs == 0
    assert fitted.n_fev < 21
    assert fitted.loglik == pytest.approx(-1047.4540115079958, rel=1e-9)


# each case of the Newton phase on f = (x - c)' A (x - c) / 2 from x =
# (0, 0.5), the second entry a theta diagonal: the centre c, the diagonal
# of A, the factor on A of the Hessian the objective returns, the steps
# allowed, and where the phase stops
_NEWTON_CASES = {
    "quadratic": ([1.0, 0.8], [2.0, 2.0], 1.0, 8, [1.0, 0.8]),
    "predicted": ([1.0, 0.8], [2.0, 2.0], 1.0 + 1e-4, 8, None),
    "missed": ([1.0, 0.8], [2.0, 2.0], 1.0 + 5e-3, 8, None),
    "crossing": ([1.0, -1.0], [2.0, 2.0], 1.0, 1, [1.0 / 6.0, 0.25]),
    "far crossing": ([1.0, -1000.0], [2.0, 2.0], 1.0, 1,
                     [0.25 / 1000.5, 0.25]),
    "indefinite": ([1.0, 0.0], [2.0, -1.0], 1.0, 1, [1.0, 1.0]),
    "growing": ([1.0, 1000.0], [2.0, 2.0], 1.0, 3, None),
    "shrinking": ([1.0, 1000.0], [2.0, 2.0], 1.0, 8, None),
}


@pytest.mark.parametrize("case,how", [
    ("quadratic", "converged"),        # one step, then the gradient is 0
    ("predicted", "converged"),        # the last trial sweeps first-order
    ("missed", "converged"),           # and one that misses sweeps again
    ("crossing", "step limit"),        # shortened to half the diagonal
    ("far crossing", "step limit"),    # the same, from 2,000 times as far
    ("indefinite", "step limit"),      # downhill on |eigenvalues|
    ("growing", "step limit"),         # r squares after shortened steps
    ("shrinking", "halvings exhausted"),   # and falls after a halving
    ("no Hessian", "no Hessian"),
    ("zero Hessian", "non-finite step"),
    ("misleading gradient", "halvings exhausted")])
def test_newton_phase_steps_or_hands_over(case, how, monkeypatch):
    # with A = diag(2, -1) the step on |eigenvalues| is Newton's along the
    # first axis and runs downhill, away from the saddle, along the second.
    # A Hessian (1 + e) A steps short by e / (1 + e): the gradient falls
    # e-fold per step, so the quadratic model g_k^3 / g_{k-1}^2 expects
    # convergence one step early, and at e = 5e-3 wrongly.  Above a wall
    # at theta = 40 the objective is infinite.
    calls, start = [], np.array([0.0, 0.5])
    if case in _NEWTON_CASES:
        center, curvature, factor, steps, stop_at = _NEWTON_CASES[case]
        a = np.diag(curvature)

        def objective(x, second=False):
            calls.append((x.copy(), second))
            gap = x - center
            f = np.inf if case == "shrinking" and x[1] > 40.0 else (
                0.5 * gap @ a @ gap)
            return (f, a @ gap, factor * a) if second else (f, a @ gap)
    else:
        # a missing or zero Hessian has no step; a gradient that misleads
        # gives a step that never lowers f
        hess = {"no Hessian": None, "zero Hessian": np.zeros((2, 2)),
                "misleading gradient": np.eye(2)}[case]
        steps, stop_at = 8, start

        def objective(x, second=False):
            calls.append((x.copy(), second))
            moved = float(not np.array_equal(x, start))
            gradient = np.array([1.0, 0.0])
            return (moved, gradient, hess) if second else (moved, gradient)
    monkeypatch.setattr(estimation, "_NEWTON_ITER", steps)
    stop, reason = estimation._newton_phase(objective, start, [1])
    assert reason == how
    thetas = [x[1] for x, _ in calls]
    second = [flag for _, flag in calls]
    if stop_at is not None:
        np.testing.assert_allclose(stop, stop_at, rtol=1e-15)
    if case in ("predicted", "missed"):
        assert np.max(np.abs(objective(stop)[1])) <= estimation._GTOL
        del calls[-1]
        # the missed step's trial is asked again for its Hessian
        assert second == ([True, True, False] if case == "predicted"
                          else [True, True, False, True, False])
        assert case == "predicted" or _same_bits(calls[2][0], calls[3][0])
    elif case == "growing":
        # each step is shortened to r = 2, 4, then 16 times theta
        np.testing.assert_allclose(thetas, [0.5, 1.0, 4.0, 64.0],
                                   rtol=1e-12)
        assert _same_bits(stop, calls[-1][0])
    elif case == "shrinking":
        # the step to 64 hits the wall and is halved once, to 34: r falls
        # from 16 to 4, so the next step tries 4 x 34 = 136, then halves
        np.testing.assert_allclose(thetas, [0.5, 1.0, 4.0, 64.0, 34.0,
                                            136.0, 85.0, 59.5, 46.75,
                                            40.375], rtol=1e-12)
        assert _same_bits(stop, calls[4][0])
    else:
        assert len(calls) == {"converged": 2, "step limit": 2,
                              "halvings exhausted":
                              2 + estimation._NEWTON_HALVINGS}.get(how, 1)
        assert all(second)
    if how == "step limit":
        assert stop[1] >= 0.5 * start[1]
        assert objective(stop)[0] < objective(start)[0]


@pytest.mark.parametrize("n_points,start,how", [(7, None, "converged"),
                                                (1, None, "converged"),
                                                (7, 0.0, "not run")])
def test_fit_logs_how_the_newton_phase_ended(binom_fit, caplog, monkeypatch,
                                             n_points, start, how):
    # one debug record per fit, none at the default level, and the same
    # fit either way.  The record counts the second-order sweeps, those
    # of them at an evaluated point, the mode solver's iterations and
    # step-halving trials, and the L-BFGS-B runs: none after converged
    # Newton steps, on the Laplace rule too, and two from a start on the
    # boundary, where no Newton step runs
    control = FitControl(n_points=n_points, restarts=1,
                         theta_start=None if start is None else [start])
    quiet = fit(binom_fit.data, "binomial", control=control)
    assert not [r for r in caplog.records if r.name == "glmmkit"]
    sweeps, solves, runs = [], [], []
    sweep, solve = estimation._quadrature_sweep, estimation.conditional_modes
    minimize = estimation.minimize

    def sweeping(*args, **kwargs):
        sweeps.append((kwargs.get("second", False), id(args[4])))
        return sweep(*args, **kwargs)

    def solving(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    def running(*args, **kwargs):
        runs.append(None)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(estimation, "_quadrature_sweep", sweeping)
    monkeypatch.setattr(estimation, "conditional_modes", solving)
    monkeypatch.setattr(estimation, "minimize", running)
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        loud = fit(binom_fit.data, "binomial", control=control)
    records = [r for r in caplog.records if r.name == "glmmkit"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.DEBUG
    assert record.newton == how and record.n_fev == loud.n_fev
    assert record.newton_fev == (0 if how == "not run" else loud.n_fev)
    assert record.lbfgsb_runs == len(runs) == (0 if how == "converged"
                                               else 2)
    assert len(solves) == loud.n_fev
    assert record.mode_iterations == sum(s.iterations for s in solves)
    assert record.mode_halvings == sum(s.halvings for s in solves)
    assert record.second_order == sum(second for second, _ in sweeps)
    assert record.resweeps == sum(
        second and (False, modes) in sweeps[:k]
        for k, (second, modes) in enumerate(sweeps))
    assert (record.second_order > 0) == (how == "converged")
    message = record.getMessage()
    assert f"({how})" in message
    assert (f"{record.second_order} second-order sweeps, "
            f"{record.resweeps} of them again") in message
    assert (f"{record.mode_iterations} mode-solver iterations, "
            f"{record.mode_halvings} step-halving") in message
    assert message.endswith(f"{record.lbfgsb_runs} L-BFGS-B runs")
    for name in ("beta", "theta", "modes", "cond_chol"):
        assert _same_bits(getattr(quiet, name), getattr(loud, name))
    assert (quiet.loglik, quiet.n_fev, quiet.grad_norm) == (
        loud.loglik, loud.n_fev, loud.grad_norm)


def test_newton_sweeps_count_against_the_budget(monkeypatch, caplog):
    data = _slope_data("binomial", "logit", 11)
    laplace = fit(data, "binomial")
    second = _count_second_order_sweeps(monkeypatch)
    with pytest.raises(EstimationError, match="within 2 evaluations") as info:
        fit(data, "binomial",
            control=FitControl(n_points=7, max_fev=2, beta_start=laplace.beta,
                               theta_start=laplace.theta))
    best = info.value.best
    assert len(second) == best.n_fev == 2
    assert not best.converged
    assert best.m_used == 7 and np.isfinite(best.loglik)
    # a simulation-study replicate whose third trial from theta = 1 is
    # swept first-order, is accepted and misses, and is swept again
    # second-order: the sweep again reuses that evaluation's mode solve
    # and spends no budget
    second.clear()
    solves = []
    solve = estimation.conditional_modes

    def counting(*args, **kwargs):
        solves.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(estimation, "conditional_modes", counting)
    data = make_glmm_data("binomial", n_clusters=50, cluster_size=5,
                          seed=2060229105).data
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        fitted = fit(data, "binomial",
                     control=FitControl(restarts=1, max_fev=5,
                                        theta_start=[1.0]))
    record = [r for r in caplog.records if r.name == "glmmkit"][-1]
    assert fitted.converged and record.newton == "converged"
    assert fitted.n_fev == len(solves) == 5
    assert record.resweeps == 1
    assert len(second) == record.second_order == 4


@pytest.mark.parametrize("name", ["intercept", "reduced"])
def test_newton_steps_near_theta_zero_converge(name, monkeypatch):
    # simulation-study replicates where theta's first Newton step
    # overshot, to 6.5e-4 from 1 (flat in theta there) and to 11.85 from
    # 0.199 (where the Hessian is indefinite).  Bounded to a ratio of
    # theta per step, the steps converge, and L-BFGS-B does not run.  Both
    # fits start at theta = 1, the ones-diagonal start that overshot
    if name == "intercept":
        data = make_glmm_data("binomial", n_clusters=50, cluster_size=5,
                              seed=4180573096).data
    else:
        d = make_glmm_data("binomial", beta=(0.3, 1.2), n_clusters=50,
                           cluster_size=6, seed=2385968761).data
        data = GlmmData.from_arrays(d.y, d.X[:, :1], d.Z, d.cluster_index,
                                    x_names=d.x_names[:1])
    control = FitControl(restarts=1, theta_start=[1.0])
    runs = []
    minimize = estimation.minimize

    def recording(*args, **kwargs):
        runs.append(None)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(estimation, "minimize", recording)
    with monkeypatch.context() as patch:
        _without_newton(patch)
        alone = fit(data, "binomial", control=control)
    assert alone.converged and len(runs) > 0
    runs.clear()
    newton = fit(data, "binomial", control=control)
    assert newton.converged and runs == []
    assert newton.loglik >= alone.loglik - 1e-9 * abs(alone.loglik)
    assert newton.n_fev < alone.n_fev


def test_a_laplace_fit_pinned_at_a_zero_diagonal_leaves_by_its_mirror(
        monkeypatch, caplog):
    # a benchmark-shape dataset whose Newton steps drive theta_1 toward 0
    # while the gradient still pushes it down: the optimum lies past the
    # bound, at the mirror image of a point with theta_1 > 0.  Handed over
    # as it is, L-BFGS-B stops at theta_1 = 0, 8e-5 below the fit of
    # L-BFGS-B alone; with the rest of Lambda's first column negated, the
    # mirror image, it goes on.  Both fits start at theta = (1, 0, 1),
    # the ones-diagonal start the steps were pinned from
    data = _slope_data("binomial", "logit", 1305363320)
    control = FitControl(theta_start=[1.0, 0.0, 1.0])
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        laplace = fit(data, "binomial", control=control)
    record = [r for r in caplog.records if r.name == "glmmkit"][-1]
    assert record.newton == "step limit" and record.lbfgsb_runs > 0
    with monkeypatch.context() as patch:
        _without_newton(patch)
        reference = fit(data, "binomial", control=control)
    assert laplace.loglik >= reference.loglik - 1e-9 * abs(reference.loglik)
    assert laplace.theta[1] < 0.0 and reference.theta[1] < 0.0


@pytest.mark.parametrize("q,structure,theta,grad,flipped", [
    (2, "unstructured", [1e-9, 0.3, 0.8], [0.0, 0.0, 1.0, 0.0, 0.0], True),
    (2, "unstructured", [0.0, 0.3, 0.8], [0.0, 0.0, 1.0, 0.0, 0.0], True),
    (2, "unstructured", [1e-9, 0.3, 0.8], [0.0, 0.0, -1.0, 0.0, 0.0], False),
    (2, "unstructured", [0.5, 0.3, 1e-9], [0.0, 0.0, 0.0, 0.0, 1.0], None),
    (2, "unstructured", [1e-9, 0.0, 0.8], [0.0, 0.0, 1.0, 0.0, 0.0], None),
    (2, "diagonal", [1e-9, 0.8], [0.0, 0.0, 1.0, 0.0], None),
    (1, "unstructured", [1e-9], [0.0, 0.0, 1.0], None)],
    ids=["pushed down", "at zero", "pushed up", "last column",
         "zero column", "diagonal", "q = 1"])
def test_only_columns_with_another_nonzero_entry_are_mirrored(
        q, structure, theta, grad, flipped):
    # a column whose other entries are all zero enters through its
    # diagonal's square: its mirror image is no help, and without such a
    # column the gradient is not even read
    calls = []

    def objective(x):
        calls.append(x)
        return 0.0, np.array(grad)

    x = np.concatenate([[0.2, 0.5], theta])
    out = estimation._mirror_pinned_columns(objective, x, 2, q, structure)
    assert len(calls) == (flipped is not None)
    expected = x.copy()
    if flipped:
        expected[3] *= -1.0
    assert _same_bits(out, expected)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_two_stage_fit_is_no_worse_than_the_default_start(seed):
    # from a Laplace fit with a zero theta diagonal no Newton step runs,
    # and L-BFGS-B cannot leave that entry: the log-likelihood depends on
    # it through its square, so its derivative there is zero
    data = make_glmm_data("binomial", beta=(0.2, 0.8), random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=25,
                          cluster_size=8, seed=seed).data
    laplace = fit(data, "binomial")
    assume(not laplace.boundary)
    refit = fit(data, "binomial",
                control=FitControl(n_points=3, beta_start=laplace.beta,
                                   theta_start=laplace.theta))
    default = fit(data, "binomial", control=FitControl(n_points=3))
    assert refit.loglik >= (default.loglik
                            - 1e-6 * max(1.0, abs(default.loglik)))


@pytest.mark.parametrize("family,link", [("binomial", "logit"),
                                         ("binomial", "probit"),
                                         ("poisson", "log")])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), n_points=st.sampled_from([3, 5, 7]))
def test_newton_fit_is_no_worse_than_lbfgsb_alone(family, link, seed,
                                                  n_points):
    # at q = 1 every fit on two or more points steps first
    beta = (0.2, 0.8) if family == "binomial" else (0.5, 0.3)
    data = make_glmm_data(family, link=link, beta=beta, n_clusters=30,
                          cluster_size=5, seed=seed).data
    control = FitControl(n_points=n_points, restarts=1)
    newton = fit(data, family_spec(family, link), control=control)
    with pytest.MonkeyPatch.context() as patch:
        _without_newton(patch)
        alone = fit(data, family_spec(family, link), control=control)
    assert newton.loglik >= (alone.loglik
                             - 1e-6 * max(1.0, abs(alone.loglik)))


# ---------------------------------------------------------------------------
# the default start: a method-of-moments theta


def _moment_case(family, link, q, seed=5):
    """Data on 40 clusters of 1 to 8 rows, with q random effects on the
    intercept and the first q - 1 of two covariates."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 9, size=40)
    cluster = np.repeat(np.arange(sizes.size), sizes)
    x = np.column_stack([np.ones(cluster.size),
                         rng.standard_normal((cluster.size, 2))])
    lam = cov.theta_to_lambda([0.8, 0.2, -0.1, 0.6, 0.1, 0.5][
        :cov.theta_length(q)], q)
    u = rng.standard_normal((sizes.size, q)) @ lam.T
    spec = family_spec(family, link)
    mu = spec.inverse_link(x @ [0.2, 0.5, -0.4]
                           + np.einsum("nj,nj->n", x[:, :q], u[cluster]))
    y = (rng.random(mu.size) < mu if family == "binomial"
         else rng.poisson(mu)).astype(float)
    return GlmmData.from_arrays(y, x, x[:, :q], cluster), spec


@pytest.mark.parametrize("structure", ["unstructured", "diagonal"])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"), ("binomial", "cloglog"),
    ("poisson", "log")])
def test_moment_start_matches_the_loop_over_pairs(family, link, q,
                                                   structure):
    # the segment sums of per-row products give the normal equations the
    # explicit loop over pairs j != k builds; clusters of one row have no
    # pair.  Compared relative to the largest entry of theta
    data, spec = _moment_case(family, link, q)
    beta = estimation._glm_start(data, spec)
    got = estimation._moment_start(beta, data, spec, structure)
    want = moment_theta_pairs(beta, data, family, link, structure)
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("family", ["binomial", "poisson"])
def test_default_start_is_the_moment_start(family):
    data, spec = _moment_case(family, None, 1)
    beta = estimation._glm_start(data, spec)
    start = estimation._moment_start(beta, data, spec, "unstructured")
    assert start[0] != 1.0
    default = fit(data, spec)
    given = fit(data, spec, control=FitControl(theta_start=start))
    assert default.n_fev == given.n_fev
    for name in ("beta", "theta", "modes", "cond_chol"):
        assert _same_bits(getattr(default, name), getattr(given, name))


@pytest.mark.parametrize("q,structure,ones", [(1, "unstructured", [1.0]),
                                              (2, "unstructured",
                                               [1.0, 0.0, 1.0]),
                                              (2, "diagonal", [1.0, 1.0])])
def test_moment_start_without_pairs_is_the_ones_diagonal(q, structure, ones):
    # clusters of one row give no pair, so nothing estimates G
    sim = make_glmm_data("binomial", beta=(0.5, -0.8),
                         random="intercept" if q == 1 else "slope",
                         n_clusters=60, cluster_size=1, seed=3)
    spec = family_spec("binomial")
    beta = estimation._glm_start(sim.data, spec)
    assert _same_bits(estimation._moment_start(beta, sim.data, spec,
                                               structure), ones)


def test_moment_start_at_a_far_off_beta_is_the_ones_diagonal():
    # Poisson means near exp(800) overflow the normal equations: the start
    # falls back, without a warning
    data = make_glmm_data("poisson", beta=(0.5, 0.3), n_clusters=20,
                          cluster_size=5, seed=1).data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        start = estimation._moment_start(np.array([800.0, 0.0]), data,
                                         family_spec("poisson"),
                                         "unstructured")
    assert _same_bits(start, [1.0])


def test_moment_start_of_separated_clusters_is_finite_and_the_fit_warns():
    # every cluster's response constant: the fit still warns that the
    # likelihood has no finite maximum in theta
    d = make_glmm_data("binomial", n_clusters=50, cluster_size=6,
                       seed=5).data
    data = GlmmData.from_arrays((d.cluster_index % 2).astype(float), d.X,
                                d.Z, d.cluster_index)
    spec = family_spec("binomial")
    start = estimation._moment_start(estimation._glm_start(data, spec), data,
                                     spec, "unstructured")
    assert np.isfinite(start).all() and start[0] >= 0.05
    with pytest.warns(UserWarning, match="no finite maximum in theta"):
        fit(data, spec)


def _reordered(data, rows_seed, clusters_seed):
    """``data`` with its rows shuffled within clusters and its clusters
    put in another order; ``from_arrays`` regroups them in order of first
    appearance."""
    order = np.random.default_rng(clusters_seed).permutation(
        data.n_clusters)
    rng = np.random.default_rng(rows_seed)
    rows = np.concatenate([
        data.offsets[i] + rng.permutation(data.offsets[i + 1]
                                          - data.offsets[i])
        for i in order])
    return GlmmData.from_arrays(data.y[rows], data.X[rows], data.Z[rows],
                                data.cluster_index[rows])


@settings(max_examples=20, deadline=None)
@given(case=st.sampled_from([("binomial", "logit", 1),
                             ("binomial", "probit", 2), ("poisson", "log", 2),
                             ("binomial", "cloglog", 3)]),
       structure=st.sampled_from(["unstructured", "diagonal"]),
       rows_seed=st.integers(0, 10_000), clusters_seed=st.integers(0, 10_000))
def test_moment_start_ignores_row_and_cluster_order(case, structure,
                                                    rows_seed,
                                                    clusters_seed):
    family, link, q = case
    data, spec = _moment_case(family, link, q)
    beta = estimation._glm_start(data, spec)
    start = estimation._moment_start(beta, data, spec, structure)
    again = estimation._moment_start(
        beta, _reordered(data, rows_seed, clusters_seed), spec, structure)
    np.testing.assert_allclose(again, start, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(start)))


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from([("binomial", "logit", 1),
                             ("binomial", "probit", 1),
                             ("binomial", "logit", 2), ("poisson", "log", 2),
                             ("binomial", "cloglog", 3), ("poisson", "log", 3)]),
       structure=st.sampled_from(["unstructured", "diagonal"]),
       seed=st.integers(0, 10_000))
def test_every_moment_start_has_its_diagonal_at_least_005(case, structure,
                                                          seed):
    # G's eigenvalues are floored at 0.05^2, so every diagonal entry of its
    # Cholesky factor is at least 0.05, up to round-off in the factor
    family, link, q = case
    data, spec = _moment_case(family, link, q, seed)
    start = estimation._moment_start(estimation._glm_start(data, spec), data,
                                     spec, structure)
    diagonal = start[estimation._theta_diagonal(q, structure)]
    assert np.all(diagonal >= 0.05 * (1.0 - 1e-12))


@pytest.mark.parametrize("name", ["intercept", "reduced", "full"])
def test_moment_start_saves_evaluations_on_the_stalled_cases(name):
    # the simulation-study replicates on which L-BFGS-B alone stalls: from
    # the moment start the fit reaches the ones-diagonal start's optimum
    # in fewer evaluations
    data = _stalled_case(name)
    old = fit(data, "binomial",
              control=FitControl(restarts=1, theta_start=[1.0]))
    new = fit(data, "binomial", control=FitControl(restarts=1))
    assert new.converged
    assert new.loglik >= old.loglik - 1e-9 * abs(old.loglik)
    assert new.n_fev < old.n_fev


def test_overflowing_mode_trials_are_halved_without_a_warning():
    # a Poisson random-slope fit whose mode solves try steps far enough
    # out that their objective's sums overflow: the halving rejects those
    # trials, silently, and the fit is the one it is with warnings ignored
    data = make_glmm_data("poisson", beta=(1.0, 0.3), random="slope",
                          theta=(0.8, 0.3, 0.6), n_clusters=40,
                          cluster_size=10, seed=103).data
    control = FitControl(theta_start=[1.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fitted = fit(data, "poisson", control=control)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        lax = fit(data, "poisson", control=control)
    assert fitted.converged
    assert fitted.loglik == pytest.approx(-899.2248815950697, rel=1e-12)
    assert fitted.loglik == lax.loglik and fitted.n_fev == lax.n_fev


def test_a_singular_mode_step_fails_the_evaluation_not_the_fit():
    # a Poisson random-slope fit whose mode solve meets a curvature that
    # LAPACK finds singular (entries near 1e39): the evaluation fails, the
    # Newton steps halve, and the fit converges
    data = make_glmm_data("poisson", beta=(1.5, 0.5), random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=40,
                          cluster_size=10, seed=9).data
    fitted = fit(data, "poisson", control=FitControl(
        theta_start=[0.824, 0.00376, 0.27191]))
    assert fitted.converged and np.isfinite(fitted.loglik)


def _failing_moment_start():
    # the mode solve at this Poisson fit's moment start fails (its largest
    # count is 131,745)
    data = make_glmm_data("poisson", beta=(1.5, 0.5), random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=40,
                          cluster_size=10, seed=103).data
    family = estimation.as_family_spec("poisson")
    return data, estimation._moment_start(
        estimation._glm_start(data, family), data, family, "unstructured")


def test_a_fit_with_no_finite_evaluation_says_so(monkeypatch):
    # every mode solve of this Poisson fit from the moment start, given as
    # theta_start, fails, so there is no point to finalize: the error says
    # so, with no fit attached, and chains the mode solver's
    data, start = _failing_moment_start()

    def no_resolve(*args, **kwargs):
        raise AssertionError("finalized a fit with no finite evaluation")

    monkeypatch.setattr(estimation, "_finalize", no_resolve)
    with pytest.raises(EstimationError, match="no evaluation of the "
                       "objective succeeded") as info:
        fit(data, "poisson", control=FitControl(theta_start=start))
    assert info.value.best is None
    assert isinstance(info.value.__cause__, EstimationError)
    assert "conditional mode search" in str(info.value.__cause__)


def test_a_failed_moment_start_falls_back_to_the_ones_diagonal(caplog):
    # by default the same fit starts again from the ones diagonal, and is
    # the fit from there but for the failed evaluation
    data, start = _failing_moment_start()
    assert not np.array_equal(start, [1.0, 0.0, 1.0])
    with caplog.at_level(logging.DEBUG, logger="glmmkit"):
        fitted = fit(data, "poisson")
    record = [r for r in caplog.records if r.name == "glmmkit"][-1]
    assert record.fallbacks == 1 and record.n_fev == fitted.n_fev
    ones = fit(data, "poisson", control=FitControl(
        theta_start=[1.0, 0.0, 1.0]))
    assert fitted.converged and fitted.n_fev == ones.n_fev + 1
    assert fitted.loglik == ones.loglik
    assert np.array_equal(fitted.theta, ones.theta)
    assert np.array_equal(fitted.beta, ones.beta)


@pytest.mark.parametrize("bad", [None, 5])
def test_a_singular_mode_step_is_an_estimation_error(bad, monkeypatch):
    # a zero curvature fails the Newton step; the error names a cluster
    # whose curvature is not finite where there is one
    data = make_glmm_data("binomial", n_clusters=10, cluster_size=4,
                          seed=1).data
    curvature = estimation._penalized_curvature

    def singular(weight, lam, data):
        hess = curvature(weight, lam, data)
        hess[0] = 0.0
        if bad is not None:
            hess[bad] = np.inf
        return hess

    monkeypatch.setattr(estimation, "_penalized_curvature", singular)
    with pytest.raises(EstimationError, match="singular curvature") as info:
        conditional_modes(np.zeros(2), np.eye(1), data, "binomial")
    named = f"at cluster {data.cluster_ids[5]!r}" in str(info.value)
    assert named == (bad is not None)
