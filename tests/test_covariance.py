"""Relative covariance factor: parameterizations and chain rules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmmkit.covariance as cov
from glmmkit import ConfigError, theta_length, theta_to_lambda, lambda_to_G
from oracles import fd_gradient


def test_theta_length():
    assert theta_length(1) == 1
    assert theta_length(2) == 3
    assert theta_length(3) == 6
    assert theta_length(3, "diagonal") == 3


def test_theta_to_lambda_unstructured():
    lam = theta_to_lambda([0.7, 0.2, 0.4], 2)
    np.testing.assert_allclose(lam, [[0.7, 0.0], [0.2, 0.4]])


def test_theta_to_lambda_diagonal():
    lam = theta_to_lambda([0.7, 0.4], 2, "diagonal")
    np.testing.assert_allclose(lam, np.diag([0.7, 0.4]))


def test_lambda_to_G_is_lam_lam_t():
    lam = theta_to_lambda([0.7, 0.2, 0.4], 2)
    np.testing.assert_allclose(lambda_to_G(lam), lam @ lam.T, rtol=1e-15)


def test_theta_reads_back_at_the_free_positions():
    theta = np.array([1.3, -0.2, 0.8])
    lam = theta_to_lambda(theta, 2)
    np.testing.assert_array_equal(
        [lam[i, j] for i, j in cov.free_positions(2, "unstructured")], theta)


def test_wrong_theta_length_raises():
    with pytest.raises(ConfigError):
        theta_to_lambda([0.7, 0.2], 2)
    with pytest.raises(ConfigError):
        theta_to_lambda([0.7, 0.2, 0.4], 2, "diagonal")


def test_free_positions_column_major_lower_triangle():
    assert cov.free_positions(2, "unstructured") == [(0, 0), (1, 0), (1, 1)]
    assert cov.free_positions(3, "diagonal") == [(0, 0), (1, 1), (2, 2)]


def test_dG_dtheta_jacobian_matches_finite_difference():
    # jacobian rows follow the var-scale ordering: variances first, then
    # the covariances, matching the labels the reparameterization emits
    theta = np.array([0.9, -0.3, 0.5])
    jac = cov.dG_dtheta_jacobian(theta_to_lambda(theta, 2))
    rows = cov.var_positions(2, "unstructured")

    for col in range(theta.size):
        def g_vec(t, col=col):
            shifted = theta.copy()
            shifted[col] = t
            g = lambda_to_G(theta_to_lambda(shifted, 2))
            return np.array([g[a, b] for (a, b) in rows])

        h = 1e-7
        fd = (g_vec(theta[col] + h) - g_vec(theta[col] - h)) / (2 * h)
        np.testing.assert_allclose(jac[:, col], fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("target", ["var", "sd"])
def test_theta_chain_maps_q1_scores(target):
    # q = 1: var = lam^2 and sd = |lam|, so the chain rule has the closed
    # forms s_var = s_theta / (2 lam) and s_sd = s_theta (lam > 0)
    lam = np.array([[0.8]])
    s_theta = np.array([[2.0], [-0.6], [0.1]])
    out = s_theta @ cov.theta_chain(lam, target)[0]
    expect = s_theta / (2 * 0.8) if target == "var" else s_theta
    np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_theta_chain_maps_q2_var_scores_as_differences():
    # numeric check of d theta / d (var-scale parameters): build the
    # composite map var(theta) and verify s_var = s_theta J^{-1}
    theta = np.array([0.9, -0.3, 0.5])
    lam = theta_to_lambda(theta, 2)

    def var_params(th):
        g = lambda_to_G(theta_to_lambda(th, 2))
        return np.array([g[0, 0], g[1, 1], g[1, 0]])

    jac = np.column_stack([fd_gradient(lambda t: var_params(t)[r], theta,
                                       h=1e-6) for r in range(3)]).T
    s_theta = np.array([[1.0, 2.0, -3.0]])
    expect = s_theta @ np.linalg.inv(jac)
    out = s_theta @ cov.theta_chain(lam, "var")[0]
    np.testing.assert_allclose(out, expect, rtol=1e-7, atol=1e-10)


def test_theta_chain_on_the_theta_scale_is_the_identity():
    jac, second = cov.theta_chain(theta_to_lambda([0.9, -0.3, 0.5], 2),
                                  "theta")
    np.testing.assert_array_equal(jac, np.eye(3))
    np.testing.assert_array_equal(second, 0.0)


def test_parameter_labels_on_each_scale():
    names = ["(Intercept)", "x1"]
    assert cov.labels(2, "unstructured", names, "theta") == [
        "chol[(Intercept),(Intercept)]", "chol[x1,(Intercept)]", "chol[x1,x1]"]
    assert cov.labels(2, "unstructured", names, "var") == [
        "var[(Intercept)]", "var[x1]", "cov[x1,(Intercept)]"]
    assert cov.labels(2, "unstructured", names, "sd") == [
        "sd[(Intercept)]", "sd[x1]", "cor[x1,(Intercept)]"]
    assert cov.labels(2, "diagonal", names, "var") == [
        "var[(Intercept)]", "var[x1]"]


def test_validate_parameterization():
    cov.validate_parameterization("var")
    with pytest.raises(ConfigError):
        cov.validate_parameterization("variance")


def _from_g(g, structure):
    """theta read off the Cholesky factor of G at its free positions."""
    lam = np.linalg.cholesky(g)
    return np.array([lam[i, j]
                     for i, j in cov.free_positions(len(g), structure)])


def _theta_of(v, q, structure, target):
    """theta from var- or sd-scale parameters, by a Cholesky of G."""
    G = np.zeros((q, q))
    positions = cov.var_positions(q, structure)
    sd = np.sqrt(v[:q]) if target == "var" else v[:q]
    G[np.diag_indices(q)] = sd ** 2
    for value, (i, j) in zip(v[q:], positions[q:]):
        G[i, j] = G[j, i] = value if target == "var" else value * sd[i] * sd[j]
    return _from_g(G, structure)


@pytest.mark.parametrize("target", ["var", "sd"])
@pytest.mark.parametrize("theta,structure", [
    ([0.9, -0.3, 0.5], "unstructured"), ([0.9, 0.5], "diagonal"),
    ([0.5, 0.1, -0.2, 0.4, 0.05, 0.3], "unstructured")])
def test_theta_chain_matches_differences_of_the_cholesky_map(theta, structure,
                                                             target):
    q = 2 if len(theta) < 6 else 3
    lam = theta_to_lambda(theta, q, structure)
    G = lambda_to_G(lam)
    positions = cov.var_positions(q, structure)
    sd = np.sqrt(np.diag(G))
    v0 = np.array([G[i, j] if target == "var" or i == j else
                   G[i, j] / (sd[i] * sd[j]) for i, j in positions])
    if target == "sd":
        v0[:q] = sd
    def jac_at(v):
        lam_v = theta_to_lambda(_theta_of(v, q, structure, target), q,
                                structure)
        return cov.theta_chain(lam_v, target, structure)[0]

    # jac against differences of the independent map, second against
    # differences of jac
    jac, second = cov.theta_chain(lam, target, structure)
    h = 1e-5
    steps = np.eye(len(theta)) * h
    fd_jac = np.stack([(_theta_of(v0 + e, q, structure, target)
                        - _theta_of(v0 - e, q, structure, target)) / (2 * h)
                       for e in steps], axis=-1)
    np.testing.assert_allclose(jac, fd_jac, rtol=1e-8, atol=1e-9)
    fd_second = np.stack([(jac_at(v0 + e) - jac_at(v0 - e)) / (2 * h)
                          for e in steps], axis=-1)
    np.testing.assert_allclose(second, fd_second, rtol=1e-6, atol=1e-8)


def test_sd_scale_scores_include_the_correlation_cross_terms():
    # d G_21 / d sigma_1 = rho sigma_2 is not zero, so the sd-scale score of
    # sigma_1 takes a share of the covariance score; check s_sd = s_theta J
    # with J from differences of theta in (sigma_1, sigma_2, rho)
    lam = theta_to_lambda([0.9, -0.3, 0.5], 2)
    G = lambda_to_G(lam)
    sd = np.sqrt(np.diag(G))
    v0 = np.array([sd[0], sd[1], G[1, 0] / (sd[0] * sd[1])])
    jac = np.column_stack([
        fd_gradient(lambda v: _theta_of(v, 2, "unstructured", "sd")[t], v0)
        for t in range(3)]).T
    s_theta = np.array([[1.0, 2.0, -3.0]])
    np.testing.assert_allclose(
        s_theta @ cov.theta_chain(lam, "sd")[0], s_theta @ jac,
        rtol=1e-7, atol=1e-10)


# theta -> var -> theta and theta -> sd -> theta, the var scale read back
# through a Cholesky factor.  Over 20,000 random draws in the box below
# the worst gap, relative to max(1, |theta|), was 5.4e-13, and 6.5e-12 at
# its corners (diagonal 0.05, off-diagonal +-2, q = 3), where the factor
# is worst conditioned; the tolerance sits 15x above that.
_ROUND_TRIP_RTOL = 1e-10


@st.composite
def thetas(draw):
    q = draw(st.integers(1, 3))
    structure = draw(st.sampled_from(["unstructured", "diagonal"]))
    theta = [draw(st.floats(0.05, 3.0)) if i == j
             else draw(st.floats(-2.0, 2.0))
             for i, j in cov.free_positions(q, structure)]
    return np.array(theta), q, structure


@settings(max_examples=50, deadline=None)
@given(thetas())
def test_theta_var_sd_round_trip(case):
    theta, q, structure = case
    g = lambda_to_G(theta_to_lambda(theta, q, structure))
    positions = cov.var_positions(q, structure)
    var = [g[i, j] for i, j in positions]
    sd = np.sqrt(np.diag(g))
    sd_scale = [sd[i] if i == j else g[i, j] / (sd[i] * sd[j])
                for i, j in positions]
    from_var = np.zeros((q, q))
    from_sd = np.zeros((q, q))
    for v, s, (i, j) in zip(var, sd_scale, positions):
        from_var[i, j] = from_var[j, i] = v
        from_sd[i, j] = from_sd[j, i] = (s * s if i == j
                                         else s * sd[i] * sd[j])
    scale = np.maximum(1.0, np.abs(theta))
    for back in (_from_g(from_var, structure), _from_g(from_sd, structure)):
        assert np.all(np.abs(back - theta) <= _ROUND_TRIP_RTOL * scale)
