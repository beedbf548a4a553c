"""Gauss-Hermite rules and the mode-anchored adaptive transform.

Closed-form node/weight values below are hand-derived from the Hermite
polynomial roots on the standard-normal kernel (probabilists'
convention: nodes are the physicists' roots times sqrt(2), weights sum
to one).  numpy's hermgauss is used as an independent cross-check of the
Golub-Welsch implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.stats import norm

from glmmkit import ConfigError, gh_rule
from glmmkit.quadrature import _adapted_grid, _tensor_rule


def test_one_point_rule():
    rule = gh_rule(1)
    np.testing.assert_allclose(rule.nodes, [[0.0]])
    np.testing.assert_allclose(rule.weights, [1.0])


def test_two_point_rule():
    rule = gh_rule(2)
    np.testing.assert_allclose(rule.nodes.ravel(), [-1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)


def test_three_point_rule():
    rule = gh_rule(3)
    root = math.sqrt(3.0)
    np.testing.assert_allclose(rule.nodes.ravel(), [-root, 0.0, root],
                               rtol=1e-14, atol=1e-15)
    np.testing.assert_allclose(rule.weights, [1 / 6, 2 / 3, 1 / 6],
                               rtol=1e-14)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13, 20, 25])
def test_rule_matches_numpy_hermgauss(m):
    rule = gh_rule(m)
    x, w = np.polynomial.hermite.hermgauss(m)
    np.testing.assert_allclose(rule.nodes.ravel(), x * math.sqrt(2.0),
                               rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(rule.weights, w / math.sqrt(math.pi),
                               rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("m", range(1, 26))
def test_weights_sum_to_one_and_nodes_symmetric(m):
    rule = gh_rule(m)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    np.testing.assert_allclose(rule.nodes.ravel(),
                               -rule.nodes.ravel()[::-1], atol=1e-15)
    np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-14)


def test_tensor_rule_shapes_and_products():
    rule = gh_rule(3, 2)
    assert rule.nodes.shape == (9, 2)
    assert rule.weights.shape == (9,)
    assert abs(rule.weights.sum() - 1.0) < 1e-13
    # corner weight is the product of two univariate edge weights
    np.testing.assert_allclose(rule.weights[0], (1 / 6) ** 2, rtol=1e-13)


def test_rule_bounds_validated():
    with pytest.raises(ConfigError):
        gh_rule(0)
    with pytest.raises(ConfigError):
        gh_rule(26)
    with pytest.raises(ConfigError, match="integer"):
        gh_rule(2.7)    # not truncated to 2
    with pytest.raises(ConfigError):
        gh_rule(3, 0)
    with pytest.raises(ConfigError):
        gh_rule(3, 4)


@pytest.mark.parametrize("m,d", [(1, 1), (7, 1), (5, 2), (3, 3)])
def test_rules_are_built_once_and_stay_read_only(m, d):
    # a shared rule is the same object on every call, equal bit for bit
    # to a fresh build, and nobody can write into it
    rule = gh_rule(m, d)
    assert gh_rule(np.int64(m), d) is rule
    fresh = _tensor_rule.__wrapped__(m, d)
    assert fresh is not rule
    for name in ("nodes", "weights"):
        shared, built = getattr(rule, name), getattr(fresh, name)
        assert shared.shape == built.shape
        assert shared.tobytes() == built.tobytes()
        assert not shared.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0
    with pytest.raises(ConfigError, match="integer"):
        gh_rule(float(m), d)    # a cached count does not let a float in


# ---------------------------------------------------------------------------
# adapted rules: _adapted_grid, the one kernel the sweeps integrate on


def _one_cluster(m, center, chol):
    """``_adapted_grid`` for a single cluster: its log weights (M**d,) and
    node locations (M**d, d)."""
    center = np.atleast_1d(np.asarray(center, dtype=float))
    chol = np.atleast_2d(np.asarray(chol, dtype=float))
    log_w, locations = _adapted_grid(gh_rule(m, center.size), center[None],
                                     chol[None])
    return log_w[0], locations[:, 0].T


def test_adapted_weight_single_node_closed_form():
    # one node at the anchor: w* = det(C) exp(-||a||^2 / 2) for the
    # identity prior; a = 1, C = 2 gives 2 exp(-1/2)
    log_w, locations = _one_cluster(1, 1.0, 2.0)
    np.testing.assert_allclose(locations, [[1.0]])
    np.testing.assert_allclose(np.exp(log_w), [2.0 * math.exp(-0.5)],
                               rtol=1e-14)


def test_adapted_weights_three_node_hand_values():
    # log w* = log w + log C + ||x||^2/2 - ||a + Cx||^2/2, computed by
    # hand for a = 1, C = 2 at the M = 3 nodes {-sqrt(3), 0, sqrt(3)}
    log_w, locations = _one_cluster(3, 1.0, 2.0)
    root = math.sqrt(3.0)
    locs = np.array([1.0 - 2 * root, 1.0, 1.0 + 2 * root])
    np.testing.assert_allclose(locations.ravel(), locs, rtol=1e-14)
    expected = np.array([
        math.log(1 / 6) + math.log(2) + 1.5 - 0.5 * locs[0] ** 2,
        math.log(2 / 3) + math.log(2) + 0.0 - 0.5,
        math.log(1 / 6) + math.log(2) + 1.5 - 0.5 * locs[2] ** 2,
    ])
    np.testing.assert_allclose(log_w, expected, rtol=1e-13)


def test_exponential_integrand_exact_at_one_node():
    # the integrand exp(c u) has penalized mode c with unit curvature, so
    # the anchored rule is exact for every M down to a single node:
    # integral exp(c u) phi(u) du = exp(c^2 / 2)
    c = 1.3
    expect = math.exp(c * c / 2.0)
    for m in (1, 2, 5, 9):
        log_w, locations = _one_cluster(m, c, 1.0)
        value = np.sum(np.exp(log_w) * np.exp(c * locations[:, 0]))
        np.testing.assert_allclose(value, expect, rtol=1e-13)


def test_gaussian_conditional_exact_at_one_node():
    # normal conditional times normal prior: anchoring at the exact
    # posterior mode and curvature makes the rule exact at M = 1, and the
    # marginal mass has the two-normal closed form
    m_f, s_f = 0.7, 0.5
    precision = 1.0 + 1.0 / s_f ** 2
    mode = (m_f / s_f ** 2) / precision
    expect = norm.pdf(m_f, 0.0, math.sqrt(1.0 + s_f ** 2))
    for m in (1, 3):
        log_w, locations = _one_cluster(m, mode, precision ** -0.5)
        value = np.sum(np.exp(log_w) * norm.pdf(locations[:, 0], m_f, s_f))
        np.testing.assert_allclose(value, expect, rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(q=st.integers(1, 3), m=st.integers(1, 5),
       anchor=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       diagonal=st.lists(st.floats(0.3, 2.0), min_size=3, max_size=3),
       lower=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
def test_anchored_rule_integrates_a_normal_density_ratio_exactly(
        q, m, anchor, diagonal, lower):
    # f = phi(u; b, CC') / phi(u; 0, I) integrates to one against the
    # N(0, I) prior, and on the grid anchored at b with factor C every
    # node's w* f(a*) is that node's base weight: the sum is exact at any
    # M.  The densities are taken through C itself; scipy's logpdf
    # factors CC' again and loses 1e-12 where C is ill-conditioned.
    center = np.array(anchor[:q])
    chol = np.diag(diagonal[:q])
    chol[np.tril_indices(q, -1)] = lower[:q * (q - 1) // 2]
    log_w, locations = _one_cluster(m, center, chol)
    z = solve_triangular(chol, (locations - center).T, lower=True)
    log_ratio = (0.5 * np.sum(locations ** 2, axis=1)
                 - 0.5 * np.sum(z ** 2, axis=0)
                 - np.sum(np.log(np.diag(chol))))
    assert abs(np.sum(np.exp(log_w + log_ratio)) - 1.0) <= 1e-12


def test_monomial_exactness_light():
    # degree <= 2M - 1 Gaussian moments are exact; first even degree
    # beyond is not (the rule has teeth).  Full sweep lives in the
    # acceptance suite.
    for m in (1, 2, 4):
        rule = gh_rule(m)
        x, w = rule.nodes.ravel(), rule.weights
        for k in range(2 * m):
            moment = 0.0 if k % 2 else math.prod(range(k - 1, 0, -2))
            np.testing.assert_allclose(np.sum(w * x ** k), moment,
                                       rtol=1e-12, atol=1e-13)
        k_fail = 2 * m
        exact = math.prod(range(k_fail - 1, 0, -2))
        assert abs(np.sum(w * x ** k_fail) - exact) > 1e-6
