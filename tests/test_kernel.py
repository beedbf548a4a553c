"""The shared quadrature kernel behind loglik, llcont, estfun, the fit
objective and the Hessian: its node blocking must not change any number,
and relabelling clusters only reorders its per-cluster rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glmmkit.estimation as estimation
from glmmkit import (GlmmData, estfun, family_spec, llcont, load_fitted,
                     make_glmm_data, theta_to_lambda)
from glmmkit.covariance import free_positions
from glmmkit.quadrature import gh_rule

FAMILIES = [("binomial", "logit"), ("binomial", "probit"), ("poisson", "log")]


def _q3_fit(family, link, seed=31):
    """Random intercept and two random slopes on 20 clusters of 8 rows."""
    rng = np.random.default_rng(seed)
    n_cl, size = 20, 8
    x = np.column_stack([np.ones(n_cl * size),
                         rng.standard_normal((n_cl * size, 2))])
    theta = np.array([0.5, 0.1, 0.0, 0.4, 0.05, 0.3])
    beta = np.array([0.2, 0.5, -0.4])
    spec = family_spec(family, link)
    cluster = np.repeat(np.arange(n_cl), size)
    u = rng.standard_normal((n_cl, 3)) @ theta_to_lambda(theta, 3).T
    mu = spec.inverse_link(x @ beta + np.einsum("nj,nj->n", x, u[cluster]))
    y = (rng.random(mu.size) < mu if family == "binomial"
         else rng.poisson(mu)).astype(float)
    data = GlmmData.from_arrays(y, x, x, cluster)
    return load_fitted(beta, theta, data, spec)


def _fit(family, link, q):
    if q == 3:
        return _q3_fit(family, link)
    sim = make_glmm_data(family, link=link, n_clusters=25, cluster_size=6,
                         random="intercept" if q == 1 else "slope", seed=17)
    return load_fitted(sim.beta, sim.theta, sim.data,
                       family_spec(family, link))


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("family,link", FAMILIES)
def test_block_size_changes_no_result(family, link, q, monkeypatch):
    # llcont, estfun and the fit objective's exact sweep
    fitted = _fit(family, link, q)
    positions = free_positions(q, fitted.structure)
    results = []
    for budget in (1, 10 ** 9):     # one node per block; all in one block
        monkeypatch.setattr(estimation, "_BLOCK_ELEMENTS", budget)
        exact = estimation._quadrature_sweep(
            fitted.beta, fitted.lambda_matrix, fitted.data, fitted.family,
            fitted.modes, fitted.cond_chol, gh_rule(5, q), positions,
            exact=True)
        results.append((llcont(fitted, 5),
                        estfun(fitted, "theta", n_points=5).values, *exact))
    for one, whole in zip(*results):
        np.testing.assert_array_equal(one, whole)


def _relabelled(sim, order):
    """The same clusters with rows regrouped so cluster ``order[k]`` comes
    k-th, which is the order GlmmData codes them in."""
    d = sim.data
    rows = np.concatenate([np.arange(d.offsets[c], d.offsets[c + 1])
                           for c in order])
    labels = np.asarray(d.cluster_ids)[d.cluster_index[rows]]
    return GlmmData.from_arrays(d.y[rows], d.X[rows], d.Z[rows], labels,
                                x_names=d.x_names, z_names=d.z_names)


_PERM_SIM = make_glmm_data("binomial", random="slope", n_clusters=12,
                           cluster_size=5, seed=8)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(12)))
def test_relabelling_clusters_permutes_rows_only(order):
    sim = _PERM_SIM
    base = load_fitted(sim.beta, sim.theta, sim.data, "binomial",
                       n_points=5)
    moved = load_fitted(sim.beta, sim.theta, _relabelled(sim, order),
                        "binomial", n_points=5)
    assert moved.data.cluster_ids == tuple(base.data.cluster_ids[c]
                                           for c in order)
    np.testing.assert_allclose(moved.loglik, base.loglik, rtol=1e-12)
    np.testing.assert_allclose(llcont(moved), llcont(base)[list(order)],
                               rtol=1e-12, atol=1e-12)
    a, b = estfun(moved, "var"), estfun(base, "var")
    assert a.labels == b.labels
    np.testing.assert_allclose(a.values, b.values[list(order)],
                               rtol=1e-10, atol=1e-12)
