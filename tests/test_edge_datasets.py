"""Edge datasets through the whole chain: fit, llcont, estfun, hessian and
sctest.

Each must give a finite, consistent answer (llcont sums to the fit's
log-likelihood) or a typed GlmmKitError, never a meaningless number.
Known limit: when every cluster is separated (all 0 or all 1) the fit
stops at a large finite theta that the quadrature's own maximum puts
there; it warns that the likelihood has no finite maximum in theta.
"""

import warnings

import numpy as np
import pytest

from glmmkit import (FitControl, GlmmData, GlmmKitError, estfun, fit,
                     hessian, llcont, make_glmm_data, sctest)


def _keep_one_row_in_even_clusters(data):
    keep = np.ones(data.n_obs, dtype=bool)
    for cluster in range(0, data.n_clusters, 2):
        keep[np.flatnonzero(data.cluster_index == cluster)[1:]] = False
    return GlmmData.from_arrays(data.y[keep], data.X[keep], data.Z[keep],
                                data.cluster_index[keep],
                                x_names=data.x_names)


def _size_one(family):
    beta = (0.3, -0.4) if family == "poisson" else (0.5, -0.8)
    return make_glmm_data(family, beta=beta, n_clusters=60, cluster_size=1,
                          seed=3).data


def _mixed_sizes(family):
    beta = (0.3, -0.4) if family == "poisson" else (0.5, -0.8)
    sim = make_glmm_data(family, beta=beta, n_clusters=40, cluster_size=4,
                         seed=4)
    return _keep_one_row_in_even_clusters(sim.data)


def _separated():
    # ten of fifty clusters answer all 0 or all 1
    d = make_glmm_data("binomial", n_clusters=50, cluster_size=6,
                       seed=5).data
    y = d.y.copy()
    for cluster in range(10):
        y[d.cluster_index == cluster] = float(cluster % 2)
    return GlmmData.from_arrays(y, d.X, d.Z, d.cluster_index,
                                x_names=d.x_names)


def _q3():
    rng = np.random.default_rng(6)
    n_clusters, size = 80, 12
    n = n_clusters * size
    x = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    cluster = np.repeat(np.arange(n_clusters), size)
    u = rng.standard_normal((n_clusters, 3)) * [0.8, 0.4, 0.3]
    eta = x @ [0.2, 0.5, -0.3] + np.einsum("nj,nj->n", x, u[cluster])
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    names = ["(Intercept)", "x1", "x2"]
    return GlmmData.from_arrays(y, x, x.copy(), cluster, x_names=names,
                                z_names=names)


def _large_poisson_means():
    # means near exp(6) = 400 counts per row
    return make_glmm_data("poisson", beta=(6.0, 0.3), n_clusters=40,
                          cluster_size=5, seed=7).data


def _failing_moment_start():
    # the mode solve at the moment start fails; the fit falls back to the
    # ones diagonal
    return make_glmm_data("poisson", beta=(1.5, 0.5), random="slope",
                          theta=(1.0, 0.0, 1.0), n_clusters=40,
                          cluster_size=10, seed=103).data


CASES = {
    "binomial clusters of size 1": ("binomial", lambda: _size_one("binomial")),
    "poisson clusters of size 1": ("poisson", lambda: _size_one("poisson")),
    "binomial mixed sizes": ("binomial", lambda: _mixed_sizes("binomial")),
    "poisson mixed sizes": ("poisson", lambda: _mixed_sizes("poisson")),
    "separated clusters": ("binomial", _separated),
    "q = 3": ("binomial", _q3),
    "poisson large means": ("poisson", _large_poisson_means),
    "poisson slope, failed moment start": ("poisson", _failing_moment_start),
}


@pytest.mark.parametrize("case", list(CASES))
def test_edge_dataset_is_consistent_or_a_typed_error(case):
    family, make = CASES[case]
    data = make()
    try:
        fitted = fit(data, family, control=FitControl(restarts=1))
        contributions = llcont(fitted, fitted.m_used)
        scores = estfun(fitted, "theta")
        hess = hessian(fitted, "theta")
        ordering = np.random.default_rng(0).standard_normal(data.n_clusters)
        result = sctest(fitted, ordering, scores=scores, seed=1, n_sim=200)
    except GlmmKitError:
        return
    assert np.isfinite(fitted.loglik)
    assert np.all(np.isfinite(fitted.theta)) and np.all(np.isfinite(
        fitted.beta))
    assert abs(contributions.sum() - fitted.loglik) <= 1e-9 * max(
        1.0, abs(fitted.loglik))
    assert np.all(np.isfinite(scores.values))
    assert np.all(np.isfinite(hess.values))
    assert np.isfinite(result.statistic)
    assert 0.0 <= result.p_value <= 1.0


def _every_cluster_separated():
    # every cluster answers its own parity: all 0 or all 1
    d = make_glmm_data("binomial", n_clusters=50, cluster_size=6,
                       seed=5).data
    y = (d.cluster_index % 2).astype(float)
    return GlmmData.from_arrays(y, d.X, d.Z, d.cluster_index,
                                x_names=d.x_names)


def test_fit_warns_when_every_cluster_is_separated():
    with pytest.warns(UserWarning, match="no finite maximum in theta"):
        fitted = fit(_every_cluster_separated(), "binomial",
                     control=FitControl(restarts=1))
    assert fitted.theta[0] > 100.0


@pytest.mark.parametrize("case", ["separated clusters",
                                  "binomial clusters of size 1",
                                  "binomial mixed sizes"])
def test_fit_does_not_warn_while_some_cluster_varies(case):
    # ten of fifty clusters separated; clusters of one row, which are
    # constant whatever the model; one-row and four-row clusters mixed
    family, make = CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit(make(), family, control=FitControl(restarts=1))
    assert not [w for w in caught if "no finite maximum" in str(w.message)]
