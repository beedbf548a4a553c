"""Invariants of the per-cluster quantities at fixed parameters.

The marginal likelihood factorizes over clusters and each cluster's
integrand is a product over its rows, so the row order inside a cluster
cannot matter, and a copy of every cluster must add exactly its own
contribution again: to the log-likelihood, the scores and the Hessian.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glmmkit import (GlmmData, estfun, gradient, hessian, llcont, load_fitted,
                     make_glmm_data)

# Over 100 drawn models the worst gap was 1.0e-13 for a row permutation
# and 3.9e-16 for duplication, relative to the scales used below.
_RTOL = 1e-12

models = st.fixed_dictionaries({
    "family": st.sampled_from(["binomial", "poisson"]),
    "random": st.sampled_from(["intercept", "slope"]),
    "n_clusters": st.integers(3, 12),
    "cluster_size": st.integers(1, 6),
    "seed": st.integers(0, 2**16),
})


def _simulate(spec):
    theta = (0.7,) if spec["random"] == "intercept" else (0.7, 0.2, 0.4)
    beta = (0.3, -0.4) if spec["family"] == "poisson" else (0.5, -0.8)
    return make_glmm_data(spec["family"], beta=beta, theta=theta,
                          random=spec["random"],
                          n_clusters=spec["n_clusters"],
                          cluster_size=spec["cluster_size"],
                          seed=spec["seed"])


def _quantities(sim, family, data):
    fitted = load_fitted(sim.beta, sim.theta, data, family)
    loglik = load_fitted(sim.beta, sim.theta, data, family, n_points=5).loglik
    return loglik, llcont(fitted), estfun(fitted).values


def _close(actual, expected, scale, rtol=_RTOL):
    """Equal to ``rtol`` relative to ``scale`` (a sum of magnitudes)."""
    gap = np.abs(np.asarray(actual) - expected)
    assert np.all(gap <= rtol * np.asarray(scale)), np.max(gap / scale)


def _doubled(d):
    """The data with a copy of every cluster appended."""
    n = d.n_clusters
    doubled = GlmmData.from_arrays(
        np.concatenate([d.y, d.y]), np.vstack([d.X, d.X]),
        np.vstack([d.Z, d.Z]),
        np.concatenate([d.cluster_index, d.cluster_index + n]))
    assert doubled.n_clusters == 2 * n
    return doubled


@settings(max_examples=10, deadline=None)
@given(spec=models, perm_seed=st.integers(0, 2**16))
# a score entry of 5.1e-4 whose round-off was 1.5e-12 of itself
@example(spec={"family": "poisson", "random": "slope", "n_clusters": 10,
               "cluster_size": 6, "seed": 6}, perm_seed=1)
def test_permuting_rows_within_clusters_changes_nothing(spec, perm_seed):
    sim = _simulate(spec)
    d = sim.data
    rng = np.random.default_rng(perm_seed)
    perm = np.concatenate([rng.permutation(np.arange(lo, hi))
                           for lo, hi in zip(d.offsets[:-1], d.offsets[1:])])
    shuffled = GlmmData.from_arrays(d.y[perm], d.X[perm], d.Z[perm],
                                    d.cluster_index[perm])
    np.testing.assert_array_equal(shuffled.offsets, d.offsets)

    loglik, ll, scores = _quantities(sim, spec["family"], d)
    loglik_p, ll_p, scores_p = _quantities(sim, spec["family"], shuffled)
    _close(loglik_p, loglik, abs(loglik))
    _close(ll_p, ll, np.abs(ll))
    # a score entry can sit near zero while its summands do not, so its
    # round-off is measured against its column's summed magnitudes
    _close(scores_p, scores, np.abs(scores).sum(axis=0))


@settings(max_examples=10, deadline=None)
@given(spec=models)
def test_duplicating_every_cluster_doubles_scores_and_loglik(spec):
    sim = _simulate(spec)
    d = sim.data
    doubled = _doubled(d)

    loglik, ll, scores = _quantities(sim, spec["family"], d)
    loglik_2, ll_2, scores_2 = _quantities(sim, spec["family"], doubled)
    _close(loglik_2, 2.0 * loglik, 2.0 * abs(loglik))
    _close(ll_2.sum(), 2.0 * ll.sum(), 2.0 * np.abs(ll).sum())
    _close(scores_2.sum(axis=0), 2.0 * scores.sum(axis=0),
           2.0 * np.abs(scores).sum(axis=0))


@settings(max_examples=10, deadline=None)
@given(spec=models)
def test_duplicating_every_cluster_doubles_gradient_and_hessian(spec):
    # the gradient to 1e-10 of the summed score magnitudes, the Hessian to
    # 1e-10 of its largest entry, on the theta and var scales; over 100
    # drawn models the worst gaps were 2.9e-16 and 5.1e-15
    sim = _simulate(spec)
    once, twice = (load_fitted(sim.beta, sim.theta, data, spec["family"])
                   for data in (sim.data, _doubled(sim.data)))
    for parameterization in ("theta", "var"):
        magnitude = np.abs(estfun(once, parameterization).values).sum(axis=0)
        _close(gradient(twice, parameterization),
               2.0 * gradient(once, parameterization), 2.0 * magnitude,
               rtol=1e-10)
        h_once = hessian(once, parameterization).values
        _close(hessian(twice, parameterization).values, 2.0 * h_once,
               2.0 * np.max(np.abs(h_once)), rtol=1e-10)
