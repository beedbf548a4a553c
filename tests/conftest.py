"""Shared fixtures: a few fitted models reused across test modules.

Session scope runs each fit once for the whole test session.
"""

import pytest

from glmmkit import FitControl, fit, make_glmm_data


@pytest.fixture(scope="session")
def binom_fit():
    sim = make_glmm_data("binomial", n_clusters=40, cluster_size=6, seed=101)
    return fit(sim.data, "binomial", control=FitControl(restarts=1))


@pytest.fixture(scope="session")
def poisson_fit():
    sim = make_glmm_data("poisson", beta=(0.4, 0.3), theta=(0.6,),
                         n_clusters=30, cluster_size=5, seed=202)
    return fit(sim.data, "poisson", control=FitControl(restarts=1))


@pytest.fixture(scope="session")
def slope_fit():
    sim = make_glmm_data("binomial", random="slope", n_clusters=60,
                         cluster_size=10, seed=303)
    return fit(sim.data, "binomial", control=FitControl(restarts=1))
