"""Model comparison tests: variance, non-nested z, nested chi-square mix."""

import numpy as np
import pytest
from scipy import stats as sps

from glmmkit import (ConfigError, DegenerateError, FitControl, GlmmData,
                     SingularityError, family_spec, fit, llcont, load_fitted,
                     make_glmm_data, vuong_lr_test, vuong_variance_test)
from glmmkit import derivatives
from glmmkit._nulls import _TAIL_EPS
from oracles import mixture_tail_reference, mixture_tail_simulated


@pytest.fixture(scope="module")
def model_pair():
    """Full model, its intercept-only reduction, and a non-nested rival."""
    sim = make_glmm_data("binomial", beta=(0.3, 1.4), n_clusters=50,
                         cluster_size=8, seed=404)
    d = sim.data
    reduced = GlmmData.from_arrays(d.y, d.X[:, :1], d.Z, d.cluster_index,
                                   x_names=d.x_names[:1])
    rng = np.random.default_rng(7)
    rival_x = np.column_stack([np.ones(d.y.shape[0]),
                               rng.standard_normal(d.y.shape[0])])
    rival = GlmmData.from_arrays(d.y, rival_x, d.Z, d.cluster_index,
                                 x_names=("(Intercept)", "w1"))
    control = FitControl(restarts=1)
    return (fit(d, "binomial", control=control),
            fit(reduced, "binomial", control=control),
            fit(rival, "binomial", control=control))


def test_identical_models_are_exactly_indistinguishable(model_pair):
    full, _, _ = model_pair
    result = vuong_variance_test(full, full, seed=2, n_sim=1000)
    assert result.test == "variance"
    assert result.omega2 == 0.0
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.variance_p_value == 1.0


@pytest.mark.parametrize("parameterization", ["var", "theta"])
def test_identical_models_have_no_mixture_weights(model_pair,
                                                  parameterization):
    # W = [[B A^-1, B A^-1], [-B A^-1, -B A^-1]] is nilpotent, so its exact
    # spectrum is zero; the eigensolver returns noise near 1e-8, above an
    # absolute 1e-10 cut but far below the matrix's scale
    full, _, _ = model_pair
    result = vuong_variance_test(full, full, seed=2, n_sim=1000,
                                 parameterization=parameterization)
    assert result.weights.size == 0
    assert result.p_value == 1.0


def test_variance_test_separates_distinct_models(model_pair):
    full, reduced, _ = model_pair
    result = vuong_variance_test(full, reduced, seed=1, n_sim=100000)
    assert result.omega2 > 0.0
    assert result.statistic == pytest.approx(50 * result.omega2)
    assert result.p_value < 0.01
    assert result.weights.size > 0
    assert result.p_a is None and result.p_b is None


def test_nested_statistic_is_twice_loglik_gap(model_pair):
    full, reduced, _ = model_pair
    result = vuong_lr_test(full, reduced, nested=True, seed=1, n_sim=100000)
    assert result.test == "nested"
    gap = llcont(full, 5).sum() - llcont(reduced, 5).sum()
    assert result.statistic == pytest.approx(2.0 * gap, rel=1e-12)
    # the x1 effect is large, so the reduction should be firmly rejected
    assert result.p_value < 0.001
    assert result.variance_p_value < 0.01


def test_non_nested_directional_p_values(model_pair):
    full, _, rival = model_pair
    result = vuong_lr_test(full, rival, seed=3, n_sim=50000)
    assert result.test == "non-nested"
    assert result.p_value is None
    # model 1 contains the real covariate, so it should win decisively
    assert result.statistic > 2.0
    assert result.p_a == pytest.approx(sps.norm.sf(result.statistic))
    assert result.p_b == pytest.approx(sps.norm.cdf(result.statistic))
    assert result.p_a + result.p_b == pytest.approx(1.0)
    assert result.p_a < 0.01


@pytest.mark.parametrize("first,second", [(0, 2), (2, 0), (1, 2), (2, 1)])
def test_directional_p_values_are_scipy_stats_normal_tails(model_pair, first,
                                                           second):
    # ndtr at -z and z is what norm.sf and norm.cdf compute, bit for bit
    result = vuong_lr_test(model_pair[first], model_pair[second])
    assert result.p_a == float(sps.norm.sf(result.statistic))
    assert result.p_b == float(sps.norm.cdf(result.statistic))


def test_non_nested_zero_variance_is_degenerate(model_pair):
    full, _, _ = model_pair
    with pytest.raises(DegenerateError):
        vuong_lr_test(full, full, seed=4)


def test_seed_is_optional_and_ignored(model_pair):
    full, reduced, _ = model_pair
    assert (vuong_variance_test(full, reduced).p_value
            == vuong_variance_test(full, reduced, seed=-2).p_value)
    assert (vuong_lr_test(full, reduced, nested=True).p_value
            == vuong_lr_test(full, reduced, nested=True, seed=-2).p_value)


@pytest.mark.parametrize("n_sim", [0, -3, 1.5, True])
@pytest.mark.parametrize("test", ["variance", "nested", "non-nested"])
def test_bad_n_sim_is_a_config_error(model_pair, n_sim, test):
    full, reduced, _ = model_pair
    with pytest.raises(ConfigError, match="n_sim"):
        if test == "variance":
            vuong_variance_test(full, reduced, n_sim=n_sim)
        else:
            vuong_lr_test(full, reduced, nested=test == "nested", n_sim=n_sim)


@pytest.mark.parametrize("k,n_sim", [(1, 70_001), (3, 2000), (7, 50_001),
                                     (40, 3333)])
def test_mixture_tail_matches_the_reference_draw_for_draw(k, n_sim):
    # the chunked simulator the tails used to call, now an oracle: two
    # tails in a row from one generator also check that each call
    # consumes n_sim * k normals
    weights = np.random.default_rng(k).standard_normal(k)
    for value in (0.5, 3.0, 9.0):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for w in (np.square(weights), weights):
            assert (mixture_tail_simulated(w, value, ours, n_sim)
                    == mixture_tail_reference(w, value, theirs, n_sim))


def test_mismatched_clustering_rejected(model_pair, binom_fit):
    full, _, _ = model_pair
    with pytest.raises(ConfigError):
        vuong_variance_test(full, binom_fit, seed=1)


def test_mismatched_response_rejected(model_pair):
    full, _, _ = model_pair
    d = full.data
    flipped = d.y.copy()
    flipped[0] = 1.0 - flipped[0]
    other = GlmmData.from_arrays(flipped, d.X, d.Z, d.cluster_index,
                                 x_names=d.x_names)
    rigged = load_fitted(full.beta, full.theta, other,
                         family_spec("binomial"))
    with pytest.raises(ConfigError):
        vuong_variance_test(full, rigged, seed=1)


def test_seeded_reproducibility(model_pair):
    full, reduced, _ = model_pair
    a = vuong_lr_test(full, reduced, nested=True, seed=11, n_sim=20000)
    b = vuong_lr_test(full, reduced, nested=True, seed=11, n_sim=20000)
    assert a.p_value == b.p_value
    assert a.variance_p_value == b.variance_p_value
    np.testing.assert_array_equal(a.weights, b.weights)


def test_p_values_report_their_error_bound(model_pair):
    # the mixture tails are exact: their error bound, whatever n_sim is
    full, reduced, rival = model_pair
    variance = vuong_variance_test(full, reduced, seed=1, n_sim=4000)
    assert variance.variance_p_value_se == variance.p_value_se == _TAIL_EPS
    assert variance.n_sim == 4000
    # the normal p-values of the non-nested test are exact
    non_nested = vuong_lr_test(full, rival, seed=1, n_sim=4000)
    assert non_nested.p_value_se == 0.0
    assert non_nested.variance_p_value_se == _TAIL_EPS
    # seed and n_sim change nothing
    again = vuong_lr_test(full, rival, seed=2, n_sim=7)
    assert again.variance_p_value == non_nested.variance_p_value
    # so is the tail of a mixture with no weights
    identical = vuong_variance_test(full, full, seed=2, n_sim=1000)
    assert identical.weights.size == 0
    assert identical.variance_p_value_se == identical.p_value_se == 0.0


def test_nested_p_value_of_zero_reports_its_bound():
    # a strong omitted covariate on 300 clusters of 10 rows, both models
    # rehydrated at the generating values: a Chernoff bound on the tail is
    # below the error bound, so the exact p-value is 0 within it
    sim = make_glmm_data("binomial", beta=(0.3, 0.8, -0.4), n_clusters=300,
                         cluster_size=10, seed=5)
    d = sim.data
    reduced = GlmmData.from_arrays(d.y, d.X[:, :2], d.Z, d.cluster_index,
                                   x_names=d.x_names[:2])
    full_fit = load_fitted(sim.beta, sim.theta, d, "binomial")
    reduced_fit = load_fitted(sim.beta[:2], sim.theta, reduced, "binomial")
    result = vuong_lr_test(full_fit, reduced_fit, nested=True, seed=3,
                           n_sim=2000)
    assert result.p_value == 0.0
    assert result.p_value_se == _TAIL_EPS
    # the bound holds: the largest weight alone leaves a tail below it
    assert sps.chi2.sf(result.statistic / result.weights.max(),
                       result.weights.size) < _TAIL_EPS


def test_differences_come_from_the_hessian_sweeps(model_pair, monkeypatch):
    # two sweeps in all, one per model, and their per-cluster
    # log-likelihoods are llcont's bit for bit
    full, reduced, _ = model_pair
    expect = llcont(full, 3) - llcont(reduced, 3)
    calls = []
    sweep = derivatives._quadrature_sweep

    def counting(*args, **kwargs):
        calls.append(kwargs.get("second", False))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(derivatives, "_quadrature_sweep", counting)
    result = vuong_lr_test(full, reduced, nested=True, n_points=3, seed=1,
                           parameterization="theta")
    assert calls == [True, True]
    assert result.omega2 == float(np.var(expect))
    assert result.statistic == 2.0 * float(expect.sum())


def test_errors_keep_their_order(model_pair, binom_fit):
    # n_sim, then the clustering, then the degenerate
    # non-nested statistic, then the scale and the boundary
    full, reduced, _ = model_pair
    d = full.data
    on_bound = load_fitted(full.beta, [0.0], d, family_spec("binomial"))
    assert on_bound.boundary
    with pytest.raises(ConfigError, match="n_sim"):
        vuong_lr_test(full, binom_fit, n_sim=0, parameterization="nope")
    with pytest.raises(ConfigError, match="identical clustered dataset"):
        vuong_lr_test(full, binom_fit, seed=1, parameterization="nope")
    with pytest.raises(DegenerateError) as info:
        vuong_lr_test(on_bound, on_bound, seed=1, parameterization="nope")
    diff, omega2 = info.value.differences
    assert omega2 == 0.0 and not diff.any()
    with pytest.raises(ConfigError, match="unknown parameterization"):
        vuong_lr_test(on_bound, full, nested=True, seed=1,
                      parameterization="nope")
    with pytest.raises(ConfigError, match="unknown parameterization"):
        vuong_variance_test(full, reduced, seed=1, parameterization="nope")
    for first, second in ((on_bound, full), (full, on_bound)):
        with pytest.raises(SingularityError):
            vuong_lr_test(first, second, nested=True, seed=1)
        with pytest.raises(SingularityError):
            vuong_variance_test(first, second, seed=1, parameterization="sd")
    result = vuong_variance_test(on_bound, full, seed=1,
                                 parameterization="theta")
    assert result.omega2 > 0.0
