"""Cumulative score process and parameter-instability tests.

The two small path examples are worked by hand: with centered scores S
and B the outer product of the centered columns, the path visits
B^{-1/2} times the partial sums, pinned to zero at both ends.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.special import kolmogorov
from scipy.stats import chi2

from glmmkit import (ConfigError, DegenerateError, SingularityError, estfun,
                     cumulative_score_process, sctest)
from glmmkit._nulls import (_DM_TOL, _LM_TOL, _TAIL_EPS, _critical_value,
                            _cvm_p_value, _lm_p_value)
from glmmkit.stability import _lm_window, _ordering_groups
from oracles import bridge_null_reference


def test_two_cluster_hand_example():
    # scores (1, -1): B = 2, so the midpoint is 1/sqrt(2)
    path = cumulative_score_process(np.array([[1.0], [-1.0]]),
                                    np.array([0.0, 1.0]))
    np.testing.assert_allclose(path.t, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(path.values.ravel(),
                               [0.0, 1.0 / np.sqrt(2.0), 0.0], rtol=1e-14)


def test_four_cluster_hand_example_dm_is_one():
    # scores (-1, -1, 1, 1): partial sums (-1, -2, -1, 0), B = 4, so the
    # decorrelated path is (-1/2, -1, -1/2, 0) and max |path| = 1
    scores = np.array([[-1.0], [-1.0], [1.0], [1.0]])
    path = cumulative_score_process(scores, np.arange(4.0))
    np.testing.assert_allclose(path.values.ravel(),
                               [0.0, -0.5, -1.0, -0.5, 0.0], rtol=1e-14)
    assert np.max(np.abs(path.values)) == pytest.approx(1.0, rel=1e-14)


def test_endpoint_exactly_zero_even_with_score_drift():
    # a nonzero column mean (optimizer residual) must not leak into the
    # endpoint: columns are centered before accumulation
    rng = np.random.default_rng(8)
    scores = rng.standard_normal((30, 3)) + 0.37
    path = cumulative_score_process(scores, rng.standard_normal(30))
    np.testing.assert_allclose(path.values[0], 0.0, atol=0.0)
    np.testing.assert_allclose(path.values[-1], 0.0, atol=1e-8)
    assert path.t[0] == 0.0 and path.t[-1] == 1.0


def test_reversed_ordering_reverses_increments():
    rng = np.random.default_rng(12)
    scores = rng.standard_normal((20, 2))
    order = np.arange(20.0)
    fwd = cumulative_score_process(scores, order)
    rev = cumulative_score_process(scores, -order)
    np.testing.assert_allclose(np.diff(rev.values, axis=0),
                               np.diff(fwd.values, axis=0)[::-1],
                               rtol=1e-10, atol=1e-12)


def test_ties_group_into_single_steps():
    scores = np.array([[1.0], [2.0], [-1.5], [-0.5], [-1.0]])
    ordering = np.array([3.0, 1.0, 1.0, 2.0, 5.0])
    path = cumulative_score_process(scores, ordering)
    # groups: {1.0: 2 clusters}, {2.0: 1}, {3.0: 1}, {5.0: 1}
    np.testing.assert_allclose(path.t, [0.0, 0.4, 0.6, 0.8, 1.0])
    np.testing.assert_allclose(path.order_values, [1.0, 2.0, 3.0, 5.0])
    np.testing.assert_array_equal(path.counts, [2, 1, 1, 1])


def test_identity_b_matrix_gives_plain_cumsums():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal((10, 2))
    ordering = np.arange(10.0)
    path = cumulative_score_process(scores, ordering, b_matrix=np.eye(2))
    centered = scores - scores.mean(axis=0)
    np.testing.assert_allclose(path.values[1:], np.cumsum(centered, axis=0),
                               rtol=1e-12, atol=1e-14)


def test_zero_scores_are_singular_for_the_raw_process():
    with pytest.raises(SingularityError):
        cumulative_score_process(np.zeros((6, 2)), np.arange(6.0))


def test_ordering_validation():
    scores = np.array([[1.0], [-2.0], [0.5], [0.5]])
    with pytest.raises(ConfigError):
        cumulative_score_process(scores, np.arange(3.0))
    with pytest.raises(ConfigError):
        cumulative_score_process(scores, np.array([1.0, np.nan, 2.0, 3.0]))
    with pytest.raises(DegenerateError):
        cumulative_score_process(scores, np.ones(4))


def test_an_ordering_that_cannot_be_sorted_is_a_config_error(binom_fit):
    # argsort of an object array holding None raises a raw TypeError
    ordering = np.array([1.0, None, 2.0, 3.0], dtype=object)
    with pytest.raises(ConfigError, match="cannot be sorted"):
        cumulative_score_process(np.array([[1.0], [-2.0], [0.5], [0.5]]),
                                 ordering)
    ordering = np.array([None] + list(range(39)), dtype=object)
    with pytest.raises(ConfigError, match="cannot be sorted"):
        sctest(binom_fit, ordering, scores=estfun(binom_fit, "theta"))


def test_nan_in_an_object_ordering_is_a_config_error(binom_fit):
    # NaN compares false both ways, so an object array holding one sorts
    # without error, in an arbitrary order
    for nan in (np.nan, np.float32("nan")):
        ordering = np.array([1.0, nan, 2.0, 3.0], dtype=object)
        with pytest.raises(ConfigError, match="NaN"):
            cumulative_score_process(np.array([[1.0], [-2.0], [0.5], [0.5]]),
                                     ordering)
    ordering = np.array([np.nan] + list(range(39)), dtype=object)
    with pytest.raises(ConfigError, match="NaN"):
        sctest(binom_fit, ordering, scores=estfun(binom_fit, "theta"))


# ---------------------------------------------------------------------------
# sctest


@pytest.fixture(scope="module")
def ordering_40():
    return np.random.default_rng(99).standard_normal(40)


def test_sctest_dm_end_to_end(binom_fit, ordering_40):
    result = sctest(binom_fit, ordering_40, seed=5, n_sim=4000)
    assert result.functional == "DM"
    assert result.statistic > 0.0
    assert 0.0 <= result.p_value <= 1.0
    assert result.critical_value > 0.0
    assert result.n_sim == 4000
    assert result.labels == estfun(binom_fit, "var").labels
    assert result.parm == (0, 1, 2)
    # path grid: 40 distinct ordering values plus the zero start
    assert result.path.values.shape == (41, 3)


def test_sctest_seed_reproducibility(binom_fit, ordering_40):
    a = sctest(binom_fit, ordering_40, seed=17, n_sim=3000)
    b = sctest(binom_fit, ordering_40, seed=17, n_sim=3000)
    assert a.p_value == b.p_value
    assert a.statistic == b.statistic
    assert a.critical_value == b.critical_value


def test_sctest_functional_name_mapping(binom_fit, ordering_40):
    for name, display in [("dm", "DM"), ("cvm", "CvM"), ("maxlm", "maxLM"),
                          ("maxlmo", "maxLM-ordinal"),
                          ("maxLM-ordinal", "maxLM-ordinal")]:
        result = sctest(binom_fit, ordering_40, functional=name, seed=2,
                        n_sim=500)
        assert result.functional == display
    with pytest.raises(ConfigError):
        sctest(binom_fit, ordering_40, functional="sup", seed=2)


def test_sctest_cvm_has_no_crossings(binom_fit, ordering_40):
    result = sctest(binom_fit, ordering_40, functional="cvm", seed=3,
                    n_sim=2000)
    assert result.crossings.size == 0


def test_sctest_parm_subset_dm_monotone(binom_fit, ordering_40):
    # decorrelation happens on the full matrix, so a subset's maximum
    # deviation cannot exceed the full set's
    full = sctest(binom_fit, ordering_40, seed=7, n_sim=500)
    sub = sctest(binom_fit, ordering_40, parm=[0, 1], seed=7, n_sim=500)
    single = sctest(binom_fit, ordering_40, parm=[1], seed=7, n_sim=500)
    assert sub.statistic <= full.statistic + 1e-12
    assert single.statistic <= sub.statistic + 1e-12
    assert sub.parm == (0, 1)


def test_sctest_parm_by_label(binom_fit, ordering_40):
    by_label = sctest(binom_fit, ordering_40, parm=["x1"], seed=7, n_sim=500)
    by_index = sctest(binom_fit, ordering_40, parm=[1], seed=7, n_sim=500)
    assert by_label.statistic == by_index.statistic
    assert by_label.labels == ("x1",)
    with pytest.raises(ConfigError):
        sctest(binom_fit, ordering_40, parm=["nope"], seed=7)
    with pytest.raises(ConfigError):
        sctest(binom_fit, ordering_40, parm=[12], seed=7)


def test_sctest_maxlm_trim_knob(binom_fit, ordering_40):
    wide = sctest(binom_fit, ordering_40, functional="maxlm", seed=5,
                  n_sim=500)
    narrow = sctest(binom_fit, ordering_40, functional="maxlm", seed=5,
                    n_sim=500, trim=(0.45, 0.55))
    assert narrow.statistic <= wide.statistic + 1e-12
    with pytest.raises(DegenerateError):
        sctest(binom_fit, ordering_40, functional="maxlm", seed=5,
               n_sim=500, trim=(0.9601, 0.9701))


def test_sctest_ordinal_functional(binom_fit):
    levels = np.tile(np.array([1.0, 2.0, 3.0, 4.0]), 10)
    result = sctest(binom_fit, levels, functional="maxlmo", seed=11,
                    n_sim=2000)
    # 4 levels -> 3 interior cutpoints, plus the zero start
    assert result.path.values.shape[0] == 5
    assert result.statistic > 0.0
    assert 0.0 <= result.p_value <= 1.0


def test_sctest_zero_scores_short_circuit(binom_fit, ordering_40):
    zeros = np.zeros((40, 3))
    result = sctest(binom_fit, ordering_40, seed=13, n_sim=1000,
                    scores=zeros)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    np.testing.assert_allclose(result.path.values, 0.0)


def test_sctest_crossings_when_unstable(binom_fit, ordering_40):
    # force an absurdly large path by injecting scores with a level break
    drift = np.zeros((40, 1))
    drift[:20] = 1.0
    drift[20:] = -1.0
    drift += np.random.default_rng(0).standard_normal((40, 1)) * 0.05
    result = sctest(binom_fit, np.arange(40.0), seed=19, n_sim=2000,
                    scores=drift)
    # the exact DM tail, below the continuous bridge's Kolmogorov tail
    assert 0.0 <= result.p_value <= kolmogorov(result.statistic) < 1e-8
    assert result.p_value_se == _DM_TOL
    assert result.crossings.size > 0
    assert np.all((result.crossings > 0.0) & (result.crossings < 1.0))
    # far in the tail: the exact p lies below the union bound over the
    # 33 window points, each a chi-square(1) tail
    lm = sctest(binom_fit, np.arange(40.0), functional="maxLM", seed=19,
                n_sim=2000, scores=drift)
    assert 0.0 < lm.p_value <= 33 * chi2.sf(lm.statistic, 1) < 1e-7
    assert lm.p_value_se == _LM_TOL
    assert lm.crossings.size > 0


def test_sctest_reports_the_error_bound_of_p(binom_fit, ordering_40):
    # every p-value is exact and reports its numerical error bound, one
    # per coordinate for DM
    bounds = {"DM": 3 * _DM_TOL, "CvM": _TAIL_EPS, "maxLM": _LM_TOL,
              "maxLMo": _LM_TOL}
    for functional, bound in bounds.items():
        result = sctest(binom_fit, ordering_40, functional=functional,
                        seed=5, n_sim=4000)
        assert 0.0 < result.p_value < 1.0
        assert result.p_value_se == bound


@pytest.mark.parametrize("trim", [(0.1,), "ab", (0.1, 0.5, 0.9), None,
                                  (0.9, 0.1), (-0.1, 0.9), (0.1, 1.5),
                                  (0.1, float("nan")), ("0.1", "0.9")])
def test_sctest_bad_trim_is_a_config_error(binom_fit, ordering_40, trim):
    # (0.1,) raised a raw IndexError and "ab" a raw TypeError
    with pytest.raises(ConfigError, match="trimming window"):
        sctest(binom_fit, ordering_40, functional="maxlm", trim=trim)


@pytest.mark.parametrize("n_sim", [0, -5, 2.5, True])
def test_sctest_bad_n_sim_is_a_config_error(binom_fit, ordering_40, n_sim):
    with pytest.raises(ConfigError, match="n_sim"):
        sctest(binom_fit, ordering_40, n_sim=n_sim)


# ---------------------------------------------------------------------------
# the exact nulls and their cached critical values


def _interior_grid(n_clusters, ties, seed=0):
    ordering = np.random.default_rng(seed).standard_normal(n_clusters)
    if ties:
        ordering = np.round(ordering, 1)
    _, _, ends = _ordering_groups(ordering)
    return (ends + 1.0) / n_clusters


@pytest.mark.parametrize("n_clusters,dim,ties", [
    (40, 5, False),
    (60, 1, True),
    (25, 2, True),
    (30, 3, False),
    (50, 4, True),
])
def test_exact_p_agrees_with_the_per_functional_simulation(n_clusters, dim,
                                                           ties):
    # each null the one-pass simulation used to share, against its own
    # simulation at that null's median
    t_interior = _interior_grid(n_clusters, ties)
    assert (t_interior.shape[0] < n_clusters) == ties
    steps = np.diff(np.concatenate(([0.0], t_interior)))
    window = t_interior[_lm_window(t_interior, (0.1, 0.9))]
    exact = {
        "CvM": lambda x: _cvm_p_value(x, steps, n_clusters, dim),
        "maxLM": lambda x: _lm_p_value(x, window, dim),
        "maxLM-ordinal": lambda x: _lm_p_value(x, t_interior[:-1], dim),
    }
    for name, p_value in exact.items():
        null = bridge_null_reference(name, t_interior, dim, n_clusters, 4000,
                                     9)
        x = float(np.median(null))
        simulated = float(np.mean(null >= x))
        se = np.sqrt(simulated * (1.0 - simulated) / null.size)
        assert abs(p_value(x) - simulated) <= 3.0 * se, name


def _assert_same_result(a, b):
    for field in ("statistic", "p_value", "p_value_se", "critical_value",
                  "functional", "parm", "labels", "n_sim"):
        assert getattr(a, field) == getattr(b, field), field
    np.testing.assert_array_equal(a.crossings, b.crossings)
    np.testing.assert_array_equal(a.path.values, b.path.values)
    np.testing.assert_array_equal(a.path.t, b.path.t)


@pytest.mark.parametrize("functional", ["CvM", "maxLM", "maxLMo"])
def test_cached_null_gives_the_same_result_as_a_fresh_one(
        binom_fit, ordering_40, functional):
    _critical_value.cache_clear()
    fresh = sctest(binom_fit, ordering_40, functional=functional, seed=21,
                   n_sim=1500)
    # computed when first read
    assert _critical_value.cache_info().misses == 0
    assert fresh.critical_value > 0.0
    assert _critical_value.cache_info().misses == 1
    cached = sctest(binom_fit, ordering_40, functional=functional, seed=21,
                    n_sim=1500)
    _assert_same_result(fresh, cached)
    assert _critical_value.cache_info().hits == 1
    # the result is the exact p-value, and the cached critical value is
    # the one a fresh computation gives
    t_interior = fresh.path.t[1:]
    if functional == "CvM":
        steps = fresh.path.counts / 40
        key, divisor = ("CvM", steps.tobytes()), 40.0
        p_value = _cvm_p_value(fresh.statistic, steps, 40, 3)
    else:
        points = (t_interior[_lm_window(t_interior, (0.1, 0.9))]
                  if functional == "maxLM" else t_interior[:-1])
        key, divisor = ("maxLM", points.tobytes()), 1.0
        p_value = _lm_p_value(fresh.statistic, points, 3)
    assert fresh.critical_value == (_critical_value.__wrapped__(*key, 3)
                                    / divisor)
    assert fresh.p_value == p_value


def test_exact_nulls_draw_nothing_and_ignore_the_seed(binom_fit, ordering_40):
    for functional in ("DM", "CvM", "maxLM", "maxLMo"):
        a = sctest(binom_fit, ordering_40, functional=functional, seed=21,
                   n_sim=1500)
        b = sctest(binom_fit, ordering_40, functional=functional, n_sim=10)
        for field in ("statistic", "p_value", "p_value_se",
                      "critical_value"):
            assert getattr(a, field) == getattr(b, field), field
        np.testing.assert_array_equal(a.crossings, b.crossings)
        assert (a.n_sim, b.n_sim) == (1500, 10)


def test_cached_critical_values_are_immutable(binom_fit, ordering_40):
    # the cache keeps floats under a copy of the grid's bytes, and a
    # result keeps its own copy of what its critical value and crossings
    # are computed from, so nothing a caller does to a result's path
    # reaches a cached entry or a value not read yet
    _critical_value.cache_clear()
    result = sctest(binom_fit, ordering_40, functional="maxLM", seed=22,
                    n_sim=300)
    crossings = result.crossings
    critical = result.critical_value
    unread = sctest(binom_fit, ordering_40, functional="maxLM", seed=22,
                    n_sim=300)
    for changed in (result, unread):
        changed.path.t[1:] = 0.5
        changed.path.counts[:] = 1
    again = sctest(binom_fit, ordering_40, functional="maxLM", seed=22,
                   n_sim=300)
    assert type(again.critical_value) is float
    assert again.critical_value == critical == unread.critical_value
    np.testing.assert_array_equal(unread.crossings, crossings)
    assert _critical_value.cache_info().hits == 2


def test_functionals_and_parm_subsets_of_one_size_share_critical_values(
        binom_fit, ordering_40):
    _critical_value.cache_clear()
    calls = [{"functional": functional, "seed": 23, "n_sim": 400}
             for functional in ("DM", "CvM", "maxLM", "maxLMo")]
    # another seed and draw count, and a parm subset of a size seen
    # before, reuse the critical values
    calls += [
        {"functional": "maxLM", "seed": 24, "n_sim": 10},
        {"parm": [0, 1], "seed": 23, "n_sim": 400},
        {"parm": [1, 2], "seed": 23, "n_sim": 400},
        {"parm": [1, 2], "functional": "cvm", "seed": 23, "n_sim": 400},
        {"parm": [0, 2], "functional": "cvm", "seed": 23, "n_sim": 400},
    ]
    for kwargs in calls:
        sctest(binom_fit, ordering_40, **kwargs).critical_value
    info = _critical_value.cache_info()
    assert (info.misses, info.hits) == (6, 3)


def test_different_grids_never_share_a_critical_value(binom_fit,
                                                      ordering_40):
    base = {"seed": 24, "n_sim": 400, "trim": (0.1, 0.9)}
    tied = np.round(ordering_40, 0)
    # (ordering, settings, cache misses so far): the seed and n_sim are
    # not part of the grid
    variants = [
        (ordering_40, base, 1),
        (ordering_40, base | {"trim": (0.2, 0.8)}, 2),
        (ordering_40, base | {"seed": 25}, 2),
        (ordering_40, base | {"n_sim": 401}, 2),
        (tied, base, 3),
    ]
    _critical_value.cache_clear()
    critical = set()
    for ordering, kwargs, misses in variants:
        result = sctest(binom_fit, ordering, functional="maxLM", **kwargs)
        critical.add(result.critical_value)
        assert _critical_value.cache_info().misses == misses
        null = bridge_null_reference("maxLM", result.path.t[1:], 3, 40,
                                     4000, 9, kwargs["trim"])
        simulated = float(np.mean(null >= result.statistic))
        se = max(np.sqrt(simulated * (1.0 - simulated) / null.size),
                 1.0 / null.size)
        assert abs(result.p_value - simulated) <= 3.0 * se
    assert len(critical) == 3
    assert tied.shape[0] == 40 and np.unique(tied).shape[0] < 40


def test_empty_trim_window_fails_only_for_maxlm(binom_fit, ordering_40):
    # no interior point of the 40-point grid k/40 lies in [0.9601, 0.9701]
    window = (0.9601, 0.9701)
    for functional in ("DM", "CvM", "maxLMo"):
        result = sctest(binom_fit, ordering_40, functional=functional,
                        seed=26, n_sim=300, trim=window)
        assert np.isfinite(result.statistic)
        assert np.isfinite(result.critical_value)
    with pytest.raises(DegenerateError):
        sctest(binom_fit, ordering_40, functional="maxlm", seed=26,
               n_sim=300, trim=window)


def test_large_grid_null_stays_small_in_memory(binom_fit):
    # a 5000-point grid in 4 dimensions: the per-functional simulation
    # allocated one chunk of every path at once, a peak of 130 MB at
    # n_sim=200; the one-pass null measured 1.6 MB, the exact DM null with
    # its critical value 2.7 MB
    scores = np.random.default_rng(0).standard_normal((5000, 4))
    _critical_value.cache_clear()
    tracemalloc.start()
    try:
        sctest(binom_fit, np.arange(5000.0), scores=scores, seed=27,
               n_sim=200).crossings
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("functional", ["CvM", "maxLM"])
def test_large_grid_exact_nulls_stay_small_in_memory(binom_fit, functional):
    # the same grid at the CLI default n_sim: CvM's tail integrand is
    # built a block of nodes at a time and the max-LM chain's kernels a
    # batch of steps at a time, so the first call, traced from an empty
    # cache, measured 3.1 MB (CvM, critical value included) and 1.8 MB
    # (maxLM).  maxLM's critical value runs the same chain six more times,
    # 12.5 s on this grid with one BLAS thread, so only its p-value is
    # traced here
    scores = np.random.default_rng(0).standard_normal((5000, 4))
    _critical_value.cache_clear()
    tracemalloc.start()
    try:
        result = sctest(binom_fit, np.arange(5000.0), scores=scores,
                        functional=functional, seed=27, n_sim=50000)
        if functional == "CvM":
            assert 0.0 < result.critical_value < np.inf
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < result.p_value < 1.0
    assert peak < 4 * 2 ** 20, peak
