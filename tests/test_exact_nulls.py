"""The exact nulls: the weighted chi-square tail of the Vuong tests, and the
finite-grid nulls of the stability test's double max (DM), Cramer-von
Mises and max-LM functionals.

Each is checked against closed forms where they exist (chi-square, the
polar form of two weights), against Imhof's integral, the Monte-Carlo
simulators and the dense Bessel chain in ``oracles.py``, and for the
invariants a tail must keep.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import ive

from glmmkit import _nulls
from glmmkit._nulls import (_ASCENDING_MAX_DIM, _DM_TOL, _HANKEL_FROM,
                            _LM_TOL, _TAIL_EPS, _chisq_mixture_tail,
                            _critical_value, _cvm_p_value, _cvm_weights,
                            _dm_p_value, _lm_p_value,
                            _lm_stay_probability, _node_count,
                            _radial_kernel, _stay_probability)
from glmmkit.stability import _lm_window, _ordering_groups
from oracles import (bridge_null_reference, dm_stay_reference, imhof_tail,
                     mixture_tail_simulated, radial_stay_reference,
                     two_weight_tail)

# weights of a simstudy nested replicate (seed 1, round 0) and of the
# cli_postest nested comparison (seed 1), as the Vuong tests build them
SIMSTUDY_WEIGHTS = np.array([-0.44650827, -0.27523352, 0.29098284,
                             0.48436451, 0.6752189])
CLI_WEIGHTS = np.array([0.96763833, -0.11840792, -0.18869678, -0.17445407,
                        0.17806773, 0.15917461, 0.13486635])

signed_weights = st.lists(
    st.floats(0.05, 5.0).flatmap(
        lambda size: st.sampled_from([size, -size])),
    min_size=1, max_size=6).map(np.array)


def _tail_sd(weights):
    return math.sqrt(2.0 * float(np.sum(np.square(weights))))


# ---------------------------------------------------------------------------
# the weighted chi-square tail


@pytest.mark.parametrize("k", [1, 2, 5, 20])
def test_equal_weights_are_a_chi_square(k):
    for x in np.concatenate(([0.0, 1e-6, 0.01], np.linspace(0.1, 4 * k + 30,
                                                             23))):
        for scale in (1.0, 0.3):
            p = _chisq_mixture_tail(np.full(k, scale), scale * x)
            assert abs(p - sps.chi2.sf(x, k)) <= 1e-10, (k, x, scale)


@pytest.mark.parametrize("weights", [(1.0, 0.2), (2.0, -0.5), (-0.3, 1.7),
                                     (-1.0, -2.0), (0.7, -0.7)])
def test_two_weights_match_the_polar_quadrature(weights):
    w = np.array(weights)
    for x in (-6.0, -1.0, -0.01, 0.0, 0.01, 0.5, 2.0, 7.0):
        assert abs(_chisq_mixture_tail(w, x) - two_weight_tail(w, x)) <= 1e-11


@pytest.mark.parametrize("weights", [SIMSTUDY_WEIGHTS, CLI_WEIGHTS,
                                     np.square(CLI_WEIGHTS)])
def test_tail_agrees_with_a_million_draws(weights):
    mean, sd = float(np.sum(weights)), _tail_sd(weights)
    for shift in (-0.5, 2.0):
        x = mean + shift * sd
        simulated = mixture_tail_simulated(weights, x,
                                           np.random.default_rng(17), 10 ** 6)
        se = math.sqrt(simulated * (1.0 - simulated) / 10 ** 6)
        assert abs(_chisq_mixture_tail(weights, x) - simulated) <= 3.0 * se


@settings(max_examples=50, deadline=None)
@given(weights=signed_weights, shift=st.floats(-1.5, 3.0))
def test_drawn_weights_agree_with_imhofs_integral(weights, shift):
    # a deterministic oracle: a bound on Monte-Carlo draws fails by chance
    # somewhere in a search (weights (1, 1) at x = 6 read 3.1 SE low)
    x = float(np.sum(weights)) + shift * _tail_sd(weights)
    assert abs(_chisq_mixture_tail(weights, x) - imhof_tail(weights, x)) \
        <= 1e-8


@settings(max_examples=20, deadline=None)
@given(weights=signed_weights, shift=st.floats(-4.0, 8.0),
       step=st.floats(0.0, 2.0), scale=st.floats(0.01, 100.0))
def test_tail_invariants(weights, shift, step, scale):
    x = float(np.sum(weights)) + shift * _tail_sd(weights)
    p = _chisq_mixture_tail(weights, x)
    assert 0.0 <= p <= 1.0
    # the tail does not increase in x
    assert _chisq_mixture_tail(weights, x + step) <= p + 2.0 * _TAIL_EPS
    # P(Q >= x) + P(-Q >= -x) = 1: Q is continuous
    assert abs(p + _chisq_mixture_tail(-weights, -x) - 1.0) <= 2.0 * _TAIL_EPS
    # scale invariance
    assert abs(_chisq_mixture_tail(scale * weights, scale * x) - p) \
        <= 2.0 * _TAIL_EPS


def test_imhof_oracle_has_the_closed_form_of_two_equal_weights():
    # Q = chi-square(2) has the tail exp(-x / 2)
    assert abs(imhof_tail(np.array([1.0, 1.0]), 6.0) - math.exp(-3.0)) \
        <= 1e-12


def test_one_sign_and_no_weights():
    positive = np.array([0.5, 1.0, 2.0])
    assert _chisq_mixture_tail(positive, 0.0) == 1.0
    assert _chisq_mixture_tail(-positive, 0.0) == 0.0
    assert _chisq_mixture_tail(-positive, 1e-3) == 0.0
    # no weights: a point mass at zero, reached up to rounding
    assert _chisq_mixture_tail(np.empty(0), 0.0) == 1.0
    assert _chisq_mixture_tail(np.empty(0), 1e-11) == 1.0
    assert _chisq_mixture_tail(np.empty(0), 1e-9) == 0.0


def test_tiny_positive_statistics_give_the_limiting_tail():
    # the lower-tail root search runs out to t near -1 / x, where the
    # cumulant's curvature underflows to zero; the tail is 1 there, as at
    # x = 0, and a mixed-sign mixture keeps its limit P(Q > 0)
    for weights, x in (([1.0], 1e-200), ([1.0, 2.0], 1e-250),
                       ([1.0], 1e-310), ([0.5, 1.0, 2.0], 5e-324)):
        assert _chisq_mixture_tail(np.array(weights), x) == 1.0
    # 3 chi2(1) - chi2(1) > 0 when an F(1, 1) ratio is below 3: 2/3
    assert abs(_chisq_mixture_tail(np.array([3.0, -1.0]), 1e-200)
               - 2.0 / 3.0) <= 2.0 * _TAIL_EPS


def test_chernoff_tails_end_without_the_integral():
    # the cli_postest statistics: far beyond any weight, so exactly 0,
    # and a bound the largest weight alone confirms
    for weights, x in ((CLI_WEIGHTS, 1454.03), (np.square(CLI_WEIGHTS),
                                                1387.10)):
        assert _chisq_mixture_tail(weights, x) == 0.0
        assert sps.chi2.sf(x / weights.max(), weights.size) < _TAIL_EPS
        assert _chisq_mixture_tail(weights, -x) == 1.0


# ---------------------------------------------------------------------------
# the exact DM null


def _grid(n_clusters, ties, seed=0):
    """The steps and the interior points of an ordering's grid, as
    sctest builds them."""
    ordering = np.random.default_rng(seed).standard_normal(n_clusters)
    if ties:
        ordering = np.round(ordering, 1)
    _, _, ends = _ordering_groups(ordering)
    counts = np.diff(np.concatenate(([0], ends + 1)))
    return counts / n_clusters, (ends + 1.0) / n_clusters


def _dm_stay(band, steps, nodes=None):
    """P(|B(t_j)| <= band at every interior point) for one coordinate."""
    return _stay_probability(np.full(steps.size - 1, band), steps, 1, nodes)


@pytest.mark.parametrize("n_clusters,dim,ties", [(40, 3, False),
                                                 (50, 5, False),
                                                 (40, 3, True)])
def test_dm_p_value_agrees_with_the_simulated_bridges(n_clusters, dim, ties):
    steps = _grid(n_clusters, ties)[0]
    assert (steps.size < n_clusters) == ties
    t_interior = np.cumsum(steps)
    # 4 * 10^4 draws keep this quick; CHANGES.md records the same check
    # at 10^6
    null = bridge_null_reference("DM", t_interior, dim, n_clusters,
                                 4 * 10 ** 4, 31, chunk_budget=2 ** 20)
    for x in (1.0, 1.25, 1.5, 1.75):
        simulated = float(np.mean(null >= x))
        se = math.sqrt(simulated * (1.0 - simulated) / null.size)
        assert abs(_dm_p_value(x, steps, dim) - simulated) <= 3.0 * se


def test_stay_probability_converges_in_the_nodes():
    # the cli_postest grid and statistic: doubling the nodes moves P(stay)
    # by far less than the error bound
    steps = np.full(5000, 1 / 5000)
    nodes = _node_count(0.9380087848146345, steps)
    p = _dm_stay(0.9380087848146345, steps, nodes)
    assert abs(_dm_stay(0.9380087848146345, steps, 2 * nodes) - p) \
        <= _DM_TOL
    # the recorded answer of the seed-1 benchmark statistic
    assert _dm_p_value(0.9380087848146345, steps, 4) == pytest.approx(
        0.80102, abs=1e-5)


def test_too_few_nodes_double_instead_of_overflowing():
    # 8 nodes over a band 66 step deviations wide put mass outside the
    # kernel: the top eigenvalue exceeds one, and 8 doubles until it
    # does not (a RuntimeWarning from an overflow would fail here).  The
    # guard stops at 128 nodes, below the rule's 160, so the answer is
    # close but not within the rule's bound
    steps = np.full(5000, 1 / 5000)
    reference = _dm_stay(0.94, steps, _node_count(0.94, steps))
    assert abs(_dm_stay(0.94, steps, 8) - reference) <= 1e-9


@pytest.mark.parametrize("n_clusters,ties,sides", [
    (50, False, {"dense"}),       # one transition, one kernel for 24 steps
    (40, True, {"dense"}),        # runs of several transitions, each reused
    (300, False, {"ragged"}),     # the reach cut keeps under _DENSE_SHARE
])
def test_dm_chain_matches_a_dense_folded_gaussian_chain(n_clusters, ties,
                                                        sides, monkeypatch):
    # the sides the chain's kernels take: a dense batch of transitions
    # broadcasts to three axes, a ragged one is flat
    taken = set()
    kernel = _nulls._radial_kernel

    def spy(dim, r, r_next):
        taken.add({1: "ragged", 2: "eigh", 3: "dense"}[
            np.broadcast(r, r_next).ndim])
        return kernel(dim, r, r_next)

    monkeypatch.setattr(_nulls, "_radial_kernel", spy)
    steps = _grid(n_clusters, ties)[0]
    for band in (0.9, 1.2):
        assert abs(_dm_stay(band, steps)
                   - dm_stay_reference(band, steps, 160)) <= 1e-11
    assert taken == sides


@pytest.mark.parametrize("n_clusters,dim,ties", [(5000, 4, False),
                                                 (40, 3, False),
                                                 (50, 5, False),
                                                 (40, 3, True)])
def test_critical_value_has_the_level(n_clusters, dim, ties):
    steps = _grid(n_clusters, ties)[0]
    c = _critical_value.__wrapped__("DM", steps.tobytes(), dim)
    stay = _dm_stay(c, steps, _node_count(c, steps))
    assert abs(stay ** dim - 0.95) <= 1e-10
    assert abs(_dm_p_value(c, steps, dim) - 0.05) <= 1e-10


@settings(max_examples=15, deadline=None)
@given(n_clusters=st.integers(2, 60), ties=st.booleans(),
       low=st.floats(0.05, 2.0), step=st.floats(0.0, 1.0))
def test_stay_probability_does_not_decrease_in_the_band(n_clusters, ties,
                                                        low, step):
    steps = _grid(n_clusters, ties, seed=n_clusters)[0]
    nodes = _node_count(low + step, steps)
    p_low = _dm_stay(low, steps, nodes)
    p_high = _dm_stay(low + step, steps, nodes)
    assert 0.0 <= p_low <= p_high + _DM_TOL
    assert p_high <= 1.0 + _DM_TOL


def test_zero_statistic_has_p_one():
    assert _dm_p_value(0.0, np.full(10, 0.1), 3) == 1.0


# ---------------------------------------------------------------------------
# multiplicities, the CvM null and the max-LM chain


def _exact_p(name, x, n_clusters, dim, steps, t_interior):
    if name == "CvM":
        return _cvm_p_value(x, steps, n_clusters, dim)
    points = (t_interior[_lm_window(t_interior, (0.1, 0.9))]
              if name == "maxLM" else t_interior[:-1])
    return _lm_p_value(x, points, dim)


def test_many_repeated_weights_do_not_overflow_the_tail():
    # slope_agq's CvM null: the 40-point grid's 39 weights, each carried
    # by 5 coordinates.  As 195 separate weights they overflowed exp() in
    # the truncation bound, which is now taken in logs
    weights = _cvm_weights(np.full(40, 1.0 / 40.0)) / 40.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for x in (0.3, 0.83, 1.46, 3.0):
            p = _chisq_mixture_tail(np.repeat(weights, 5), x)
            assert 0.0 < p < 1.0
            assert abs(p - _chisq_mixture_tail(weights, x, 5)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(weights=signed_weights, shift=st.floats(-1.5, 3.0),
       multiplicity=st.lists(st.integers(1, 4), min_size=6, max_size=6))
def test_multiplicities_are_repeated_weights(weights, shift, multiplicity):
    counts = np.array(multiplicity[:weights.size])
    repeated = np.repeat(weights, counts)
    x = float(np.sum(repeated)) + shift * _tail_sd(repeated)
    assert abs(_chisq_mixture_tail(weights, x, counts)
               - _chisq_mixture_tail(repeated, x)) <= 2.0 * _TAIL_EPS


@pytest.mark.parametrize("name", ["CvM", "maxLM", "maxLM-ordinal"])
@pytest.mark.parametrize("n_clusters,dim,ties", [(40, 5, False),
                                                 (50, 3, False),
                                                 (40, 1, False),
                                                 (40, 3, True)])
def test_cvm_and_maxlm_p_values_agree_with_the_simulated_bridges(
        name, n_clusters, dim, ties):
    steps, t_interior = _grid(n_clusters, ties)
    assert (steps.size < n_clusters) == ties
    # 4 * 10^4 draws keep this quick; CHANGES.md records the same check
    # at 10^6
    null = bridge_null_reference(name, t_interior, dim, n_clusters,
                                 4 * 10 ** 4, 31, chunk_budget=2 ** 20)
    for q in (0.5, 0.9, 0.99):
        x = float(np.quantile(null, q))
        simulated = float(np.mean(null >= x))
        se = math.sqrt(simulated * (1.0 - simulated) / null.size)
        p = _exact_p(name, x, n_clusters, dim, steps, t_interior)
        assert abs(p - simulated) <= 3.0 * se, q


@settings(max_examples=15, deadline=None)
@given(n_clusters=st.integers(4, 60), ties=st.booleans(),
       dim=st.integers(1, 6), low=st.floats(0.05, 30.0),
       step=st.floats(0.0, 10.0))
def test_lm_and_cvm_p_values_lie_in_the_unit_interval_and_fall(
        n_clusters, ties, dim, low, step):
    steps, t_interior = _grid(n_clusters, ties, seed=n_clusters)
    points = t_interior[:-1]
    for name, scale in (("CvM", 0.05), ("maxLM-ordinal", 1.0)):
        p_low = _exact_p(name, scale * low, n_clusters, dim, steps,
                         t_interior)
        p_high = _exact_p(name, scale * (low + step), n_clusters, dim, steps,
                          t_interior)
        bound = 2.0 * (_TAIL_EPS if name == "CvM" else _LM_TOL)
        assert 0.0 <= p_high <= p_low + bound
        assert p_low <= 1.0
    # at equal c, maxLM-ordinal's window holds maxLM's, so it is no more
    # likely to stay inside
    window = t_interior[_lm_window(t_interior, (0.1, 0.9))]
    if window.size:
        assert (_lm_stay_probability(low, points, dim)
                <= _lm_stay_probability(low, window, dim) + _LM_TOL)


@pytest.mark.parametrize("dim", [1, 3])
def test_closed_form_kernels_match_the_bessel_function(dim):
    # the folded Gaussian (k = 1) and the image kernel (k = 3) are
    # sqrt(2 pi z) ive(k/2 - 1, z) times the Gaussian of r - r'
    z = np.geomspace(1e-4, 1e4, 801)
    radius = np.sqrt(z)
    reference = np.sqrt(2.0 * math.pi * z) * ive(0.5 * dim - 1.0, z)
    np.testing.assert_allclose(_radial_kernel(dim, radius, radius),
                               reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 12, 15, 20, 40,
                                 _ASCENDING_MAX_DIM + 1])
def test_every_form_of_the_kernel_matches_the_bessel_function(dim):
    # the closed forms, the ascending series below 2 dim (ive above
    # _ASCENDING_MAX_DIM), the recurrence above it, and Hankel's expansion
    # or the scaled Bessel functions for the even bases, on either side of
    # each switch; r = r' leaves S_dim(r r') alone
    edges = np.array([2.0 * dim, _HANKEL_FROM])
    switches = np.sqrt(edges)
    below, above = switches * (1.0 - 1e-12), switches * (1.0 + 1e-12)
    radius = np.concatenate((np.sqrt(np.geomspace(1e-4, 1e6, 2001)), below,
                             switches, above))
    z = radius * radius
    assert np.all(z[-6:-4] < edges) and np.all(z[-2:] > edges)
    reference = np.sqrt(2.0 * math.pi * z) * ive(0.5 * dim - 1.0, z)
    np.testing.assert_allclose(_radial_kernel(dim, radius, radius),
                               reference, rtol=1e-12, atol=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_zero = _radial_kernel(dim, np.zeros(2), np.zeros(2))
    assert at_zero.tolist() == [2.0 if dim == 1 else 0.0] * 2


@pytest.mark.parametrize("n_clusters,dim,ties,c,trim", [
    (40, 5, False, 15.0, (0.1, 0.9)),     # symmetric: half the chain
    (41, 4, False, 14.0, (0.0, 1.0)),     # symmetric, an even count
    (50, 3, True, 12.0, (0.1, 0.9)),
    (40, 2, True, 30.0, (0.2, 0.8)),
    (30, 7, False, 20.0, (0.1, 0.7)),
    (30, 8, False, 20.0, (0.1, 0.9)),
    (25, 12, True, 30.0, (0.0, 1.0)),
    (200, 4, False, 30.0, (0.1, 0.95)),   # banded
    (120, 15, False, 30.0, (0.0, 1.0)),   # the recurrence alone overflowed
    (30, 20, False, 35.0, (0.1, 0.9)),    # every far base from Hankel's
    (30, _ASCENDING_MAX_DIM + 1, False, 60.0, (0.1, 0.9)),   # ive near 0
    (500, 3, False, 12.0, (0.1, 0.9)),    # every batch ragged
])
def test_radial_chain_matches_a_dense_bessel_chain(n_clusters, dim, ties, c,
                                                   trim):
    # the banded chain, with its closed forms, series and recurrence for
    # S_k, against the dense chain of ive() kernels on NumPy's rule.  Its
    # entries reach the ascending series at dims 5 to 20, Hankel's
    # expansion at dims 2, 4, 8, 12 and 20, and the scaled Bessel
    # functions below it at dims 2, 4, 8 and 12
    _, t_interior = _grid(n_clusters, ties)
    points = t_interior[_lm_window(t_interior, trim)]
    nodes = 160 if n_clusters < 100 else 128
    assert abs(_lm_stay_probability(c, points, dim)
               - radial_stay_reference(c, points, dim, nodes)) <= 1e-11


@pytest.mark.parametrize("dim", [1, 3])
def test_a_transition_past_the_batch_is_built_in_slices(dim, monkeypatch):
    # the tiny step gives 816 nodes, and three transitions keep 470,000
    # to 490,000 of their 665,856 entries each: every one takes the ragged
    # side, in slices of at most _LM_BATCH entries.  Unbounded, the four
    # transitions make one ragged batch, built once, whose entries take
    # about 80 MB; the slices' temporaries hold about ten arrays of
    # _LM_BATCH doubles (1 MB each)
    t = np.array([0.46, 0.48, 0.5, 0.50003, 0.52])
    band = float(np.sqrt(16.0 * t * (1.0 - t)).max())
    assert 400 <= _node_count(band, np.diff(t, prepend=0.0,
                                            append=1.0)) <= 1000
    tracemalloc.start()
    try:
        stay = _lm_stay_probability(16.0, t, dim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    monkeypatch.setattr(_nulls, "_LM_BATCH", 2 ** 40)
    assert stay == _lm_stay_probability(16.0, t, dim)


@pytest.mark.parametrize("name,n_clusters,dim,ties", [
    ("DM", 40, 3, False), ("CvM", 40, 5, False), ("CvM", 40, 3, True),
    ("maxLM", 40, 5, False), ("maxLM", 50, 3, False), ("maxLM", 40, 3, True),
])
def test_cached_critical_value_is_a_fresh_one_and_has_the_level(
        name, n_clusters, dim, ties):
    steps, t_interior = _grid(n_clusters, ties)
    grid = (t_interior[_lm_window(t_interior, (0.1, 0.9))]
            if name == "maxLM" else steps)
    _critical_value.cache_clear()
    cached = _critical_value(name, grid.tobytes(), dim)
    assert _critical_value(name, grid.tobytes(), dim) == cached
    assert _critical_value.cache_info().hits == 1
    fresh = _critical_value.__wrapped__(name, grid.tobytes(), dim)
    assert fresh == cached
    if name == "DM":
        stay = _dm_stay(cached, steps)
        assert abs(stay ** dim - 0.95) <= _DM_TOL
    elif name == "CvM":
        tail = _chisq_mixture_tail(_cvm_weights(steps), cached, dim)
        assert abs(tail - 0.05) <= _TAIL_EPS
    else:
        assert abs(_lm_stay_probability(cached, grid, dim) - 0.95) <= _LM_TOL
