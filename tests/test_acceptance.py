"""End-to-end acceptance gates, one test per headline capability.

The nine checks below are the release checklist for this library.  Every
configuration (simulation seeds, sample sizes, quadrature orders) is
frozen, and every tolerance was verified against an independent oracle
before being pinned, so a failure here means a regression, not noise.

 1. Analytic per-cluster scores match central finite differences of the
    per-cluster log-likelihood on six testbed models.
 2. Per-cluster log-likelihoods and scores match brute-force Simpson
    integration on random clusters of two fitted models.
 3. Adapted quadrature rules integrate Gaussian monomials of degree up
    to 2M - 1 exactly, in one and two dimensions.
 4. On a longitudinal count model, the total log-likelihood and the
    standardized total gradient stabilize from five quadrature points.
 5. Robust and model-based standard errors for the five-item response
    benchmark match published reference values.
 6. Marginal scores of a random-intercept item-response fit agree with
    a direct item-response-theory oracle.
 7. The parameter-stability test holds its size under a correct null
    across 200 seeded replications.
 8. The model-comparison variance statistic is exactly zero for
    identical models, and the nested likelihood-ratio test has power
    at least 95/100 against a strong omitted predictor.
 9. The observed-information Hessian matches the closed GLM form on the
    zero-variance slice, and is symmetric and negative definite at
    interior optima on all testbeds.

Each test prints one PASS line with its measured margins; pytest's own
PASSED/FAILED verdict is the per-check pass/fail signal.
"""

import time
from itertools import product
from math import comb

import numpy as np
import pytest
from scipy.special import factorial2
from scipy.stats import multivariate_normal

from glmmkit import (
    FitControl,
    GlmmData,
    GlmmKitError,
    adapt_rule,
    estfun,
    family_spec,
    fit,
    gh_rule,
    gradient,
    hessian,
    integrate_cluster,
    llcont,
    load_fitted,
    load_lsat7,
    make_counts_data,
    make_glmm_data,
    make_rasch_data,
    sandwich_vcov,
    sctest,
    vuong_lr_test,
    vuong_variance_test,
)
from oracles import (fd_scores_fixed_anchor, irt_rasch, raw_fd_hessian,
                     simpson_cluster)

TESTBEDS = [
    ("binomial", "logit", "intercept", 700),
    ("binomial", "logit", "slope", 711),
    ("binomial", "probit", "intercept", 702),
    ("binomial", "probit", "slope", 723),
    ("poisson", "log", "intercept", 704),
    ("poisson", "log", "slope", 705),
]


@pytest.fixture(scope="module")
def testbed_fits():
    """Six interior-optimum fits shared by the score and Hessian gates."""
    start = time.perf_counter()
    fits = []
    for fam, link, rand, seed in TESTBEDS:
        sim = make_glmm_data(fam, link=link, random=rand, n_clusters=50,
                             cluster_size=8, seed=seed)
        fitted = fit(sim.data, family_spec(fam, link),
                     control=FitControl(n_points=7, restarts=1))
        assert fitted.converged and not fitted.boundary
        fits.append((f"{fam}-{link}-{rand}", fitted))
    return fits, time.perf_counter() - start


def test_01_scores_match_finite_differences(testbed_fits, capsys):
    """estfun columns vs central finite differences of llcont at M = 7.

    Gate: relative error <= 1e-6 where |score| >= 1e-3, absolute error
    <= 1e-4 below that; total runtime under 2 minutes.
    """
    fits, build_time = testbed_fits
    start = time.perf_counter()
    worst_rel = 0.0
    worst_abs = 0.0
    for name, fitted in fits:
        analytic = estfun(fitted, "theta", n_points=7).values
        fd = fd_scores_fixed_anchor(fitted, n_points=7)
        err = np.abs(analytic - fd)
        large = np.abs(fd) >= 1e-3
        if large.any():
            rel = np.max(err[large] / np.abs(fd[large]))
            assert rel <= 1e-6, f"{name}: relative error {rel:.3e}"
            worst_rel = max(worst_rel, rel)
        if (~large).any():
            absdev = np.max(err[~large])
            assert absdev <= 1e-4, f"{name}: absolute error {absdev:.3e}"
            worst_abs = max(worst_abs, absdev)
    elapsed = build_time + time.perf_counter() - start
    assert elapsed < 120.0
    with capsys.disabled():
        print(f"\nPASS 1 finite-difference scores: worst rel {worst_rel:.2e} "
              f"(gate 1e-06), worst abs {worst_abs:.2e} (gate 1e-04), "
              f"{elapsed:.1f} s")


def test_02_scores_match_brute_force_integration(binom_fit, poisson_fit,
                                                 capsys):
    """llcont and scores vs Simpson-grid integration on random clusters.

    Gate: absolute deviation <= 1e-8 on 10 clusters, runtime under 30 s.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for fitted, fam, link in [(binom_fit, "binomial", "logit"),
                              (poisson_fit, "poisson", "log")]:
        data = fitted.data
        ll = llcont(fitted, 25)
        scores = estfun(fitted, "theta", n_points=25).values
        p = data.n_fixed
        lam = float(fitted.theta[0])
        for idx in rng.choice(data.n_clusters, size=5, replace=False):
            rows = np.flatnonzero(data.cluster_index == idx)
            o_ll, o_beta, o_theta = simpson_cluster(
                data.y[rows], data.X[rows], data.Z[rows].ravel(),
                fitted.beta, lam, fam, link)
            dev = max(abs(ll[idx] - o_ll),
                      np.max(np.abs(scores[idx, :p] - o_beta)),
                      abs(scores[idx, p] - o_theta))
            assert dev <= 1e-8, f"{fam} cluster {idx}: deviation {dev:.3e}"
            worst = max(worst, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"PASS 2 brute-force integration: worst dev {worst:.2e} "
              f"(gate 1e-08), {elapsed:.1f} s")


def _std_normal_moment(k):
    """E[v^k] for v standard normal: (k-1)!! for even k, else 0."""
    if k % 2:
        return 0.0
    if k == 0:
        return 1.0
    return float(factorial2(k - 1))


def _gaussian_monomial_moment(powers, chol):
    """E[prod_j u_j^powers[j]] for u = chol @ v with v standard normal."""
    if len(powers) == 1:
        return chol[0, 0] ** powers[0] * _std_normal_moment(powers[0])
    a, b = powers
    total = 0.0
    for j in range(b + 1):
        total += (comb(b, j) * chol[1, 0] ** j * chol[1, 1] ** (b - j)
                  * _std_normal_moment(a + j) * _std_normal_moment(b - j))
    return chol[0, 0] ** a * total


def test_03_adapted_quadrature_polynomial_exactness(capsys):
    """Adapted rules hit Gaussian monomial moments of degree <= 2M - 1.

    The integrand is monomial(u) times the density ratio N(0, G)/N(0, I),
    integrated against the identity prior with the rule anchored at the
    origin and scaled by chol(G); that reduces exactly to a polynomial in
    the underlying Hermite variables.  Gate: scaled error <= 1e-10 for
    M in 1..10, d in {1, 2}.
    """
    cases = [np.array([[0.5]]), np.array([[1.3]]),
             np.array([[0.8, 0.0], [0.35, 0.6]])]
    worst = 0.0
    count = 0
    for chol in cases:
        d = chol.shape[0]
        cov = chol @ chol.T
        ratio_num = multivariate_normal(mean=np.zeros(d), cov=cov)
        ratio_den = multivariate_normal(mean=np.zeros(d), cov=np.eye(d))
        for m in range(1, 11):
            adapted = adapt_rule(gh_rule(m, d), np.zeros(d), chol, np.eye(d))
            degree = 2 * m - 1
            power_grid = (
                [(a,) for a in range(degree + 1)] if d == 1 else
                [(a, b) for a, b in product(range(degree + 1), repeat=2)
                 if a + b <= degree]
            )
            for powers in power_grid:
                def integrand(u, powers=powers):
                    mono = np.prod(np.asarray(u) ** np.asarray(powers))
                    return mono * np.exp(ratio_num.logpdf(u)
                                         - ratio_den.logpdf(u))
                value = integrate_cluster(integrand, adapted)
                expected = _gaussian_monomial_moment(powers, chol)
                scale = max(1.0, sum(
                    w * abs(integrand(loc))
                    for loc, w in zip(adapted.locations, adapted.weights)))
                err = abs(value - expected) / scale
                assert err <= 1e-10, (
                    f"d={d} M={m} powers={powers}: scaled error {err:.3e}")
                worst = max(worst, err)
                count += 1
    with capsys.disabled():
        print(f"PASS 3 quadrature exactness: worst scaled err {worst:.2e} "
              f"(gate 1e-10) over {count} monomials")


def test_04_loglik_and_gradient_stabilize_in_points(capsys):
    """Count-model total loglik and standardized gradient vs M = 10.

    The gradient is standardized by the sampling standard error of the
    total score (square root of the meat diagonal).  Gate: loglik drift
    < 1e-3 and standardized gradient drift < 0.01 for M in 5..9, runtime
    under 1 minute.
    """
    start = time.perf_counter()
    sim = make_counts_data(seed=1)
    fitted = fit(sim.data, "poisson", control=FitControl(n_points=7,
                                                         restarts=1))
    ll_ref = llcont(fitted, 10).sum()
    grad_ref = gradient(fitted, "var", 10)
    score_se = np.sqrt(np.diag(sandwich_vcov(fitted, "var", n_points=10).B))
    worst_ll = 0.0
    drifts = []
    for m in range(5, 10):
        dll = abs(llcont(fitted, m).sum() - ll_ref)
        drift = np.max(np.abs(gradient(fitted, "var", m) - grad_ref)
                       / score_se)
        assert dll < 1e-3, f"M={m}: loglik drift {dll:.3e}"
        assert drift < 0.01, f"M={m}: standardized gradient drift {drift:.3e}"
        worst_ll = max(worst_ll, dll)
        drifts.append(drift)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(f"PASS 4 quadrature stabilization: worst loglik drift "
              f"{worst_ll:.2e} (gate 1e-03), gradient drifts "
              f"{', '.join(f'{d:.1e}' for d in drifts)} (gate 1e-02), "
              f"{elapsed:.1f} s")


def test_05_item_response_standard_errors(capsys):
    """Robust and model SEs on the five-item benchmark vs references.

    Gate: each of the six standard errors within +/- 0.002 of its
    reference value, runtime under 5 minutes.
    """
    start = time.perf_counter()
    robust_ref = np.array([0.0996, 0.0814, 0.0898, 0.0785, 0.1058, 0.1311])
    model_ref = np.array([0.1004, 0.0811, 0.0913, 0.0787, 0.1037, 0.1300])
    fitted = fit(load_lsat7(), "binomial",
                 control=FitControl(n_points=7, restarts=1))
    sw = sandwich_vcov(fitted, "var", n_points=5)
    robust_diff = np.max(np.abs(sw.robust_se - robust_ref))
    model_diff = np.max(np.abs(sw.model_se - model_ref))
    assert robust_diff <= 0.002, f"robust SE diff {robust_diff:.4f}"
    assert model_diff <= 0.002, f"model SE diff {model_diff:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    with capsys.disabled():
        print(f"PASS 5 benchmark standard errors: robust diff "
              f"{robust_diff:.4f}, model diff {model_diff:.4f} "
              f"(gate 0.002), {elapsed:.1f} s")


def test_06_rasch_scores_match_irt_oracle(capsys):
    """Mixed-model scores vs a direct item-response-theory oracle.

    Gate: max absolute deviation <= 1e-3 and per-parameter correlation
    >= 0.99999 on 1,000 simulated subjects, runtime under 5 minutes.
    """
    start = time.perf_counter()
    sim = make_rasch_data(1000, seed=606)
    fitted = load_fitted(sim.beta, sim.theta, sim.data, "binomial",
                         n_points=7)
    scores = estfun(fitted, "theta", n_points=7).values
    n_items = sim.beta.size
    _, o_beta, o_sd = irt_rasch(sim.data.y.reshape(-1, n_items), sim.beta,
                                float(sim.theta[0]))
    oracle = np.column_stack([o_beta, o_sd])
    dev = np.max(np.abs(scores - oracle))
    corr = min(np.corrcoef(scores[:, j], oracle[:, j])[0, 1]
               for j in range(oracle.shape[1]))
    assert dev <= 1e-3, f"max deviation {dev:.3e}"
    assert corr >= 0.99999, f"min correlation {corr:.6f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    with capsys.disabled():
        print(f"PASS 6 item-response oracle: max dev {dev:.2e} "
              f"(gate 1e-03), min corr {corr:.7f} (gate 0.99999), "
              f"{elapsed:.1f} s")


@pytest.mark.slow
def test_07_stability_test_size_under_null(capsys):
    """Rejection rate of DM and maxLM under a correctly specified null.

    Gate: empirical size at alpha = 0.05 within [0.01, 0.09] over 200
    seeded replications, runtime under 10 minutes.
    """
    start = time.perf_counter()
    n_reps = 200
    rejects = {"DM": 0, "maxLM": 0}
    done = 0
    attempt = 0
    while done < n_reps:
        sim = make_glmm_data("binomial", n_clusters=50, cluster_size=5,
                             seed=20000 + attempt)
        ordering = np.random.default_rng(50000 + attempt).standard_normal(50)
        attempt += 1
        try:
            fitted = fit(sim.data, "binomial",
                         control=FitControl(restarts=1))
            scores = estfun(fitted, "var", n_points=5)
        except GlmmKitError:
            continue
        for functional in rejects:
            result = sctest(fitted, ordering, functional=functional,
                            scores=scores, n_sim=2000, seed=done)
            if result.p_value < 0.05:
                rejects[functional] += 1
        done += 1
    rates = {name: count / n_reps for name, count in rejects.items()}
    for name, rate in rates.items():
        assert 0.01 <= rate <= 0.09, f"{name}: size {rate:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    with capsys.disabled():
        print(f"PASS 7 stability-test size: DM {rates['DM']:.3f}, "
              f"maxLM {rates['maxLM']:.3f} (gate [0.01, 0.09]), "
              f"{attempt - n_reps} skipped fits, {elapsed:.1f} s")


@pytest.mark.slow
def test_08_vuong_degeneracy_and_nested_power(binom_fit, capsys):
    """Variance-test degeneracy on identical models, nested-test power.

    Gates: omega2 exactly zero (p exactly 1) for a model against itself;
    the nested test rejects at p < 0.01 in at least 95 of 100
    replications with a strong omitted predictor.
    """
    start = time.perf_counter()
    self_test = vuong_variance_test(binom_fit, binom_fit, seed=11)
    assert self_test.omega2 == 0.0
    assert self_test.p_value == 1.0
    hits = 0
    for k in range(100):
        sim = make_glmm_data("binomial", beta=(0.3, 1.2), n_clusters=50,
                             cluster_size=6, seed=30000 + k)
        d = sim.data
        reduced_data = GlmmData.from_arrays(d.y, d.X[:, :1], d.Z,
                                            d.cluster_index,
                                            x_names=d.x_names[:1])
        full = fit(d, "binomial", control=FitControl(restarts=1))
        reduced = fit(reduced_data, "binomial",
                      control=FitControl(restarts=1))
        result = vuong_lr_test(full, reduced, nested=True, n_sim=2000,
                               seed=k, parameterization="theta")
        if result.p_value < 0.01:
            hits += 1
    assert hits >= 95, f"nested power {hits}/100"
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"PASS 8 model-comparison tests: self omega2 "
              f"{self_test.omega2}, nested power {hits}/100 (gate >= 95), "
              f"{elapsed:.1f} s")


def test_09_hessian_glm_slice_symmetry_definiteness(testbed_fits, capsys):
    """Hessian gates: GLM slice, symmetry, negative definiteness.

    At a zero random-effect variance the fixed-effect block must equal
    the closed-form GLM Hessian (relative error <= 1e-5) with the
    boundary parameter reported as one-sided.  On the interior testbed
    fits the unsymmetrized cross derivatives must agree to 1e-3 of the
    Hessian scale and the returned matrix must be negative definite.
    """
    sim = make_glmm_data("poisson", beta=(0.4, 0.3), n_clusters=40,
                         cluster_size=6, seed=900)
    beta0 = np.array([0.38, 0.27])
    frozen = load_fitted(beta0, [0.0], sim.data, "poisson", n_points=7)
    result = hessian(frozen, "theta")
    mu = np.exp(sim.data.X @ beta0)
    expected = -(sim.data.X * mu[:, None]).T @ sim.data.X
    block = result.values[:2, :2]
    rel = np.max(np.abs(block - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-5, f"GLM slice relative error {rel:.3e}"
    assert result.one_sided == (2,)

    fits, _ = testbed_fits
    worst_asym = 0.0
    largest_eig = -np.inf
    for name, fitted in fits:
        raw = raw_fd_hessian(fitted, 7)
        asym = np.max(np.abs(raw - raw.T)) / np.max(np.abs(raw))
        assert asym <= 1e-3, f"{name}: relative asymmetry {asym:.3e}"
        worst_asym = max(worst_asym, asym)
        returned = hessian(fitted, "var")
        assert returned.one_sided == ()
        top = np.max(np.linalg.eigvalsh(returned.values))
        assert top < 0.0, f"{name}: largest eigenvalue {top:.3e}"
        largest_eig = max(largest_eig, top)
    with capsys.disabled():
        print(f"PASS 9 Hessian checks: GLM-slice rel {rel:.2e} "
              f"(gate 1e-05), worst asymmetry {worst_asym:.2e} "
              f"(gate 1e-03), largest eigenvalue {largest_eig:.3e}")
