"""Family and link functions against scipy closed forms."""

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit, ndtr

from glmmkit import ConfigError, family_spec
from glmmkit.families import as_family_spec


ETA = np.array([-3.0, -0.7, 0.0, 0.4, 2.5])


def test_logit_inverse_link_matches_expit():
    fam = family_spec("binomial", "logit")
    np.testing.assert_allclose(fam.inverse_link(ETA), expit(ETA), rtol=1e-14)


def test_probit_inverse_link_matches_normal_cdf():
    fam = family_spec("binomial", "probit")
    np.testing.assert_allclose(fam.inverse_link(ETA), ndtr(ETA), rtol=1e-14)


def test_cloglog_inverse_link_closed_form():
    fam = family_spec("binomial", "cloglog")
    np.testing.assert_allclose(fam.inverse_link(ETA),
                               1.0 - np.exp(-np.exp(ETA)), rtol=1e-12)


def test_log_inverse_link_is_exp():
    fam = family_spec("poisson", "log")
    np.testing.assert_allclose(fam.inverse_link(ETA), np.exp(ETA), rtol=1e-14)


@pytest.mark.parametrize("family,link", [
    ("binomial", "logit"), ("binomial", "probit"),
    ("binomial", "cloglog"), ("poisson", "log"),
])
def test_mu_derivatives_match_finite_differences(family, link):
    # each eta-derivative of mu against central differences of the one
    # before it, starting from the inverse link; moderate eta only, since
    # near the mean-space boundary the differences lose accuracy long
    # before the analytic forms do.  Only the second derivative takes an
    # absolute tolerance: it is zero at eta = 0 under logit and cloglog
    # (measured gaps at most 8e-11; the third's at most 1.5e-10 relative)
    fam = family_spec(family, link)
    eta = np.array([-2.0, -0.7, 0.0, 0.4, 1.2])
    h = 1e-5
    for derivative, before, atol in ((fam._dmu_deta, fam.inverse_link, 0.0),
                                     (fam._d2mu_deta2, fam._dmu_deta, 1e-9),
                                     (fam._d3mu_deta3, fam._d2mu_deta2, 0.0)):
        fd = (before(eta + h) - before(eta - h)) / (2 * h)
        np.testing.assert_allclose(derivative(eta), fd, rtol=1e-8, atol=atol)


def _log_density(fam, y, mu):
    kappa = fam.canonical_parameter(mu)
    return y * kappa - fam.cumulant(kappa) + fam.log_normalizer(y)


def test_binomial_log_density_matches_scipy():
    fam = family_spec("binomial", "logit")
    y = np.array([0.0, 1.0, 1.0, 0.0])
    mu = np.array([0.2, 0.2, 0.9, 0.55])
    np.testing.assert_allclose(_log_density(fam, y, mu),
                               stats.bernoulli.logpmf(y.astype(int), mu),
                               rtol=1e-12)


def test_poisson_log_density_matches_scipy():
    fam = family_spec("poisson", "log")
    y = np.array([0.0, 1.0, 4.0, 11.0])
    mu = np.array([0.5, 1.0, 3.2, 9.0])
    np.testing.assert_allclose(_log_density(fam, y, mu),
                               stats.poisson.logpmf(y.astype(int), mu),
                               rtol=1e-12)


def test_variance_functions():
    binom = family_spec("binomial", "logit")
    pois = family_spec("poisson", "log")
    mu = np.array([0.1, 0.4, 0.9])
    np.testing.assert_allclose(binom.variance_function(mu), mu * (1 - mu))
    lam = np.array([0.3, 2.0, 7.5])
    np.testing.assert_allclose(pois.variance_function(lam), lam)


def test_canonical_flags():
    assert family_spec("binomial", "logit").canonical
    assert family_spec("poisson", "log").canonical
    assert not family_spec("binomial", "probit").canonical
    assert not family_spec("binomial", "cloglog").canonical


def test_default_links():
    assert family_spec("binomial").link == "logit"
    assert family_spec("poisson").link == "log"


def test_unknown_family_and_link_raise():
    with pytest.raises(ConfigError):
        family_spec("gamma")
    with pytest.raises(ConfigError):
        family_spec("poisson", "probit")


def test_as_family_spec_passthrough_and_coercion():
    fam = family_spec("binomial", "probit")
    assert as_family_spec(fam) is fam
    assert as_family_spec("poisson").link == "log"


def test_validate_support_rejects_bad_responses():
    binom = family_spec("binomial", "logit")
    with pytest.raises(ConfigError):
        binom.validate_support(np.array([0.0, 0.5, 1.0]))
    pois = family_spec("poisson", "log")
    with pytest.raises(ConfigError):
        pois.validate_support(np.array([1.0, -2.0]))
    # clean vectors pass silently
    binom.validate_support(np.array([0.0, 1.0, 1.0]))
    pois.validate_support(np.array([0.0, 3.0, 11.0]))
