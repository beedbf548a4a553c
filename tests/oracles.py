"""Independent reference implementations used only by the tests.

Everything here is written directly from model definitions with scipy
primitives, deliberately sharing no quadrature or derivative code with
the package, so agreement between the two is evidence and not tautology.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.integrate import simpson
from scipy.special import gammaln, ndtr
from scipy.stats import norm

import glmmkit


# ---------------------------------------------------------------------------
# family primitives, re-derived


def _inverse_link(link, eta):
    if link == "logit":
        return 1.0 / (1.0 + np.exp(-eta))
    if link == "probit":
        return ndtr(eta)
    if link == "cloglog":
        return -np.expm1(-np.exp(eta))
    if link == "log":
        return np.exp(eta)
    raise ValueError(link)


def _dmu_deta(link, eta):
    if link == "logit":
        p = 1.0 / (1.0 + np.exp(-eta))
        return p * (1.0 - p)
    if link == "probit":
        return norm.pdf(eta)
    if link == "cloglog":
        return np.exp(eta - np.exp(eta))
    if link == "log":
        return np.exp(eta)
    raise ValueError(link)


def _log_density(family, y, mu):
    if family == "binomial":
        mu = np.clip(mu, 1e-300, 1.0 - 1e-16)
        return y * np.log(mu) + (1.0 - y) * np.log1p(-mu)
    if family == "poisson":
        mu = np.clip(mu, 1e-300, None)
        return y * np.log(mu) - mu - gammaln(y + 1.0)
    raise ValueError(family)


def _variance(family, mu):
    if family == "binomial":
        return mu * (1.0 - mu)
    if family == "poisson":
        return mu
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Simpson-grid marginal likelihood and scores, q = 1 only


def simpson_cluster(y, x, z, beta, lam, family, link,
                    n_panels=10_000, limit=8.0):
    """Marginal loglik and scores of one cluster by brute-force quadrature.

    Integrates over the standardized random effect u on [-limit, limit]
    with a composite Simpson rule.  Returns (loglik, beta_scores,
    theta_score) where theta is the factor scale lam itself.
    """
    y = np.asarray(y, float)
    x = np.atleast_2d(np.asarray(x, float))
    z = np.asarray(z, float).ravel()
    beta = np.asarray(beta, float).ravel()

    grid = np.linspace(-limit, limit, n_panels + 1)
    eta = (x @ beta)[None, :] + (z * lam)[None, :] * grid[:, None]
    mu = _inverse_link(link, eta)
    logf = _log_density(family, y[None, :], mu).sum(axis=1)
    log_joint = logf + norm.logpdf(grid)

    shift = log_joint.max()
    dens = np.exp(log_joint - shift)
    mass = simpson(dens, x=grid)
    loglik = shift + np.log(mass)

    resid = (y[None, :] - mu) * _dmu_deta(link, eta) / _variance(family, mu)
    beta_kernel = resid @ x                            # (grid, p)
    theta_kernel = (resid @ z) * grid                  # (grid,)

    beta_scores = simpson(dens[:, None] * beta_kernel, x=grid, axis=0) / mass
    theta_score = simpson(dens * theta_kernel, x=grid) / mass
    return loglik, beta_scores, theta_score


# ---------------------------------------------------------------------------
# node-by-node per-cluster scores on the fit's own anchors


def _hermite_grid(n_points, dim):
    """Tensor Gauss-Hermite rule for E[f(U)], U ~ N(0, I_dim)."""
    x, w = np.polynomial.hermite.hermgauss(n_points)
    axes = [np.sqrt(2.0) * x] * dim
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
    weights = np.prod(np.stack(
        [g.ravel() for g in np.meshgrid(*([w / np.sqrt(np.pi)] * dim),
                                        indexing="ij")], axis=1), axis=1)
    return nodes, weights


def _cluster_position(fit, cluster):
    ids = fit.data.cluster_ids
    if cluster in ids:
        return ids.index(cluster)
    idx = int(cluster)
    if not 0 <= idx < len(ids):
        raise ValueError(f"unknown cluster {cluster!r}")
    return idx


def cluster_scores(fit, cluster, n_points=5):
    """Beta and theta scores of one cluster, looping over the nodes.

    Anchors a tensor Gauss-Hermite rule at the cluster's stored posterior
    mode b with conditional factor C (u = b + C a, log weight log w +
    log det C + ||a||^2/2 - ||u||^2/2 for the N(0, I) prior on u) and
    forms the ratio of integrals of score times density over density,
    with the general residual (y - mu) mu'(eta) / V(mu) at every link.
    ``cluster`` is a cluster label or a position.
    """
    data = fit.data
    idx = _cluster_position(fit, cluster)
    rows = data.rows(idx)
    y, x, z = data.y[rows], data.X[rows], data.Z[rows]
    q = data.n_random
    lam = fit.lambda_matrix
    mode, chol = fit.modes[idx], fit.cond_chol[idx]
    family, link = fit.family.family, fit.family.link
    if fit.structure == "diagonal":
        positions = [(a, a) for a in range(q)]
    else:   # column-major lower triangle
        positions = [(a, b) for b in range(q) for a in range(b, q)]
    nodes, weights = _hermite_grid(n_points, q)
    logdet = np.sum(np.log(np.diag(chol)))

    log_terms, beta_kernels, theta_kernels = [], [], []
    for a, w in zip(nodes, weights):
        u = mode + chol @ a
        eta = x @ fit.beta + z @ (lam @ u)
        mu = _inverse_link(link, eta)
        log_terms.append(np.log(w) + logdet + 0.5 * a @ a - 0.5 * u @ u
                         + _log_density(family, y, mu).sum())
        resid = (y - mu) * _dmu_deta(link, eta) / _variance(family, mu)
        beta_kernels.append(x.T @ resid)
        zr = z.T @ resid
        theta_kernels.append([zr[i] * u[j] for i, j in positions])
    log_terms = np.asarray(log_terms)
    post = np.exp(log_terms - log_terms.max())
    post /= post.sum()
    return post @ np.asarray(beta_kernels), post @ np.asarray(theta_kernels)


def score_beta_cluster(fit, cluster, n_points=5):
    """Score of one cluster's log marginal likelihood w.r.t. beta."""
    return cluster_scores(fit, cluster, n_points)[0]


def score_theta_cluster(fit, cluster, n_points=5):
    """Score of one cluster's log marginal likelihood w.r.t. theta."""
    return cluster_scores(fit, cluster, n_points)[1]


# ---------------------------------------------------------------------------
# finite differences of the package's own per-cluster loglik


def fd_scores_fixed_anchor(fit, n_points=None, h=1e-5):
    """Central finite differences of llcont over (beta, theta).

    The perturbed evaluations reuse the quadrature anchors stored in the
    fit (dataclasses.replace keeps modes and conditional factors), so this
    differentiates exactly the function the analytic scores claim to
    differentiate.
    """
    def ll_at(beta, theta):
        shifted = dataclasses.replace(fit, beta=beta, theta=theta)
        return glmmkit.llcont(shifted, n_points=n_points)

    p, k = fit.beta.size, fit.theta.size
    columns = []
    for j in range(p + k):
        beta_hi, theta_hi = fit.beta.copy(), fit.theta.copy()
        beta_lo, theta_lo = fit.beta.copy(), fit.theta.copy()
        if j < p:
            beta_hi[j] += h
            beta_lo[j] -= h
        else:
            theta_hi[j - p] += h
            theta_lo[j - p] -= h
        columns.append((ll_at(beta_hi, theta_hi) - ll_at(beta_lo, theta_lo))
                       / (2.0 * h))
    return np.column_stack(columns)


def fd_gradient(func, x0, h=1e-6):
    """Plain central-difference gradient of a scalar function."""
    x0 = np.asarray(x0, float)
    grad = np.empty_like(x0)
    for j in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[j] += h
        lo[j] -= h
        grad[j] = (func(hi) - func(lo)) / (2.0 * h)
    return grad


def raw_fd_hessian(fitted, n_points):
    """Unsymmetrized central-difference Hessian over (beta, theta), each
    column from two fits rehydrated with cold-started modes."""
    beta, theta = fitted.beta, fitted.theta
    p, k = beta.size, theta.size
    columns = []
    for j in range(p + k):
        hi_b, lo_b = beta.copy(), beta.copy()
        hi_t, lo_t = theta.copy(), theta.copy()
        x0 = beta[j] if j < p else theta[j - p]
        h = max(1e-5, 1e-5 * abs(x0))
        if j < p:
            hi_b[j] += h
            lo_b[j] -= h
        else:
            hi_t[j - p] += h
            lo_t[j - p] -= h
        g_hi = glmmkit.gradient(glmmkit.load_fitted(
            hi_b, hi_t, fitted.data, fitted.family, n_points=n_points),
            "theta", n_points)
        g_lo = glmmkit.gradient(glmmkit.load_fitted(
            lo_b, lo_t, fitted.data, fitted.family, n_points=n_points),
            "theta", n_points)
        columns.append((g_hi - g_lo) / (2.0 * h))
    return np.column_stack(columns)


# ---------------------------------------------------------------------------
# direct item-response-theory Rasch oracle


def irt_rasch(y_matrix, item_effects, sd, n_points=61):
    """Marginal logliks and scores of a Rasch model, IRT-style.

    The model is written as P(y_ij = 1 | a_i) = logistic(beta_j + a_i)
    with ability a_i ~ N(0, sd^2), integrated with a fixed (non-adaptive)
    Gauss-Hermite rule on the ability scale.  Returns (loglik_i,
    score_beta_i (I, J), score_sd_i) with the sd-scale hyperparameter
    score in the last slot.
    """
    y = np.asarray(y_matrix, float)            # (I, J)
    beta = np.asarray(item_effects, float)
    nodes, weights = np.polynomial.hermite.hermgauss(n_points)
    ability = np.sqrt(2.0) * sd * nodes        # N(0, sd^2) change of variable
    logw = np.log(weights) - 0.5 * np.log(np.pi)

    eta = beta[None, :] + ability[:, None]     # (nodes, J)
    p = 1.0 / (1.0 + np.exp(-eta))
    logp = -np.log1p(np.exp(-eta))
    log1mp = -np.log1p(np.exp(eta))

    # (I, nodes): conditional loglik of each response row at each node
    cond = y @ logp.T + (1.0 - y) @ log1mp.T
    joint = cond + logw[None, :]
    shift = joint.max(axis=1, keepdims=True)
    dens = np.exp(joint - shift)
    mass = dens.sum(axis=1)
    loglik = shift[:, 0] + np.log(mass)
    post = dens / mass[:, None]                # (I, nodes)

    # E_post[y_ij - p_j(a)]
    score_beta = y - post @ p
    # d eta / d sd = a / sd = u, the standardized ability
    u = ability / sd
    kernel = (y[:, None, :] - p[None, :, :]).sum(axis=2) * u[None, :]
    score_sd = (post * kernel).sum(axis=1)
    return loglik, score_beta, score_sd
