"""Independent reference implementations used only by the tests.

Everything here is written directly from model definitions with scipy
primitives, deliberately sharing no quadrature or derivative code with
the package, so agreement between the two is evidence and not tautology.
The one exception is the reference replays: the package's mode solver as
a plain Newton loop on its own family primitives and batched LAPACK
linear algebra at every q, and its adapted grid, exact-gradient anchor
terms, anchor motion and anchored Hessian in their general matrix form at
every q.  The package forms all of these from scalar closed forms at
q = 1, and must agree with the replays bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad, simpson
from scipy.optimize import minimize
from scipy.special import gammaln, ive, ndtr
from scipy.stats import norm

import glmmkit
from glmmkit import covariance as cov
from glmmkit.derivatives import (HessianResult, _derivative_rule, _scores,
                                 estfun)
from glmmkit.estimation import (_MODE_MAX_ITER, _MODE_TOL, FittedGlmm,
                                _build_eta, _curvatures, conditional_modes)
from glmmkit.exceptions import (EstimationError, IngestionError,
                                SingularityError)
from glmmkit.quadrature import GhRule


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
    rows = slice(data.offsets[idx], data.offsets[idx + 1])
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
# the package's former finite-difference Hessian: central differences of
# the total score, modes re-solved warm at every perturbed point

_FD_STEP = 1e-5


def _parameter_vector(fit: FittedGlmm, parameterization: str) -> np.ndarray:
    if parameterization == "theta":
        return np.concatenate([fit.beta, fit.theta])
    G = cov.lambda_to_G(fit.lambda_matrix)
    positions = cov.var_positions(fit.data.n_random, fit.structure)
    if parameterization == "var":
        tail = [G[i, j] for i, j in positions]
    else:
        sd = np.sqrt(np.diag(G))
        tail = [sd[i] if i == j else G[i, j] / (sd[i] * sd[j])
                for i, j in positions]
    return np.concatenate([fit.beta, tail])


def _theta_from_vector(tail: np.ndarray, q: int, structure: str,
                       parameterization: str) -> np.ndarray | None:
    """Rebuild theta from a var- or sd-scale tail; None when infeasible."""
    positions = cov.var_positions(q, structure)
    G = np.zeros((q, q))
    if parameterization == "var":
        for value, (i, j) in zip(tail, positions):
            G[i, j] = G[j, i] = value
    else:
        sd = np.empty(q)
        for value, (i, j) in zip(tail, positions):
            if i == j:
                sd[i] = value
        if np.any(sd <= 0.0):
            return None
        for value, (i, j) in zip(tail, positions):
            G[i, j] = G[j, i] = sd[i] * sd[j] if i == j else value * sd[i] * sd[j]
    if structure == "diagonal":
        diag = np.diag(G)
        if np.any(diag <= 0.0):
            return None
        return np.sqrt(diag)
    try:
        lam = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return None
    return np.array([lam[i, j] for i, j in cov.free_positions(q, structure)])


def _gradient_at(vector: np.ndarray, fit: FittedGlmm, parameterization: str,
                 rule: GhRule) -> np.ndarray | None:
    """Total gradient at a perturbed vector, modes re-solved from fit.modes."""
    p = fit.data.n_fixed
    beta = vector[:p]
    if parameterization == "theta":
        theta = vector[p:]
        if np.any(theta[_diag_positions(fit)] < 0.0):
            return None
    else:
        theta = _theta_from_vector(vector[p:], fit.data.n_random,
                                   fit.structure, parameterization)
        if theta is None:
            return None
    lam = cov.theta_to_lambda(theta, fit.data.n_random, fit.structure)
    try:
        modes, chols = conditional_modes(beta, lam, fit.data, fit.family,
                                         start=fit.modes)
    except (EstimationError, np.linalg.LinAlgError):
        return None
    return _scores(fit, beta, theta, modes, chols, rule,
                   parameterization).sum(axis=0)


def _diag_positions(fit: FittedGlmm) -> list[int]:
    return [idx for idx, (i, j)
            in enumerate(cov.free_positions(fit.data.n_random, fit.structure))
            if i == j]


def fd_hessian(fit: FittedGlmm, parameterization: str = "var",
               n_points: int | None = None) -> HessianResult:
    """Hessian of the total log-likelihood by central finite differences
    of the analytic gradient.

    Each of the 2(p+k) perturbations re-solves the posterior modes,
    starting from the fitted modes, before evaluating the gradient (step
    ``max(1e-5, 1e-5 |param|)``).  When a perturbation leaves the
    parameter space (a variance pushed negative, a correlation matrix
    losing positive definiteness) that column falls back to a one-sided
    difference and is flagged in ``one_sided``.  The result is
    symmetrized as ``(H + H') / 2``.
    """
    cov.validate_parameterization(parameterization)
    if fit.boundary and parameterization != "theta":
        raise SingularityError(
            "fit is on the boundary; request the theta parameterization"
        )
    rule = _derivative_rule(fit, n_points)
    x0 = _parameter_vector(fit, parameterization)
    n = x0.size
    matrix = np.empty((n, n))
    center = None
    one_sided: list[int] = []
    for j in range(n):
        h = max(_FD_STEP, _FD_STEP * abs(x0[j]))
        plus = x0.copy()
        plus[j] += h
        minus = x0.copy()
        minus[j] -= h
        g_plus = _gradient_at(plus, fit, parameterization, rule)
        g_minus = _gradient_at(minus, fit, parameterization, rule)
        if g_plus is not None and g_minus is not None:
            matrix[:, j] = (g_plus - g_minus) / (2.0 * h)
            continue
        if g_plus is None and g_minus is None:
            raise SingularityError(
                f"both perturbations of parameter {j} left the parameter space"
            )
        if center is None:
            center = _gradient_at(x0, fit, parameterization, rule)
            if center is None:
                raise SingularityError("gradient undefined at the fitted value")
        one_sided.append(j)
        if g_plus is not None:
            matrix[:, j] = (g_plus - center) / h
        else:
            matrix[:, j] = (center - g_minus) / h
    matrix = 0.5 * (matrix + matrix.T)
    return HessianResult(values=matrix,
                         labels=tuple(fit.parameter_labels(parameterization)),
                         parameterization=parameterization,
                         m_used=rule.points_per_dim,
                         scores=estfun(fit, parameterization,
                                       rule.points_per_dim),
                         one_sided=tuple(one_sided))


# ---------------------------------------------------------------------------
# reference mode solver


def lapack_penalized_curvature(weight, lam, data):
    """Lambda' Z_i' diag(weight) Z_i Lambda + I for every cluster, as the
    batched einsum at every q (the package multiplies it out at q = 1)."""
    q = data.n_random
    ztwz = data.sum_by_cluster(
        data.Z[:, :, None] * data.Z[:, None, :] * weight[:, None, None])
    hess = np.einsum("ab,ibc,cd->iad", lam.T, ztwz, lam)
    hess[:, np.arange(q), np.arange(q)] += 1.0
    return hess


def lapack_conditional_factor(m_obs, m_exp, lam, data):
    """The conditional factors C, C C' = H^-1, by batched LAPACK calls:
    the Cholesky factor of the observed penalized curvature H (of the
    expected one where that is not positive definite), its inverse, and
    the Cholesky factor of the product."""
    try:
        chol_h = np.linalg.cholesky(
            lapack_penalized_curvature(m_obs, lam, data))
    except np.linalg.LinAlgError:
        chol_h = np.linalg.cholesky(
            lapack_penalized_curvature(m_exp, lam, data))
    inv = np.linalg.inv(chol_h)
    return np.linalg.cholesky(np.einsum("iba,ibc->iac", inv, inv))


def plain_conditional_modes(beta, lam, data, family, start=None):
    """``glmmkit.conditional_modes`` written as the plain Newton loop:
    every iteration rebuilds eta, the mean and the objective at the
    current modes, solves the Newton step by LAPACK, and the conditional
    factor is rebuilt from the rows at the modes by LAPACK.  It shares the
    package's family primitives on purpose, so the package's solver,
    which carries its last step-halving trial into the next iteration,
    hands its final rows to the sweep and uses scalar closed forms at
    q = 1, must match it bit for bit.

    Returns the modes, the conditional factors and the counts: Newton
    iterations, step-halving trials after full steps, and (iteration,
    cluster) pairs whose step never improved the objective.  A solve fails
    after its last iteration, or at the first step that leaves a cluster
    unsettled with a gradient entry above 1e-8; it raises with the counts
    as ``.counts``.
    """
    xbeta = data.X @ np.asarray(beta, dtype=float).ravel()
    n_cl, q = data.n_clusters, data.n_random
    u = np.zeros((n_cl, q)) if start is None else np.array(start, dtype=float)
    y = data.y
    log_c = data.sum_by_cluster(family.log_normalizer(y))

    def eta_at(u_cur):
        return _build_eta(xbeta, data, (lam @ u_cur.T)[:, :, None])[:, 0]

    def objective_at(eta, mu, u_cur):
        kappa = family._natural_parameter(eta, mu)
        logf = data.sum_by_cluster(y * kappa - family.cumulant(kappa)) + log_c
        return logf - 0.5 * np.sum(u_cur * u_cur, axis=1)

    counts = {"iterations": 0, "halvings": 0, "unsettled": 0}
    for iteration in range(_MODE_MAX_ITER + 1):
        counts["iterations"] = iteration
        eta = eta_at(u)
        mu = family.inverse_link(eta)
        dmu = family._dmu_deta(eta)
        var = family.variance_function(mu)
        resid = (y - mu) * dmu / var
        grad = data.sum_by_cluster(data.Z * resid[:, None]) @ lam - u
        if np.max(np.abs(grad)) <= (_MODE_TOL if iteration < _MODE_MAX_ITER
                                    else 1e-8):
            break
        if iteration == _MODE_MAX_ITER:
            worst = int(np.argmax(np.max(np.abs(grad), axis=1)))
            err = EstimationError(
                "conditional mode search did not converge for cluster "
                f"{data.cluster_ids[worst]!r}")
            err.counts = counts
            raise err
        hess = lapack_penalized_curvature(dmu * dmu / var, lam, data)
        direction = np.linalg.solve(hess, grad[..., None])[..., 0]
        objective = objective_at(eta, mu, u)
        floor = objective - 1e-12 * (1.0 + np.abs(objective))
        scale = np.ones((n_cl, 1))
        settled = np.zeros(n_cl, dtype=bool)
        for halving in range(30):
            candidate = u + scale * direction
            eta_c = eta_at(candidate)
            mu_c = None if family.canonical else family.inverse_link(eta_c)
            settled |= objective_at(eta_c, mu_c, candidate) >= floor
            if np.all(settled):
                break
            scale[~settled] *= 0.5
        counts["halvings"] += halving
        counts["unsettled"] += int(np.sum(~settled))
        # an unsettled cluster keeps its modes, so it would take this same
        # step again: past the loose tolerance the solve fails here
        stuck = np.where(settled, 0.0, np.max(np.abs(grad), axis=1))
        if stuck.max() > 1e-8:
            err = EstimationError(
                "conditional mode search did not converge for cluster "
                f"{data.cluster_ids[int(np.argmax(stuck))]!r}")
            err.counts = counts
            raise err
        scale[~settled] = 0.0
        u = u + scale * direction

    m_obs, m_exp = _curvatures(eta, mu, dmu, var, y, family)
    return u, lapack_conditional_factor(m_obs, m_exp, lam, data), counts


# ---------------------------------------------------------------------------
# the general matrix forms of the adapted grid and the anchors'
# derivatives, and the adjoint form of the gradient's anchor terms


def matrix_adapted_grid(rule, centers, chols):
    """``quadrature._adapted_grid`` in its matrix form at every d: log
    weights (I, M**d) and locations (d, I, M**d)."""
    locations = np.stack([centers[:, a, None] + chols[:, a, :] @ rule.nodes.T
                          for a in range(rule.dim)])
    logdet = np.sum(np.log(np.diagonal(chols, axis1=1, axis2=2)), axis=1)
    half_sq = 0.5 * np.sum(rule.nodes ** 2, axis=1)
    log_w = (np.log(rule.weights) + half_sq + logdet[:, None]
             - 0.5 * np.sum(locations ** 2, axis=0))
    return log_w, locations


def matrix_anchor_terms(lam, data, modes, chols, positions, state,
                        grad_mean, grad_outer):
    """The independent adjoint-form reference for the part of the exact
    per-cluster gradient through the modes and the conditional factors,
    shape (I, p + k), given the node moments E[grad g] (I, q) and E[grad g
    z'] (I, q, q).  Where the sweep contracts the nodes' motion
    (``estimation._anchor_motion``) with these moments, this pulls them
    back through H^-1: with G = tril E[grad g z'] + diag(1 / C_jj), the
    terms are E[grad g]' da - <B, dH>, B = C Phi(C' G) C' and Phi keeping
    the lower triangle with the diagonal halved, and every parameter
    costs one segment sum.  The Newton step of the expected-curvature
    fallback is LAPACK's."""
    rows = data.cluster_index
    q = data.n_random
    weight, slope = state.weight, state.slope

    diag = np.arange(q)
    chol_t = np.swapaxes(chols, 1, 2)
    g = np.tril(grad_outer)
    g[:, diag, diag] += 1.0 / chols[:, diag, diag]
    inner = np.tril(chol_t @ g)
    inner[:, diag, diag] *= 0.5
    b_mat = chols @ inner @ chol_t
    b_mat = 0.5 * (b_mat + np.swapaxes(b_mat, 1, 2))
    zl = data.Z @ lam
    zlb = np.einsum("nj,njk->nk", zl, b_mat[rows])
    slope_b = slope * np.sum(zlb * zl, axis=1)

    pull = grad_mean - data.sum_by_cluster(zl * slope_b[:, None])
    if state.observed:
        nu = np.einsum("ijk,ilk,il->ij", chols, chols, pull)
    else:
        nu = np.linalg.solve(lapack_penalized_curvature(state.m_obs, lam,
                                                        data),
                             pull[..., None])[..., 0]
    row_weight = state.m_obs * np.sum(zl * nu[rows], axis=1) + slope_b
    zr = data.sum_by_cluster(data.Z * state.resid[:, None])
    zw = data.sum_by_cluster(data.Z * row_weight[:, None])
    zwb = data.sum_by_cluster((data.Z * weight[:, None])[:, :, None]
                              * zlb[:, None, :])
    s_theta = [nu[:, b] * zr[:, a] - modes[:, b] * zw[:, a]
               - 2.0 * zwb[:, a, b] for a, b in positions]
    return np.column_stack([-data.sum_by_cluster(data.X
                                                 * row_weight[:, None]),
                            *s_theta])


def matrix_anchor_motion(lam, data, modes, chols, positions, state,
                         columns, col_of):
    """``estimation._anchor_motion`` in its matrix form at every q: how
    the nodes move with the parameters, shape (I, q, 1 + q, p + k)."""
    p, q = data.n_fixed, data.n_random
    n_cl = data.n_clusters
    lifted = np.array([*range(p), *(p + a for a, _ in positions)])
    factor_of = [b for _, b in positions]
    Z = data.Z

    def z_sums(weight):
        """sum over each cluster's rows of z_a weight d, shape (I, q, d)."""
        return np.stack([data.sum_by_cluster(columns * (weight * Z[:, a]),
                                             axis=1).T[:, col_of]
                         for a in range(q)], axis=1)

    zmd = z_sums(state.m_obs)                                 # Z' diag(m) D
    zr = data.sum_by_cluster(Z * state.resid[:, None])
    mode_mult = np.hstack([np.ones((n_cl, p)), modes[:, factor_of]])
    dgrad = -np.einsum("ja,ijt->iat", lam, zmd[..., lifted]
                       * mode_mult[:, None, :])
    for t, (a, b) in enumerate(positions):
        dgrad[:, b, p + t] += zr[:, a]
    diag = np.arange(q)
    if state.observed:
        da = chols @ (np.swapaxes(chols, 1, 2) @ dgrad)       # C C' dgrad
        zwz = zmd[..., p:]
    else:
        h_obs = np.einsum("ja,ijk,kb->iab", lam, zmd[..., p:], lam)
        h_obs[:, diag, diag] += 1.0
        da = np.linalg.solve(h_obs, dgrad)
        zwz = z_sums(state.m_exp)[..., p:]
    third = np.stack([z_sums(state.slope * Z[:, a]) for a in range(q)],
                     axis=1)                                  # (I, q, q, d)
    deta = (third[..., lifted] * mode_mult[:, None, None, :]
            + np.einsum("iabj,jk,ikt->iabt", third[..., p:], lam, da))
    dh = np.einsum("ja,ijkt,kb->itab", lam, deta, lam)
    wl = zwz @ lam
    for t, (a, b) in enumerate(positions):
        dh[:, p + t, b, :] += wl[:, a, :]
        dh[:, p + t, :, b] += wl[:, a, :]
    inner = np.tril(np.swapaxes(chols, 1, 2)[:, None] @ dh @ chols[:, None])
    inner[..., diag, diag] *= 0.5
    dc = -(chols[:, None] @ inner)
    return np.concatenate([da[:, :, None], np.moveaxis(dc, 1, -1)], axis=2)


def matrix_anchored_hessian(p, lam, positions, nodes, rho, kernel,
                            curvature, pair_of, locations, grad_g, motion):
    """``estimation._anchored_hessian`` in its matrix form at every q:
    the Jacobian of the summed fixed-anchor scores with the anchors
    following the parameters, shape (p + k, p + k)."""
    n_cl, q = rho.shape[0], lam.shape[0]
    n = p + len(positions)
    lifted = np.array([*range(p), *(p + a for a, _ in positions)])
    factor_of = [b for _, b in positions]

    def contract(left, right):
        """sum over clusters of left (I, n, J) times right (I, J, n)."""
        return (np.swapaxes(left, 0, 1).reshape(left.shape[1], -1)
                @ right.reshape(-1, right.shape[-1]))

    # node moments of Q against the monomials of P and of du: products
    # of two factors from [1, z, u]
    u = np.moveaxis(locations, 0, -1)                         # (I, M, q)
    factors = np.concatenate([np.ones(u.shape[:-1] + (1,)),
                              np.broadcast_to(nodes, u.shape), u], axis=-1)
    of_mult = [0] * p + [1 + q + b for b in factor_of]        # factor of P
    of_base = range(q + 1)                                    # of [1, z]
    louis_keys = [[tuple(sorted((f, g))) for g in of_mult] for f in of_mult]
    motion_keys = [[tuple(sorted((f, e))) for e in of_base] for f in of_mult]
    keys = sorted({key for table in (louis_keys, motion_keys)
                   for row in table for key in row})
    slot = {key: k for k, key in enumerate(keys)}
    left, right = np.array(keys).T
    q_moments = np.swapaxes(rho[..., None] * factors[..., left]
                            * factors[..., right], 1, 2) @ curvature

    # the Louis identity at fixed anchors
    s = np.moveaxis(kernel[lifted], 0, -1) * factors[..., of_mult]
    weighted = rho[..., None] * s                             # node scores
    mean_s = weighted.sum(axis=1)
    total = (weighted.reshape(-1, n).T @ s.reshape(-1, n)
             - mean_s.T @ mean_s
             - q_moments.sum(axis=0)[
                 [[slot[key] for key in row] for row in louis_keys],
                 pair_of[np.ix_(lifted, lifted)]])

    # E[dP K du] - E[P Q [0 Lambda]' du]
    base = np.hstack([np.ones((nodes.shape[0], 1)), nodes])
    flat = motion.reshape(n_cl, -1, n)
    q_cols = q_moments[:, np.array([[slot[key] for key in row]
                                    for row in motion_keys])[:, None, :],
                       pair_of[lifted][:, p:, None]]          # (I, n, q, 1+q)
    total -= contract(q_cols.reshape(n_cl, n, -1),
                      np.einsum("jk,iket->ijet", lam, motion).reshape(
                          n_cl, -1, n))
    zr_moments = np.einsum("im,aim,me->iae", rho, kernel[p:], base)
    total[p:] += np.einsum("ire,iret->rt",
                           zr_moments[:, [a for a, _ in positions]],
                           motion[:, factor_of])
    # Cov(P K, grad g' du)
    g_moments = np.einsum("im,jim,me->ije", rho, grad_g,
                          base).reshape(n_cl, 1, -1)
    sg_moments = np.moveaxis(weighted[..., None]
                             * np.moveaxis(grad_g, 0, -1)[:, :, None], 1, -1)
    total += (contract((sg_moments @ base).reshape(n_cl, n, -1), flat)
              - mean_s.T @ (g_moments @ flat)[:, 0])
    return total


# ---------------------------------------------------------------------------
# reference optimizer


def nelder_mead_loglik(data, family, n_points, structure="unstructured",
                       restarts=1):
    """Largest marginal log-likelihood Nelder-Mead finds, derivative-free.

    Maximizes ``glmmkit.load_fitted(...).loglik`` (modes re-solved cold
    at every point) from beta = 0 and the identity factor, folding the
    diagonal of theta to its absolute value, and restarts from the best
    point.
    """
    p, q = data.n_fixed, data.n_random
    if structure == "diagonal":
        positions = [(a, a) for a in range(q)]
    else:   # column-major lower triangle
        positions = [(a, b) for b in range(q) for a in range(b, q)]
    diag = [k for k, (a, b) in enumerate(positions) if a == b]

    def negative_loglik(x):
        theta = x[p:].copy()
        theta[diag] = np.abs(theta[diag])
        try:
            return -glmmkit.load_fitted(x[:p], theta, data, family, n_points,
                                        structure).loglik
        except glmmkit.GlmmKitError:
            return np.inf

    x = np.concatenate([np.zeros(p), np.isin(np.arange(len(positions)),
                                             diag).astype(float)])
    best = np.inf
    for _ in range(restarts + 1):
        result = minimize(negative_loglik, x, method="Nelder-Mead",
                          options={"xatol": 1e-8, "fatol": 1e-10,
                                   "maxfev": 20_000, "adaptive": True})
        x, best = result.x, min(best, result.fun)
    return -best


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


# ---------------------------------------------------------------------------
# simulated nulls, one functional per simulation, and chi-square mixture
# tails


def _functional_mask(name, t_interior, trim):
    if name == "maxLM":
        return (t_interior >= trim[0]) & (t_interior <= trim[1]) \
            & (t_interior < 1.0)
    if name == "maxLM-ordinal":
        return t_interior < 1.0
    return np.ones(t_interior.shape, dtype=bool)


def _functional_values(name, paths, t_interior, mask, n_clusters):
    """One functional of each path in a (n, m, d) batch."""
    if name == "DM":
        return np.abs(paths).max(axis=-1).max(axis=-1)
    sq = np.square(paths).sum(axis=-1)
    if name == "CvM":
        return sq.sum(axis=-1) / n_clusters
    scale = t_interior * (1.0 - t_interior)
    pointwise = np.where(mask, np.divide(
        sq, scale, out=np.zeros_like(sq), where=scale > 0.0), 0.0)
    return pointwise.max(axis=-1)


def bridge_null_reference(name, t_interior, dim, n_clusters, n_sim, seed,
                          trim=(0.1, 0.9), chunk_budget=2 ** 24):
    """Values of one functional on ``n_sim`` simulated Brownian bridges.

    Draws its own bridges from ``default_rng(seed)`` in chunks of whole
    paths of about ``chunk_budget`` grid values, as one array each for
    the increments, the walk and the bridge, and evaluates the named
    functional ("DM", "CvM", "maxLM" or "maxLM-ordinal") on them.
    """
    rng = np.random.default_rng(seed)
    mask = _functional_mask(name, t_interior, trim)
    m = t_interior.shape[0]
    dt = np.diff(np.concatenate(([0.0], t_interior)))
    chunk = max(1, int(chunk_budget // max(m * dim, 1)))
    out = np.empty(n_sim)
    done = 0
    while done < n_sim:
        size = min(chunk, n_sim - done)
        incr = rng.standard_normal((size, m, dim))
        incr *= np.sqrt(dt)[None, :, None]
        walk = np.cumsum(incr, axis=1)
        bridge = walk - t_interior[None, :, None] * walk[:, -1:, :]
        out[done:done + size] = _functional_values(name, bridge, t_interior,
                                                   mask, n_clusters)
        done += size
    return out


def radial_stay_reference(c, t, dim, nodes):
    """P(|B(t_j)|^2 <= c t_j (1 - t_j) at every t_j in ``t``) for a
    dim-dimensional Brownian bridge, as a dense chain on NumPy's
    Gauss-Legendre rule with ``nodes`` nodes per point.

    The norm of the bridge at the points of ``t`` has the joint density
    f(r_1) prod_j p_j(r_{j+1} | r_j) g(r_J): f the density of |W(t_1)| for
    a Brownian motion W, p_j the radial transition density
    (r'^(k/2) r^(1-k/2) / dt) exp(-(r - r')^2 / 2 dt) ive(k/2 - 1, r r' / dt)
    of a k-dimensional step of variance dt, and g(r) = (1 - t_J)^(-k/2)
    exp(-r^2 / 2 (1 - t_J)) the density of returning to the origin at 1,
    relative to that of a bridge started there.
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    band = np.sqrt(c * t * (1.0 - t))
    radii = 0.5 * band[:, None] * (z + 1.0)
    weights = 0.5 * band[:, None] * w
    order = 0.5 * dim - 1.0
    r = radii[0]
    v = weights[0] * np.exp((dim - 1) * np.log(r) - r * r / (2.0 * t[0])
                            - order * np.log(2.0) - gammaln(0.5 * dim)
                            - 0.5 * dim * np.log(t[0]))
    for j in range(t.size - 1):
        dt = t[j + 1] - t[j]
        r, r_next = radii[j][:, None], radii[j + 1][None, :]
        kernel = (r_next ** (0.5 * dim) * r ** (1.0 - 0.5 * dim) / dt
                  * np.exp(-(r - r_next) ** 2 / (2.0 * dt))
                  * ive(order, r * r_next / dt))
        v = (v @ kernel) * weights[j + 1]
    rest = 1.0 - t[-1]
    return float(v @ (rest ** (-0.5 * dim)
                      * np.exp(-radii[-1] ** 2 / (2.0 * rest))))


def mixture_tail_simulated(weights, value, rng, n_sim,
                           chunk_elements=2 ** 16):
    """P(sum of weighted chi-square(1) >= value), by simulation in chunks
    of about ``chunk_elements`` normals written into one reused buffer.

    A simulated counterpart of ``_nulls._chisq_mixture_tail``; it
    consumes the same stream as ``mixture_tail_reference``.
    """
    k = weights.shape[0]
    if k == 0:
        return 1.0 if value <= 1e-10 else 0.0
    rows = min(n_sim, max(1, chunk_elements // k))
    buffer = np.empty((rows, k))
    count = 0
    for start in range(0, n_sim, rows):
        draws = buffer[:min(rows, n_sim - start)]
        rng.standard_normal(out=draws)
        sims = np.square(draws, out=draws) @ weights
        count += int(np.count_nonzero(sims >= value))
    return count / n_sim


_IMHOF_REACH = 1e100   # where imhof_tail stops integrating


def imhof_tail(weights, value):
    """P(sum of weighted chi-square(1) >= value) by Imhof's (1961)
    real-line integral, a deterministic counterpart of
    ``_nulls._chisq_mixture_tail`` (agreement about 1e-13 over random
    weight sets of 1 to 6 mixed-sign weights).

    The tail is ``1/2 + (1/pi) int_0^inf sin(A(u) - x u / 2) / (u rho(u))
    du`` with ``A(u) = (1/2) sum_i arctan(w_i u)`` and ``rho(u) = prod_i
    (1 + w_i^2 u^2)^(1/4)``.  Plain ``quad`` covers [0, 1] and then whole
    decades up to one period of the ``x u / 2`` oscillation, so a small
    ``x`` is integrated directly; past that, ``sin(A - x u / 2)`` splits
    into ``sin A cos(x u / 2) - cos A sin(x u / 2)`` and QUADPACK's QAWF
    (``quad(weight="cos"/"sin")``) sums the oscillating tails.  The
    decades stop at ``u = 1e100``, where ``(w u)^2`` is still finite: past
    it the integrand is below ``(max|w| u)^(-1/2) / u``, whose integral
    (``2e-50 / max|w|^(1/2)``) is dropped, so an ``x`` within 1e-99 of
    zero neither overflows nor runs the decades to infinity.
    """
    lam = np.asarray(weights, dtype=float)
    omega = 0.5 * float(value)

    def angle(u):
        return 0.5 * float(np.sum(np.arctan(lam * u)))

    def modulus(u):   # u rho(u)
        return u * float(np.prod((1.0 + np.square(lam * u)) ** 0.25))

    def integrand(u):
        if u == 0.0:
            return 0.5 * float(lam.sum()) - omega
        return math.sin(angle(u) - omega * u) / modulus(u)

    period = 2.0 * math.pi / abs(omega) if omega != 0.0 else 0.0
    edges = [0.0, 1.0]
    while edges[-1] < min(period, _IMHOF_REACH):
        edges.append(10.0 * edges[-1])
    plain = {"epsabs": 1e-13, "epsrel": 1e-12, "limit": 200}
    head = sum(quad(integrand, a, b, **plain)[0]
               for a, b in zip(edges, edges[1:]))
    start = edges[-1]
    if omega == 0.0:
        tail = quad(integrand, start, np.inf, **plain)[0]
    elif start >= _IMHOF_REACH:
        tail = 0.0
    else:
        cycles = {"wvar": abs(omega), "epsabs": 1e-13, "limlst": 200}
        tail = (quad(lambda u: math.sin(angle(u)) / modulus(u), start,
                     np.inf, weight="cos", **cycles)[0]
                - math.copysign(1.0, omega)
                * quad(lambda u: math.cos(angle(u)) / modulus(u), start,
                       np.inf, weight="sin", **cycles)[0])
    return 0.5 + (head + tail) / math.pi


def two_weight_tail(weights, value):
    """P(w1 Z1^2 + w2 Z2^2 >= value) by one-dimensional quadrature.

    In polar coordinates (Z1, Z2) = R (cos a, sin a) with R^2 ~ chi2(2),
    i.e. P(R^2 > r) = exp(-r / 2), independent of the uniform angle a, so
    the tail is the average over a in (0, pi) of exp(-value / (2 g(a)))
    where g(a) = w1 cos^2 a + w2 sin^2 a has the sign that reaches value.
    """
    w1, w2 = (float(w) for w in weights)
    x = float(value)

    def g(a):
        return w1 * np.cos(a) ** 2 + w2 * np.sin(a) ** 2

    if x == 0.0:
        return float(quad(lambda a: float(g(a) >= 0.0), 0.0, np.pi,
                          limit=200, points=_sign_changes(w1, w2))[0]
                     / np.pi)
    sign = 1.0 if x > 0.0 else -1.0

    def reach(a):
        ga = sign * g(a)
        return np.exp(-abs(x) / (2.0 * ga)) if ga > 0.0 else 0.0

    part = quad(reach, 0.0, np.pi, limit=200, epsabs=1e-14, epsrel=1e-13,
                points=_sign_changes(w1, w2))[0] / np.pi
    return part if x > 0.0 else 1.0 - part


def _sign_changes(w1, w2):
    """Angles in (0, pi) where w1 cos^2 a + w2 sin^2 a changes sign."""
    if w1 * w2 >= 0.0:
        return None
    root = np.arctan(np.sqrt(-w1 / w2))
    return [root, np.pi - root]


def mixture_tail_reference(weights, value, rng, n_sim):
    """P(sum of weighted chi-square(1) >= value) from ``n_sim`` draws of
    ``rng``, made in chunks of about 2**23 normals."""
    k = weights.shape[0]
    if k == 0:
        return 1.0 if value <= 1e-10 else 0.0
    chunk = max(1, int(2 ** 23 // k))
    count = 0
    done = 0
    while done < n_sim:
        size = min(chunk, n_sim - done)
        draws = rng.standard_normal((size, k))
        sims = np.square(draws) @ weights
        count += int(np.count_nonzero(sims >= value))
        done += size
    return count / n_sim


# ---------------------------------------------------------------------------
# unquoted CSV bodies, one line at a time


def split_lines(lines, width):
    """Columns of unquoted CSV lines, the body without its final newline
    split on ``\\n``: every line's field count checked in order (its commas
    plus one, or 0 when blank), then one join and one split on commas.
    Raises the ingest error on the first line whose count is not
    ``width``."""
    for lineno, line in enumerate(lines, start=2):
        found = line.count(",") + 1 if line else 0
        if found != width:
            raise IngestionError(
                f"line {lineno}: expected {width} fields, found {found}")
    if not lines:
        return [[] for _ in range(width)]
    flat = ",".join(lines).split(",")
    return [flat[j::width] for j in range(width)]


# ---------------------------------------------------------------------------
# cluster coding, one dictionary probe per row


def codes_by_first_appearance(values):
    """First-appearance cluster codes by an explicit per-row dict loop."""
    seen: dict = {}
    codes = np.empty(values.size, dtype=np.intp)
    for row, v in enumerate(values.tolist()):
        code = seen.get(v)
        if code is None:
            code = len(seen)
            seen[v] = code
        codes[row] = code
    return list(seen.keys()), codes


def grouping_permutation(cluster):
    """Row permutation that ``GlmmData.from_arrays`` applies: a stable sort
    of the rows by first-appearance cluster code.

    Apply it to any per-row auxiliary column so its rows line up with the
    regrouped ``y``, ``X`` and ``Z``.
    """
    _, codes = codes_by_first_appearance(np.asarray(cluster).ravel())
    return np.argsort(codes, kind="stable")
