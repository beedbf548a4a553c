"""Model fitting: penalized conditional modes, the adaptive-quadrature
marginal log-likelihood, and a derivative-free outer optimizer.

The marginal likelihood integrates the conditional density over spherical
random effects ``u ~ N(0, I_q)`` that enter the linear predictor as
``eta = X beta + Z Lambda u``.  Each cluster integral is approximated with
a Gauss-Hermite rule anchored at that cluster's penalized posterior mode
(found by Newton steps with step halving, Fisher-scoring curvature) and
scaled by the conditional Cholesky factor.

One kernel, ``_quadrature_sweep``, evaluates the conditional density of
every cluster at every adapted node; the fit objective, ``llcont``,
``estfun`` and every Hessian column all call it.  It works through the
nodes in (N, m) blocks of rows by nodes, with m set so a block holds at
most ``_BLOCK_ELEMENTS`` entries, and returns the per-cluster
log-likelihood and, on request, the per-cluster scores from the same
pass.  The mode solver evaluates the same density the same way: eta
from ``_build_eta`` and ``y kappa - h(kappa) + c(y)`` at the
family's natural parameter of eta.

The outer maximization over ``(beta, theta)`` is deliberately
derivative-free: the analytic scores this package produces are a
post-estimation product, so validating them against the fit stays an
independent check rather than a circular one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import covariance as cov
from .design import GlmmData
from .exceptions import ConfigError, EstimationError, ShapeError
from .families import FamilySpec, as_family_spec
from .quadrature import GhRule, _adapted_grid, gh_rule

__all__ = ["FitControl", "FittedGlmm", "conditional_modes", "marginal_loglik",
           "fit", "load_fitted", "default_points"]

_MODE_TOL = 1e-10
_MODE_MAX_ITER = 200
_BOUNDARY_TOL = 1e-6
# (row, node) entries per block of the quadrature sweep: many nodes per
# block save numpy call overhead on small data; from 16,384 rows on each
# block is one node, which measured faster at 20,000 and 50,000 rows.
_BLOCK_ELEMENTS = 32_768


def default_points(q: int, stage: str = "estimation") -> int:
    """Default quadrature points per dimension.

    Estimation uses 7 points for one random effect and the Laplace
    approximation for more; post-estimation derivatives default to 5,
    the point count where log-likelihoods and gradients stabilize.
    """
    if stage == "derivatives":
        return 5
    return 7 if q == 1 else 1


@dataclass(frozen=True)
class FitControl:
    """Optimizer and quadrature controls for :func:`fit`."""

    n_points: int | None = None
    max_fev: int = 10_000
    restarts: int = 3
    xatol: float = 1e-6
    fatol: float = 1e-9
    beta_start: np.ndarray | None = None
    theta_start: np.ndarray | None = None


@dataclass(frozen=True)
class FittedGlmm:
    """A fitted (or externally supplied) model with everything the
    derivative machinery needs: parameters, per-cluster posterior modes on
    the u scale, conditional Cholesky factors, and the marginal
    log-likelihood at those parameters."""

    beta: np.ndarray
    theta: np.ndarray
    structure: str
    family: FamilySpec
    data: GlmmData
    modes: np.ndarray      # (I, q)
    cond_chol: np.ndarray  # (I, q, q), lower triangular
    loglik: float
    m_used: int
    converged: bool
    boundary: bool
    grad_norm: float | None = None
    n_fev: int = 0

    @property
    def relcov(self) -> cov.RelCovFactor:
        return cov.RelCovFactor(self.data.n_random, self.theta, self.structure)

    @property
    def lambda_matrix(self) -> np.ndarray:
        return cov.theta_to_lambda(self.theta, self.data.n_random, self.structure)

    @property
    def n_params(self) -> int:
        return self.beta.size + self.theta.size

    def parameter_labels(self, parameterization: str = "theta") -> list[str]:
        beta_labels = list(self.data.x_names)
        return beta_labels + self.relcov.labels(list(self.data.z_names),
                                                parameterization)


# ---------------------------------------------------------------------------
# conditional modes


def _build_eta(xbeta: np.ndarray, data: GlmmData,
               effects: np.ndarray) -> np.ndarray:
    """eta = X beta + Z Lambda u at m points per cluster, shape (N, m),
    from the effects Lambda u stored component-major, shape (q, I, m)."""
    rows = data.cluster_index
    eta = xbeta[:, None] + data.Z[:, :1] * effects[0][rows]
    for j in range(1, data.n_random):
        eta += data.Z[:, j, None] * effects[j][rows]
    return eta


def _penalized_curvature(weight: np.ndarray, lam: np.ndarray,
                         data: GlmmData) -> np.ndarray:
    """Lambda' Z_i' diag(weight) Z_i Lambda + I for every cluster i, given
    the curvature of -log f per unit eta^2 of every row."""
    q = data.n_random
    ztwz = data.sum_by_cluster(
        data.Z[:, :, None] * data.Z[:, None, :] * weight[:, None, None]
    )
    hess = np.einsum("ab,ibc,cd->iad", lam.T, ztwz, lam)
    hess[:, np.arange(q), np.arange(q)] += 1.0
    return hess


def conditional_modes(beta, relcov, data: GlmmData, family: FamilySpec,
                      start: np.ndarray | None = None):
    """Per-cluster posterior modes of u and conditional Cholesky factors.

    Maximizes ``log f(y_i | u) - 0.5 ||u||^2`` for every cluster at once
    with Fisher-scoring Newton steps and step halving, on the density the
    quadrature sweep integrates: the sweep's eta builder, then ``y kappa -
    h(kappa) + c(y)`` at the natural parameter kappa of eta, so under a
    canonical link step-halving trials compute no mean.  The returned
    factors satisfy ``C_i C_i' = H_i^{-1}`` with ``H_i`` the penalized
    negative Hessian at the mode (observed curvature; expected curvature
    is substituted in the rare case the observed one is not positive
    definite).

    Returns
    -------
    modes : ndarray, shape (I, q)
    cond_chol : ndarray, shape (I, q, q)
    """
    family = as_family_spec(family)
    lam = _as_lambda(relcov, data)
    beta = np.asarray(beta, dtype=float).ravel()
    if beta.size != data.n_fixed:
        raise ShapeError(f"beta has length {beta.size}, expected {data.n_fixed}")
    n_cl, q = data.n_clusters, data.n_random
    u = np.zeros((n_cl, q)) if start is None else np.array(start, dtype=float)
    if u.shape != (n_cl, q):
        raise ShapeError("mode start values have the wrong shape")

    xbeta = data.X @ beta
    y = data.y
    log_c = data.sum_by_cluster(family.log_normalizer(y))

    def eta_at(u_cur):
        return _build_eta(xbeta, data, (lam @ u_cur.T)[:, :, None])[:, 0]

    def objective_at(eta, mu, u_cur):
        kappa = family._natural_parameter(eta, mu)
        logf = data.sum_by_cluster(y * kappa - family.cumulant(kappa)) + log_c
        return logf - 0.5 * np.sum(u_cur * u_cur, axis=1)

    for iteration in range(_MODE_MAX_ITER + 1):
        eta = eta_at(u)
        mu = family.inverse_link(eta)
        dmu = family._dmu_deta(eta)
        var = family.variance_function(mu)
        resid = (y - mu) * dmu / var
        grad = data.sum_by_cluster(data.Z * resid[:, None]) @ lam - u
        # after the last step a looser gradient is still accepted
        if np.max(np.abs(grad)) <= (_MODE_TOL if iteration < _MODE_MAX_ITER
                                    else 1e-8):
            break
        if iteration == _MODE_MAX_ITER:
            worst = int(np.argmax(np.max(np.abs(grad), axis=1)))
            raise EstimationError(
                "conditional mode search did not converge for cluster "
                f"{data.cluster_ids[worst]!r}"
            )
        hess = _penalized_curvature(dmu * dmu / var, lam, data)
        direction = np.linalg.solve(hess, grad[..., None])[..., 0]

        objective = objective_at(eta, mu, u)
        floor = objective - 1e-12 * (1.0 + np.abs(objective))
        scale = np.ones((n_cl, 1))
        settled = np.zeros(n_cl, dtype=bool)
        for _halving in range(30):
            candidate = u + scale * direction
            eta_c = eta_at(candidate)
            mu_c = None if family.canonical else family.inverse_link(eta_c)
            settled |= objective_at(eta_c, mu_c, candidate) >= floor
            if np.all(settled):
                break
            scale[~settled] *= 0.5
        # clusters that never improved keep a vanishing step; the next
        # gradient check decides whether that is acceptable
        scale[~settled] = 0.0
        u = u + scale * direction

    cond_chol = _conditional_cholesky(eta, mu, dmu, var, lam, data, family)
    return u, cond_chol


def _conditional_cholesky(eta, mu, dmu, var, lam, data: GlmmData,
                          family: FamilySpec):
    """Cholesky factor of the inverse penalized negative Hessian at the mode."""
    d2mu = family._d2mu_deta2(eta)
    dvar = family._dvar_dmu(mu)
    m_exp = dmu * dmu / var
    # observed curvature of -log f per unit eta^2
    m_obs = (m_exp
             - (data.y - mu) * (d2mu / var - dmu * dmu * dvar / var ** 2))
    try:
        chol_h = np.linalg.cholesky(_penalized_curvature(m_obs, lam, data))
    except np.linalg.LinAlgError:
        # non-canonical links can produce an indefinite observed curvature
        # on pathological clusters; fall back to the expected curvature
        chol_h = np.linalg.cholesky(_penalized_curvature(m_exp, lam, data))
    inv = np.linalg.inv(chol_h)
    cov_u = np.einsum("iba,ibc->iac", inv, inv)  # (L^-1)' L^-1 = H^-1
    return np.linalg.cholesky(cov_u)


# ---------------------------------------------------------------------------
# marginal log-likelihood


def _quadrature_sweep(beta, lam, data: GlmmData, family: FamilySpec,
                      modes, chols, rule: GhRule, positions=None,
                      general: bool | None = None):
    """The conditional density of every cluster at every adapted node.

    Anchors ``rule`` at each cluster's mode and conditional factor, then
    evaluates the nodes as (N, m) blocks of rows by nodes, with m chosen so
    a block holds at most ``_BLOCK_ELEMENTS`` entries.  Each (row, node)
    gets one linear predictor and one log density, plus one mean when
    scores are asked for or the link is not canonical.

    Returns the per-cluster log marginal likelihood, shape (I,).  Given
    the free ``positions`` (a, b) of the relative covariance factor, also
    returns the theta-scale scores, shape (I, p + k): posterior means over
    the nodes of ``X' r`` and of ``(Z' r)_a u_b``, with ``r = d log f / d
    eta``.  ``general`` forces the residual form ``(y - mu) mu'(eta) /
    V(mu)``, which a canonical link reduces to ``y - mu``.
    """
    log_w, locations = _adapted_grid(rule, modes, chols)
    y, n_nodes, p = data.y, rule.size, data.n_fixed
    xbeta = data.X @ np.asarray(beta, dtype=float)
    effects = np.tensordot(lam, locations, axes=1)  # Lambda u, (q, I, M)
    joint = log_w + data.sum_by_cluster(family.log_normalizer(y))[:, None]
    scores = positions is not None
    if scores:
        general = not family.canonical if general is None else general
        design = np.hstack([data.X, data.Z]).T
        kernel = np.empty((design.shape[0], data.n_clusters, n_nodes))
    per_block = max(1, _BLOCK_ELEMENTS // data.n_obs)
    for start in range(0, n_nodes, per_block):
        block = slice(start, start + per_block)
        eta = _build_eta(xbeta, data, effects[:, :, block])
        mu = (family.inverse_link(eta) if scores or not family.canonical
              else None)
        kappa = family._natural_parameter(eta, mu)
        joint[:, block] += data.sum_by_cluster(
            y[:, None] * kappa - family.cumulant(kappa))
        if not scores:
            continue
        resid = y[:, None] - mu
        if general:
            resid = resid * family._dmu_deta(eta) / family.variance_function(mu)
        for k, column in enumerate(design):
            kernel[k, :, block] = data.sum_by_cluster(column[:, None] * resid)
    shift = joint.max(axis=1, keepdims=True)
    dens = np.exp(joint - shift)
    mass = dens.sum(axis=1)
    ell = shift[:, 0] + np.log(mass)
    if not scores:
        return ell
    rho = dens / mass[:, None]  # normalized node weights per cluster
    s_theta = [np.einsum("im,im,im->i", rho, kernel[p + a], locations[b])
               for a, b in positions]
    return ell, np.column_stack([np.einsum("im,kim->ik", rho, kernel[:p]),
                                 *s_theta])


def marginal_loglik(beta, relcov, data: GlmmData, family: FamilySpec,
                    n_points: int) -> float:
    """Sum over clusters of the log marginal density of the responses,
    each cluster integral computed on a freshly adapted rule."""
    family = as_family_spec(family)
    family.validate_support(data.y)
    rule = gh_rule(n_points, data.n_random)
    lam = _as_lambda(relcov, data)
    modes, chols = conditional_modes(beta, lam, data, family)
    return float(np.sum(_quadrature_sweep(beta, lam, data, family,
                                          modes, chols, rule)))


def _as_lambda(relcov, data: GlmmData) -> np.ndarray:
    if isinstance(relcov, cov.RelCovFactor):
        lam = relcov.matrix
    else:
        lam = np.atleast_2d(np.asarray(relcov, dtype=float))
    if lam.shape != (data.n_random, data.n_random):
        raise ShapeError("relative covariance factor does not match Z")
    return lam


# ---------------------------------------------------------------------------
# outer optimization


def _glm_start(data: GlmmData, family: FamilySpec) -> np.ndarray:
    """Fixed-effect starting values from a no-random-effects IRLS fit."""
    beta = np.zeros(data.n_fixed)
    for _ in range(25):
        eta = np.clip(data.X @ beta, -30.0, 30.0)
        mu = family.inverse_link(eta)
        dmu = family._dmu_deta(eta)
        var = family.variance_function(mu)
        w = dmu * dmu / var
        z = eta + (data.y - mu) / np.maximum(dmu, 1e-10)
        xw = data.X * w[:, None]
        try:
            new = np.linalg.solve(xw.T @ data.X, xw.T @ z)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(new)):
            break
        done = np.max(np.abs(new - beta)) < 1e-8
        beta = new
        if done:
            break
    return beta


def fit(data: GlmmData, family: FamilySpec, structure: str = "unstructured",
        control: FitControl | None = None) -> FittedGlmm:
    """Maximize the marginal log-likelihood over (beta, theta).

    Nelder-Mead with restart-on-stagnation; diagonal theta entries are kept
    nonnegative by reflection at zero.  Raises
    :class:`~glmmkit.exceptions.EstimationError` (with the best-so-far fit
    attached as ``.best``) if the evaluation budget is exhausted first.
    """
    control = control or FitControl()
    family = as_family_spec(family)
    family.validate_support(data.y)
    p, q = data.n_fixed, data.n_random
    if data.n_clusters <= q:
        raise ConfigError("need more clusters than random-effect dimensions")
    n_points = control.n_points
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    k = cov.theta_length(q, structure)
    diag_pos = [idx for idx, (i, j) in enumerate(cov.free_positions(q, structure))
                if i == j]

    beta0 = (np.asarray(control.beta_start, dtype=float)
             if control.beta_start is not None else _glm_start(data, family))
    if beta0.size != p:
        raise ShapeError("beta_start has the wrong length")
    theta0 = np.zeros(k)
    theta0[diag_pos] = 1.0
    if control.theta_start is not None:
        theta0 = np.asarray(control.theta_start, dtype=float).copy()
        if theta0.size != k:
            raise ShapeError("theta_start has the wrong length")

    warm: dict = {"u": None}
    n_eval = [0]

    def fold(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        beta = x[:p]
        theta = x[p:].copy()
        theta[diag_pos] = np.abs(theta[diag_pos])
        return beta, theta

    def objective(x: np.ndarray) -> float:
        n_eval[0] += 1
        beta, theta = fold(x)
        lam = cov.theta_to_lambda(theta, q, structure)
        try:
            modes, chols = conditional_modes(beta, lam, data, family,
                                             start=warm["u"])
        except EstimationError:
            warm["u"] = None
            return np.inf
        warm["u"] = modes
        ll = float(np.sum(_quadrature_sweep(beta, lam, data, family,
                                            modes, chols, rule)))
        return -ll if np.isfinite(ll) else np.inf

    x_best = np.concatenate([beta0, theta0])
    f_best = objective(x_best)
    success = False
    for attempt in range(control.restarts + 1):
        remaining = control.max_fev - n_eval[0]
        if remaining <= 0:
            break
        result = minimize(objective, x_best, method="Nelder-Mead",
                          options={"maxfev": remaining, "xatol": control.xatol,
                                   "fatol": control.fatol, "adaptive": x_best.size > 4})
        improvement = f_best - result.fun
        if result.fun < f_best:
            x_best, f_best = result.x.copy(), float(result.fun)
        success = bool(result.success)
        if success and attempt > 0 and improvement < 1e-6:
            break

    beta_hat, theta_hat = fold(x_best)
    fitted = _finalize(beta_hat, theta_hat, structure, data, family,
                       rule, converged=success, n_fev=n_eval[0])
    if not success:
        err = EstimationError(
            f"optimizer did not converge within {control.max_fev} evaluations"
        )
        err.best = fitted
        raise err
    return fitted


def load_fitted(beta, theta, data: GlmmData, family: FamilySpec,
                n_points: int | None = None,
                structure: str = "unstructured") -> FittedGlmm:
    """Rehydrate a model at externally supplied estimates.

    Recomputes posterior modes, conditional factors and the marginal
    log-likelihood at ``(beta, theta)`` without optimizing, so externally
    estimated models get the full post-estimation machinery.
    """
    family = as_family_spec(family)
    family.validate_support(data.y)
    beta = np.asarray(beta, dtype=float).ravel()
    theta = np.asarray(theta, dtype=float).ravel()
    q = data.n_random
    if beta.size != data.n_fixed:
        raise ConfigError(f"beta has length {beta.size}, expected {data.n_fixed}")
    if theta.size != cov.theta_length(q, structure):
        raise ConfigError(
            f"theta has length {theta.size}, expected "
            f"{cov.theta_length(q, structure)} for q={q} {structure}"
        )
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    return _finalize(beta, theta, structure, data, family, rule,
                     converged=True, n_fev=0)


def _finalize(beta, theta, structure, data, family, rule, converged,
              n_fev) -> FittedGlmm:
    q = data.n_random
    lam = cov.theta_to_lambda(theta, q, structure)
    modes, chols = conditional_modes(beta, lam, data, family)
    grad_norm = None
    if converged and n_fev > 0:
        ell, scores = _quadrature_sweep(beta, lam, data, family, modes, chols,
                                        rule, cov.free_positions(q, structure))
        grad_norm = float(np.linalg.norm(scores.sum(axis=0)))
    else:
        ell = _quadrature_sweep(beta, lam, data, family, modes, chols, rule)
    return FittedGlmm(
        beta=np.array(beta, dtype=float), theta=np.array(theta, dtype=float),
        structure=structure, family=family, data=data, modes=modes,
        cond_chol=chols, loglik=float(np.sum(ell)),
        m_used=rule.points_per_dim, converged=converged,
        boundary=bool(np.any(np.diag(lam) < _BOUNDARY_TOL)),
        grad_norm=grad_norm, n_fev=n_fev,
    )
