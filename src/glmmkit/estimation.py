"""Model fitting: penalized conditional modes, the adaptive-quadrature
marginal log-likelihood, and a gradient-based outer optimizer.

The marginal likelihood integrates the conditional density over spherical
random effects ``u ~ N(0, I_q)`` that enter the linear predictor as
``eta = X beta + Z Lambda u``.  Each cluster integral is approximated with
a Gauss-Hermite rule anchored at that cluster's penalized posterior mode
(found by Newton steps with step halving, Fisher-scoring curvature) and
scaled by the conditional Cholesky factor.

One kernel, ``_quadrature_sweep``, evaluates the conditional density of
every cluster at every adapted node; the fit objective, ``llcont``,
``estfun`` and ``hessian`` all call it.  It works through the
nodes in (N, m) blocks of rows by nodes, with m set so a block holds at
most ``_BLOCK_ELEMENTS`` entries, and returns the per-cluster
log-likelihood and, on request, the per-cluster scores from the same
pass.  The mode solver evaluates the same density the same way: eta
from ``_build_eta`` and ``y kappa - h(kappa) + c(y)`` at the
family's natural parameter of eta.

The outer maximization over ``(beta, theta)`` uses the exact gradient
of that objective.  The paper's casewise scores hold the quadrature
anchors fixed; the fit objective moves its anchors with the parameters,
so the sweep adds the derivative through the mode (implicit
differentiation of the penalized score) and through the conditional
factor (differentiated through its Cholesky).  The scores themselves
stay independently checked: acceptance gates 1 and 2 test the
fixed-anchor scores against finite differences and brute-force
integration, and a test checks the exact gradient against finite
differences of the re-anchored log-likelihood.  The Hessian is the
derivative of the fixed-anchor scores with the anchors moving, from the
same implicit derivatives (``_anchored_hessian``); the anchor terms of
both read the rows' state at the modes (``_ModeState``).

The maximizer is L-BFGS-B.  A refit with several random effects, on a
rule of at least two points per dimension and from a given start inside
the bounds (lme4's second stage, after a Laplace fit), first takes
Newton steps on that Hessian (``_newton_phase``), from the same sweep
as the gradient; L-BFGS-B then confirms where they stop or carries on
from there.  The Hessian leaves out the derivative of the anchor terms,
so it is not the objective's own; it is closest on finer rules and near
the optimum, which is why the steps need both.

Each fit evaluation computes the rows at the modes once.  The mode
solve starts every Newton iteration from its last accepted trial and
hands its final rows, with the one Cholesky factor of the curvature, to
the sweep (``conditional_modes(record=True)``); only a stored fit's
Hessian rebuilds them (``_mode_state``).  The optimum is usually the
last point evaluated, and then that evaluation's modes, factors and
sweep are the fit.  A rehydrated fit (``load_fitted``) sweeps for its
log-likelihood only when ``loglik`` is read.

With one random effect (q = 1) every curvature, Newton step and
conditional factor is a scalar per cluster, and batched LAPACK calls on
1 x 1 stacks cost more in call overhead than in arithmetic.  There the
mode solver and the conditional factor use the scalar closed forms
(``_penalized_curvature``, ``_newton_step``, ``_cholesky``,
``_conditional_factor``), which return the LAPACK and einsum results bit
for bit and fail where they fail; q >= 2 keeps the batched calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from . import covariance as cov
from .design import GlmmData
from .exceptions import (ConfigError, EstimationError, ShapeError,
                         _check_integer)
from .families import FamilySpec, as_family_spec
from .quadrature import GhRule, _adapted_grid, gh_rule

__all__ = ["FitControl", "FittedGlmm", "conditional_modes", "marginal_loglik",
           "fit", "load_fitted", "default_points"]

_MODE_TOL = 1e-10
_MODE_MAX_ITER = 200
# the gradient tolerance after the last mode-solver iteration; a cluster
# that cannot settle fails at once above it
_MODE_LAST_TOL = 1e-8
_BOUNDARY_TOL = 1e-6
# L-BFGS-B stopping tolerances: relative reduction of the objective and
# largest entry of the projected gradient
_FTOL = 1e-12
_GTOL = 1e-6
# the Newton phase before L-BFGS-B (see fit): steps, and halvings per step
_NEWTON_ITER = 8
_NEWTON_HALVINGS = 4
# (row, node) entries per block of the quadrature sweep: many nodes per
# block save numpy call overhead on small data; from 16,384 rows on each
# block is one node, which measured faster at 20,000 and 50,000 rows.
_BLOCK_ELEMENTS = 32_768
# (cluster, node) entries per slice of the Hessian's cluster-by-node
# algebra: its temporaries hold a few dozen doubles per entry at q = 1,
# more at larger q, so slicing bounds its memory whatever the data size
_CLUSTER_NODES = 4_096


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
    """Optimizer and quadrature controls for :func:`fit`.

    ``max_fev`` caps objective evaluations exactly, the second-order
    sweeps of :func:`fit`'s Newton steps included; ``restarts`` reruns
    L-BFGS-B from where it stopped.  Both are integers, ``max_fev`` at
    least 1 and ``restarts`` at least 0, or a ``ConfigError``; so is
    ``n_points``, when given, at least 1.  The stopping tolerances are
    the module constants ``_FTOL`` and ``_GTOL``.
    """

    n_points: int | None = None
    max_fev: int = 10_000
    restarts: int = 3
    beta_start: np.ndarray | None = None
    theta_start: np.ndarray | None = None

    def __post_init__(self) -> None:
        _check_integer(self.max_fev, "max_fev", 1)
        _check_integer(self.restarts, "restarts", 0)
        if self.n_points is not None:
            _check_integer(self.n_points, "n_points", 1)


@dataclass(frozen=True)
class FittedGlmm:
    """A fitted (or externally supplied) model with everything the
    derivative machinery needs: parameters, per-cluster posterior modes on
    the u scale, conditional Cholesky factors, and the marginal
    log-likelihood at those parameters.

    ``loglik`` is not a dataclass field.  :func:`fit` sets it from its
    last sweep; otherwise the first read runs one sweep on the fit's own
    rule, ``gh_rule(m_used, q)``, and keeps the value.  A copy made with
    ``dataclasses.replace`` computes its own on first read.
    """

    beta: np.ndarray
    theta: np.ndarray
    structure: str
    family: FamilySpec
    data: GlmmData
    modes: np.ndarray      # (I, q)
    cond_chol: np.ndarray  # (I, q, q), lower triangular
    m_used: int
    converged: bool
    boundary: bool
    grad_norm: float | None = None
    n_fev: int = 0

    @cached_property
    def loglik(self) -> float:
        """The marginal log-likelihood at the fit's anchors and rule."""
        rule = gh_rule(self.m_used, self.data.n_random)
        return float(np.sum(_quadrature_sweep(
            self.beta, self.lambda_matrix, self.data, self.family,
            self.modes, self.cond_chol, rule)))

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
    the curvature of -log f per unit eta^2 of every row.  At q = 1 the
    einsum is the scalar (lambda s) lambda, multiplied in its order."""
    q = data.n_random
    if q == 1:
        z = data.Z[:, 0]
        ztwz = data.sum_by_cluster(z * z * weight)
        return ((lam[0, 0] * ztwz) * lam[0, 0] + 1.0)[:, None, None]
    ztwz = data.sum_by_cluster(
        data.Z[:, :, None] * data.Z[:, None, :] * weight[:, None, None]
    )
    hess = np.einsum("ab,ibc,cd->iad", lam.T, ztwz, lam)
    hess[:, np.arange(q), np.arange(q)] += 1.0
    return hess


def conditional_modes(beta, relcov, data: GlmmData, family: FamilySpec,
                      start: np.ndarray | None = None, *,
                      record: bool = False):
    """Per-cluster posterior modes of u and conditional Cholesky factors.

    Maximizes ``log f(y_i | u) - 0.5 ||u||^2`` for every cluster at once
    with Fisher-scoring Newton steps and step halving, on the density the
    quadrature sweep integrates: the sweep's eta builder, then ``y kappa -
    h(kappa) + c(y)`` at the natural parameter kappa of eta, so under a
    canonical link step-halving trials compute no mean.  A step's last
    trial point ``u + scale * direction`` is the update itself, so the
    next iteration starts from that trial's eta, mean (recomputed under a
    canonical link) and objective; clusters that never improved keep
    their rows.  The returned factors satisfy ``C_i C_i' = H_i^{-1}`` with
    ``H_i`` the penalized negative Hessian at the mode (observed
    curvature; expected curvature is substituted in the rare case the
    observed one is not positive definite).

    Returns
    -------
    modes : ndarray, shape (I, q)
    cond_chol : ndarray, shape (I, q, q)

    With ``record``, returns instead a ``_ModeSolve``: the modes and
    factors plus the rows' state at the modes, built from the solve's
    last iteration, which the fit's exact sweep needs.
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

    eta = eta_at(u)
    mu = family.inverse_link(eta)
    objective = None
    halvings = 0
    for iteration in range(_MODE_MAX_ITER + 1):
        dmu = family._dmu_deta(eta)
        var = family.variance_function(mu)
        resid = (y - mu) * dmu / var
        grad = data.sum_by_cluster(data.Z * resid[:, None]) @ lam - u
        # after the last step a looser gradient is still accepted
        if np.max(np.abs(grad)) <= (_MODE_TOL if iteration < _MODE_MAX_ITER
                                    else _MODE_LAST_TOL):
            break
        if iteration == _MODE_MAX_ITER:
            worst = int(np.argmax(np.max(np.abs(grad), axis=1)))
            raise EstimationError(
                "conditional mode search did not converge for cluster "
                f"{data.cluster_ids[worst]!r}"
            )
        hess = _penalized_curvature(dmu * dmu / var, lam, data)
        direction = _newton_step(hess, grad)

        if objective is None:
            objective = objective_at(eta, mu, u)
        floor = objective - 1e-12 * (1.0 + np.abs(objective))
        scale = np.ones((n_cl, 1))
        settled = np.zeros(n_cl, dtype=bool)
        for halving in range(30):
            candidate = u + scale * direction
            eta_c = eta_at(candidate)
            mu_c = None if family.canonical else family.inverse_link(eta_c)
            objective_c = objective_at(eta_c, mu_c, candidate)
            settled |= objective_c >= floor
            if np.all(settled):
                break
            scale[~settled] *= 0.5
        halvings += halving
        # a cluster that never improved keeps its rows, so its next step
        # would be this one again: past the loosest tolerance it cannot
        # settle.  Below that it keeps a vanishing step, and the gradient
        # check after the last iteration decides.
        if not np.all(settled):
            stuck = np.where(settled, 0.0, np.max(np.abs(grad), axis=1))
            if stuck.max() > _MODE_LAST_TOL:
                raise EstimationError(
                    "conditional mode search did not converge for cluster "
                    f"{data.cluster_ids[int(np.argmax(stuck))]!r}"
                )
        scale[~settled] = 0.0
        u = u + scale * direction
        # the last trial ran at the new modes of every cluster that settled
        if np.all(settled):
            eta, mu, objective = eta_c, mu_c, objective_c
        else:
            rows = settled[data.cluster_index]
            eta = np.where(rows, eta_c, eta)
            if not family.canonical:
                mu = np.where(rows, mu_c, mu)
            objective = np.where(settled, objective_c, objective)
        if family.canonical:
            mu = family.inverse_link(eta)

    if not record:
        chol_h, _ = _factor_curvature(*_curvatures(eta, mu, dmu, var, y,
                                                   family), lam, data)
        return u, _conditional_factor(chol_h)
    state, chol_h = _state_and_factor(eta, mu, dmu, var, resid, lam, data,
                                      family)
    return _ModeSolve(u, _conditional_factor(chol_h), state, iteration,
                      halvings)


def _newton_step(hess, grad):
    """H^-1 grad for every cluster, shape (I, q).  At q = 1 the solve is
    the quotient, which LAPACK returns bit for bit; a zero pivot fails as
    it does."""
    if hess.shape[1] == 1:
        if not hess.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return grad / hess[:, 0]
    return np.linalg.solve(hess, grad[..., None])[..., 0]


def _cholesky(matrix):
    """Lower Cholesky factor of every (q, q) matrix.  At q = 1 it is the
    square root, which LAPACK returns bit for bit; an entry <= 0 fails as
    it does, and a NaN passes through as it does."""
    if matrix.shape[1] == 1:
        if (matrix <= 0.0).any():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return np.sqrt(matrix)
    return np.linalg.cholesky(matrix)


def _conditional_factor(chol_h):
    """C with C C' = H^-1, lower triangular, from the Cholesky factor of
    the penalized negative Hessian H at the mode.  At q = 1 that is
    sqrt((1/l)(1/l)), the products LAPACK and the einsum form."""
    if chol_h.shape[1] == 1:
        if not chol_h.all():
            raise np.linalg.LinAlgError("Singular matrix")
        inv = 1.0 / chol_h
        return _cholesky(inv * inv)
    inv = np.linalg.inv(chol_h)
    cov_u = np.einsum("iba,ibc->iac", inv, inv)  # (L^-1)' L^-1 = H^-1
    return np.linalg.cholesky(cov_u)


def _curvatures(eta, mu, dmu, var, y, family: FamilySpec,
                slopes: bool = False):
    """Curvature of -log f(y | eta) per unit eta^2 of every row, observed
    and expected; with ``slopes``, also their derivatives in eta.

    With A = mu'/V, the eta-derivatives of log f are l1 = (y - mu) A,
    l2 = -mu' A + (y - mu) A' and l3 = -mu'' A - 2 mu' A' + (y - mu) A''.
    The observed curvature is -l2, the expected one mu' A.
    """
    d2mu = family._d2mu_deta2(eta)
    dvar = family._dvar_dmu(mu)
    m_exp = dmu * dmu / var
    ratio_1 = d2mu / var - dmu * dmu * dvar / var ** 2      # A'
    m_obs = m_exp - (y - mu) * ratio_1
    if not slopes:
        return m_obs, m_exp
    ratio = dmu / var
    ratio_2 = (family._d3mu_deta3(eta) / var                # A''
               - 3.0 * ratio * d2mu * dvar / var
               + ratio * ratio * dmu * (2.0 * dvar * dvar / var
                                        - family._d2var_dmu2()))
    slope_exp = d2mu * ratio + dmu * ratio_1
    slope_obs = slope_exp + dmu * ratio_1 - (y - mu) * ratio_2
    return m_obs, m_exp, slope_obs, slope_exp


def _factor_curvature(m_obs, m_exp, lam, data: GlmmData):
    """Cholesky factor of the penalized curvature behind the conditional
    factor, and whether it is the observed one.

    Non-canonical links can produce an indefinite observed curvature on
    pathological clusters; the expected curvature then stands in for
    every cluster.
    """
    try:
        chol = _cholesky(_penalized_curvature(m_obs, lam, data))
    except np.linalg.LinAlgError:
        return _cholesky(_penalized_curvature(m_exp, lam, data)), False
    return chol, True


@dataclass(frozen=True)
class _ModeState:
    """Every row's state at its cluster's conditional mode: the linear
    predictor, mean, mu'(eta), variance, d log f / d eta, both curvatures
    of -log f per unit eta^2 with their eta-slopes, and whether the
    conditional factor was built on the observed curvature
    (``_factor_curvature``)."""

    eta: np.ndarray
    mu: np.ndarray
    dmu: np.ndarray
    var: np.ndarray
    resid: np.ndarray
    m_obs: np.ndarray
    m_exp: np.ndarray
    slope_obs: np.ndarray
    slope_exp: np.ndarray
    observed: bool

    @property
    def weight(self) -> np.ndarray:
        """The curvature behind the conditional factor."""
        return self.m_obs if self.observed else self.m_exp

    @property
    def slope(self) -> np.ndarray:
        """The eta-slope of ``weight``."""
        return self.slope_obs if self.observed else self.slope_exp


@dataclass(frozen=True)
class _ModeSolve:
    """A finished mode solve, from ``conditional_modes(record=True)``: the
    modes (I, q), the conditional factors (I, q, q), the rows' state at
    the modes, the Newton iterations taken and the step-halving trials
    after full steps.  ``iterations == _MODE_MAX_ITER`` means the solve
    stopped on the looser gradient tolerance."""

    modes: np.ndarray
    cond_chol: np.ndarray
    state: _ModeState
    iterations: int
    halvings: int


def _state_and_factor(eta, mu, dmu, var, resid, lam, data: GlmmData,
                      family: FamilySpec):
    """The :class:`_ModeState` of rows at their modes, given their eta,
    mean, mu'(eta), variance and d log f / d eta, and the Cholesky factor
    of the penalized curvature behind the conditional factor."""
    m_obs, m_exp, slope_obs, slope_exp = _curvatures(eta, mu, dmu, var,
                                                     data.y, family,
                                                     slopes=True)
    chol_h, observed = _factor_curvature(m_obs, m_exp, lam, data)
    return _ModeState(eta, mu, dmu, var, resid, m_obs, m_exp, slope_obs,
                      slope_exp, observed), chol_h


def _mode_state(beta, lam, data: GlmmData, family: FamilySpec,
                modes) -> _ModeState:
    """The rows' :class:`_ModeState` at the modes ``modes`` (I, q), for
    anchors that no solve in hand produced (a stored fit's)."""
    eta = _build_eta(data.X @ np.asarray(beta, dtype=float), data,
                     (lam @ modes.T)[:, :, None])[:, 0]
    mu = family.inverse_link(eta)
    dmu = family._dmu_deta(eta)
    var = family.variance_function(mu)
    return _state_and_factor(eta, mu, dmu, var, (data.y - mu) * dmu / var,
                             lam, data, family)[0]


# ---------------------------------------------------------------------------
# marginal log-likelihood


def _design_pairs(col_of):
    """The pairs (a, b), a <= b, of the distinct design columns, given
    ``col_of`` from ``GlmmData.distinct_design``, and ``pair_of`` (d, d),
    the position in that list of each pair of design columns."""
    n_distinct = int(col_of.max()) + 1
    products = [(a, b) for a in range(n_distinct)
                for b in range(a, n_distinct)]
    position = {pair: k for k, pair in enumerate(products)}
    pair_of = np.array([[position[tuple(sorted((c, e)))] for e in col_of]
                        for c in col_of])
    return products, pair_of


def _quadrature_sweep(beta, lam, data: GlmmData, family: FamilySpec,
                      modes, chols, rule: GhRule, positions=None,
                      general: bool | None = None, exact: bool = False,
                      second: bool = False, state: _ModeState | None = None):
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

    These scores hold the anchors (modes and factors) fixed.  ``exact``
    adds the derivative through the anchors (see ``_anchor_terms``), so
    the scores become the exact gradient of the returned log-likelihood
    with the modes and factors re-solved at every parameter value: the
    gradient of the fit objective.  ``second`` also returns the Jacobian
    of the summed fixed-anchor scores with the anchors following the
    parameters (see ``_anchored_hessian``), shape (p + k, p + k); it adds
    one row sum per node for every pair of distinct columns of [X Z],
    weighted by the observed curvature.

    The anchor terms of both read the rows' state at the modes: ``state``,
    the one a mode solve handed over (``conditional_modes(record=True)``),
    or else one rebuilt from the modes (``_mode_state``).
    """

    def at_modes():
        return (_mode_state(beta, lam, data, family, modes) if state is None
                else state)

    log_w, locations = _adapted_grid(rule, modes, chols)
    y, n_nodes, p = data.y, rule.size, data.n_fixed
    xbeta = data.X @ np.asarray(beta, dtype=float)
    effects = np.tensordot(lam, locations, axes=1)  # Lambda u, (q, I, M)
    joint = log_w + data.sum_by_cluster(family.log_normalizer(y))[:, None]
    scores = positions is not None
    if scores:
        general = not family.canonical if general is None else general
        distinct, col_of = data.distinct_design
        columns = np.stack([data.X[:, j] if j < p else data.Z[:, j - p]
                            for j in distinct])
        kernel = np.empty((len(distinct), data.n_clusters, n_nodes))
    if second:
        # the anchors' motion first: the mode-level rows are freed before
        # the node blocks run
        products, pair_of = _design_pairs(col_of)
        motion = _anchor_motion(lam, data, modes, chols, positions,
                                at_modes(), columns, col_of)
        curvature = np.empty((data.n_clusters, n_nodes, len(products)))
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
            dmu = family._dmu_deta(eta)
            var = family.variance_function(mu)
            resid = resid * dmu / var
        for k, column in enumerate(columns):
            kernel[k, :, block] = data.sum_by_cluster(column[:, None] * resid)
        if second:
            # a canonical link has mu' = V, so the observed curvature is V
            m_obs = (_curvatures(eta, mu, dmu, var, y[:, None], family)[0]
                     if general else family.variance_function(mu))
            weighted = columns[:, :, None] * m_obs
            for k, (a, b) in enumerate(products):
                curvature[:, block, k] = data.sum_by_cluster(
                    weighted[a] * columns[b, :, None])
    shift = joint.max(axis=1, keepdims=True)
    dens = np.exp(joint - shift)
    mass = dens.sum(axis=1)
    ell = shift[:, 0] + np.log(mass)
    if not scores:
        return ell
    kernel = kernel[col_of]     # one row per column of [X Z]
    rho = dens / mass[:, None]  # normalized node weights per cluster
    s_theta = [np.einsum("im,im,im->i", rho, kernel[p + a], locations[b])
               for a, b in positions]
    scores = np.column_stack([np.einsum("im,kim->ik", rho, kernel[:p]),
                              *s_theta])
    if exact or second:
        # grad g = Lambda' Z' r - u at every node
        grad_g = np.tensordot(lam.T, kernel[p:], axes=1) - locations
    if second:
        # the row-level arrays are done with: free them before the
        # cluster-by-node algebra, which would otherwise add to the peak
        del columns, xbeta, eta, mu, kappa, resid, m_obs, weighted
        size = max(1, _CLUSTER_NODES // n_nodes)
        jacobian = sum(
            _anchored_hessian(p, lam, positions, rule.nodes, rho[part],
                              kernel[:, part], curvature[part], pair_of,
                              locations[:, part], grad_g[:, part],
                              motion[part])
            for part in map(slice, range(0, data.n_clusters, size),
                            range(size, data.n_clusters + size, size)))
    if exact:
        scores += _anchor_terms(
            lam, data, modes, chols, positions, at_modes(),
            np.einsum("im,jim->ij", rho, grad_g),
            np.einsum("im,jim,mc->ijc", rho, grad_g, rule.nodes))
    return (ell, scores, jacobian) if second else (ell, scores)


def _anchor_terms(lam, data: GlmmData, modes, chols, positions,
                  state: _ModeState, grad_mean, grad_outer):
    """The part of the exact per-cluster gradient that fixed-anchor scores
    leave out: the derivative through the mode and the conditional factor.

    ``grad_mean`` (I, q) and ``grad_outer`` (I, q, q) are the node-weighted
    moments E[grad g] and E[grad g z'] of g(u) = log f(y | u) - ||u||^2 / 2,
    z the base nodes.  The nodes sit at u = a + C z, so the missing terms
    are E[grad g]' da + <tril E[grad g z'] + diag(1 / C_jj), dC>.  The mode
    moves by da = H^-1 d(grad g)(a), from implicit differentiation of
    grad g(a) = 0, with H the observed penalized curvature; the factor by
    dC = C Phi(C^-1 dS C^-T) with dS = -S dH S, S = C C' and Phi keeping
    the lower triangle with the diagonal halved.  Phi is self-adjoint, so
    the factor term is -<B, dH> with B = C Phi(C' G) C', G the matrix
    above.  dH needs the eta-slope of the curvature behind C, and both
    terms come back to per-row weights, so every parameter costs one
    segment sum.  ``state`` holds the rows at the modes.  Returns shape
    (I, p + k).
    """
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
    zl = data.Z @ lam                                   # rows of Z Lambda
    zlb = np.einsum("nj,njk->nk", zl, b_mat[rows])
    # dH = Lambda' Z' diag(slope deta) Z Lambda + the direct dLambda terms
    slope_b = slope * np.sum(zlb * zl, axis=1)

    # the mode term and the factor term's share through deta = Z Lambda da
    # meet in one vector per cluster, pulled back through H^-1
    pull = grad_mean - data.sum_by_cluster(zl * slope_b[:, None])
    if state.observed:
        nu = np.einsum("ijk,ilk,il->ij", chols, chols, pull)  # C C' pull
    else:
        nu = np.linalg.solve(_penalized_curvature(state.m_obs, lam, data),
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


def _anchor_motion(lam, data: GlmmData, modes, chols, positions,
                   state: _ModeState, columns, col_of):
    """How the nodes u = a + C z move with the parameters: du = da + dC z,
    returned as ``motion`` (I, q, 1 + q, p + k) with du = sum_e [1, z]_e
    motion[:, :, e].

    As in ``_anchor_terms``, da = H_obs^-1 d(grad g)(a) from implicit
    differentiation of grad g(a) = 0, and dC = -C Phi(C' dH C), Phi keeping
    the lower triangle with the diagonal halved, dH differentiating the
    curvature behind C with the mode's motion in eta.  That takes the row
    sums of z d' against the observed curvature and of z z' against the
    factor's weight at the modes, d the rows of the design [X Z], and of z
    z' d against the weight's slope; the design comes as its distinct
    ``columns`` and ``col_of`` (``_design_pairs``).  ``state`` holds the
    rows at the modes.
    """
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


def _anchored_hessian(p, lam, positions, nodes, rho, kernel, curvature,
                      pair_of, locations, grad_g, motion):
    """Jacobian of the summed fixed-anchor scores S(psi; a, C) with the
    modes a and factors C following psi: the Hessian the casewise
    machinery uses.

    At a node u of cluster i the score of log f is P(u) K, with K = D' r
    the node's ``kernel`` (D = [X Z], r = d log f / d eta) and P(u)
    taking column j of X to beta_j and column a of Z, times u_b, to the
    factor entry (a, b).  Its parameter Hessian is -P Q P' with Q = D'
    diag(m) D, m the observed curvature; ``curvature`` (I, M, pairs) holds
    Q's entries, entry (c, d) in column ``pair_of[c, d]``.  Per cluster,
    with node weights ``rho``:

    1. the Louis identity at fixed anchors, E[-P Q P'] + Var[P K];
    2. and 3. the anchors' motion.  A parameter moves every node by du
       (``_anchor_motion``), and the score by E[(d(P K)/du) du] + Cov(P K,
       grad g' du), with d(P K)/du = dP K - P Q [0 Lambda]' and g = log f -
       ||u||^2 / 2 (the log det C term of the node weights is the same at
       every node and cancels).  du is affine in z, so these need only
       moments against [1, z].

    Returns the sum over clusters, shape (p + k, p + k), row = score,
    column = parameter.
    """
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


class _BudgetSpent(Exception):
    """Raised by the fit objective once ``max_fev`` evaluations are spent;
    L-BFGS-B's own ``maxfun`` can be overrun inside a line search."""


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


def _newton_phase(objective, x: np.ndarray, diagonal: list[int]) -> np.ndarray:
    """Safeguarded Newton steps on the fit objective from ``x``; returns
    the last point accepted.

    ``objective(x, second=True)`` returns the objective, its gradient and
    its Hessian (None where the evaluation failed).  A step that raises
    the objective is halved up to ``_NEWTON_HALVINGS`` times.  The steps
    stop once every gradient entry is within ``_GTOL``, and hand the point
    over early when the Hessian is missing or not positive definite, a
    step would take a ``diagonal`` entry below zero, a step gains nothing
    after its halvings, or ``_NEWTON_ITER`` steps are spent.
    """
    f, grad, hess = objective(x, second=True)
    for _ in range(_NEWTON_ITER):
        if hess is None or np.max(np.abs(grad)) <= _GTOL:
            break
        try:
            step = -cho_solve((np.linalg.cholesky(hess), True), grad)
        except np.linalg.LinAlgError:
            break
        if (not np.all(np.isfinite(step))
                or np.any(x[diagonal] + step[diagonal] < 0.0)):
            break
        for _ in range(_NEWTON_HALVINGS + 1):
            trial = x + step
            f_trial, grad_trial, hess_trial = objective(trial, second=True)
            if f_trial <= f + _FTOL * max(1.0, abs(f)):
                break
            step = 0.5 * step
        else:
            break
        x, f, grad, hess = trial, f_trial, grad_trial, hess_trial
    return x


def fit(data: GlmmData, family: FamilySpec, structure: str = "unstructured",
        control: FitControl | None = None) -> FittedGlmm:
    """Maximize the marginal log-likelihood over (beta, theta).

    L-BFGS-B on the exact gradient of the adaptive-quadrature objective:
    every evaluation re-solves the modes warm from the previous one, and
    one quadrature sweep returns the log-likelihood and its gradient with
    the anchors differentiated too (``_quadrature_sweep(exact=True)``).
    The diagonal theta entries are bounded below by zero, so a
    ``theta_start`` with a negative diagonal entry is a ``DomainError``.

    With q >= 2 random effects, at least two points per dimension and a
    ``theta_start`` whose diagonal entries are all at least
    ``_BOUNDARY_TOL``, Newton steps come first (``_newton_phase``): each
    evaluation's sweep also returns the Jacobian of the scores
    (``second=True``), and the steps run until every gradient entry is
    within ``_GTOL``, or hand over early.  Their evaluations count
    against ``max_fev`` like any other.  L-BFGS-B starts where they
    stopped, and at a point they converged on it re-reads their last
    evaluation and stops there.  Other fits run L-BFGS-B alone: at q = 1 a
    second-order evaluation costs several first-order ones, on the Laplace
    rule the Jacobian is furthest from the objective's Hessian, and from
    the default start the steps save little.

    A restart reruns from where the previous run stopped, and the loop
    stops once a restart gains less than 1e-6; the last allowed restart
    that gains less than that confirms the point even when L-BFGS-B
    reported no success (a line search that fails at the round-off
    floor).  The fit's ``loglik`` is its last sweep's.  Raises
    :class:`~glmmkit.exceptions.EstimationError` (with the best fit so far
    attached as ``.best``) if ``max_fev`` evaluations run out first or the
    last run stops without converging.
    """
    control = control or FitControl()
    family = as_family_spec(family)
    family.validate_support(data.y)
    p, q = data.n_fixed, data.n_random
    if data.n_clusters <= q:
        raise ConfigError("need more clusters than random-effect dimensions")
    n_points = control.n_points
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    positions = cov.free_positions(q, structure)
    k = len(positions)
    bounds = [(None, None)] * p + [(0.0, None) if i == j else (None, None)
                                   for i, j in positions]

    beta0 = (np.asarray(control.beta_start, dtype=float)
             if control.beta_start is not None else _glm_start(data, family))
    if beta0.size != p:
        raise ShapeError("beta_start has the wrong length")
    theta0 = np.array([1.0 if i == j else 0.0 for i, j in positions])
    if control.theta_start is not None:
        theta0 = np.asarray(control.theta_start, dtype=float).copy()
        if theta0.size != k:
            raise ShapeError("theta_start has the wrong length")
        cov._nonnegative_factor(theta0, q, structure, "theta_start")

    # the last evaluation, where a restart begins, with its mode solve and
    # sweep (None when the solve failed) and, from a second-order sweep,
    # the objective's Hessian; and the lowest one, which stands when the
    # budget runs out
    last = {"x": None, "f": np.inf, "g": None, "h": None, "sweep": None}
    best = {"x": None, "f": np.inf}
    warm: dict = {"u": None}
    n_eval = [0]

    def objective(x: np.ndarray, second: bool = False):
        if np.array_equal(x, last["x"]):
            f, grad, hess = last["f"], last["g"], last["h"]
            return (f, grad, hess) if second else (f, grad)
        if n_eval[0] >= control.max_fev:
            raise _BudgetSpent
        n_eval[0] += 1
        f, grad, hess = np.inf, np.zeros_like(x), None
        beta, theta = x[:p], x[p:]
        lam = cov.theta_to_lambda(theta, q, structure)
        swept = None
        try:
            solve = conditional_modes(beta, lam, data, family,
                                      start=warm["u"], record=True)
        except EstimationError:
            warm["u"] = None
        else:
            warm["u"] = solve.modes
            out = _quadrature_sweep(beta, lam, data, family, solve.modes,
                                    solve.cond_chol, rule, positions,
                                    exact=True, second=second,
                                    state=solve.state)
            ell, gradient = out[0], out[1].sum(axis=0)
            swept = solve, ell, gradient
            total = float(np.sum(ell))
            if np.isfinite(total):
                f, grad = -total, -gradient
                if second:
                    hess = -0.5 * (out[2] + out[2].T)
        if np.isfinite(f):
            if f < best["f"]:
                best.update(x=x.copy(), f=f)
        elif best["x"] is not None:
            # L-BFGS-B takes an infinite value for convergence; a bowl
            # around the best point makes its line search step back instead
            gap = x - best["x"]
            scale = 1.0 + abs(best["f"])
            f, grad = best["f"] + scale * (gap @ gap), 2.0 * scale * gap
        last.update(x=x.copy(), f=f, g=grad, h=hess, sweep=swept)
        return (f, grad, hess) if second else (f, grad)

    x_hat = np.concatenate([beta0, theta0])
    f_hat = np.inf
    success, message = False, "no evaluation budget"
    diagonal = [p + t for t, (i, j) in enumerate(positions) if i == j]
    try:
        if (q >= 2 and rule.points_per_dim >= 2
                and control.theta_start is not None
                and np.all(x_hat[diagonal] >= _BOUNDARY_TOL)):
            x_hat = _newton_phase(objective, x_hat, diagonal)
        for attempt in range(control.restarts + 1):
            remaining = control.max_fev - n_eval[0]
            if remaining <= 0:
                break
            result = minimize(objective, x_hat, jac=True, method="L-BFGS-B",
                              bounds=bounds,
                              options={"maxfun": remaining, "ftol": _FTOL,
                                       "gtol": _GTOL})
            improvement = f_hat - result.fun
            x_hat, f_hat = result.x, float(result.fun)
            # a restart from a converged point may end in a failed line
            # search at the round-off floor; without a real gain the fit
            # stays converged.  The last allowed restart confirms a point
            # that way even when no run reported success: it stopped where
            # it began.
            finite = bool(np.isfinite(f_hat))
            confirms = improvement < 1e-6 and (success
                                               or attempt == control.restarts)
            success = finite and (bool(result.success) or confirms)
            message = (result.message if finite
                       else "the objective is not finite there")
            if success and attempt > 0 and improvement < 1e-6:
                break
    except _BudgetSpent:
        if best["x"] is not None:
            x_hat = best["x"]
        success = False

    # the optimum is usually the last point evaluated; if that solve met
    # the tight tolerance, a warm re-solve from its modes would stop at
    # once and repeat its factors and sweep bit for bit
    swept = last["sweep"]
    reuse = (swept is not None and x_hat.tobytes() == last["x"].tobytes()
             and swept[0].iterations < _MODE_MAX_ITER)
    fitted = _finalize(x_hat[:p], x_hat[p:], structure, data, family, rule,
                       converged=success, n_fev=n_eval[0], start=warm["u"],
                       swept=swept if reuse else None)
    if not success:
        err = EstimationError(
            f"optimizer did not converge within {control.max_fev} evaluations"
            if n_eval[0] >= control.max_fev
            else f"optimizer stopped without converging: {message}"
        )
        err.best = fitted
        raise err
    return fitted


def load_fitted(beta, theta, data: GlmmData, family: FamilySpec,
                n_points: int | None = None,
                structure: str = "unstructured") -> FittedGlmm:
    """Rehydrate a model at externally supplied estimates.

    Solves the posterior modes and conditional factors at ``(beta,
    theta)`` cold, without optimizing, so externally estimated models get
    the full post-estimation machinery.  The marginal log-likelihood on
    the ``n_points`` rule is swept on the first read of ``loglik``; no
    post-estimation function reads it.  A negative diagonal entry of
    theta is a ``DomainError``, as for :func:`fit`'s ``theta_start``.
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
    cov._nonnegative_factor(theta, q, structure)
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    return _finalize(beta, theta, structure, data, family, rule,
                     converged=True, n_fev=0)


def _finalize(beta, theta, structure, data, family, rule, converged,
              n_fev, start=None, swept=None) -> FittedGlmm:
    """The fit at (beta, theta): modes solved from ``start`` and, when
    converged after evaluations, one exact sweep for the log-likelihood
    and the gradient's norm.  ``swept`` is the fit objective's evaluation
    at exactly these parameters, ``(solve, ell, summed scores)``, whose
    modes, factors and sweep then stand in for the re-solve and the
    sweep.  Without a sweep (a rehydration, or a fit that did not
    converge) ``loglik`` is left to its first read."""
    q = data.n_random
    lam = cov.theta_to_lambda(theta, q, structure)
    exact = converged and n_fev > 0
    ell = None
    if swept is not None:
        solve, ell, gradient = swept
        modes, chols = solve.modes, solve.cond_chol
    else:
        modes, chols = conditional_modes(beta, lam, data, family, start=start)
        if exact:
            ell, scores = _quadrature_sweep(
                beta, lam, data, family, modes, chols, rule,
                cov.free_positions(q, structure), exact=True)
            gradient = scores.sum(axis=0)
    fitted = FittedGlmm(
        beta=np.array(beta, dtype=float), theta=np.array(theta, dtype=float),
        structure=structure, family=family, data=data, modes=modes,
        cond_chol=chols, m_used=rule.points_per_dim, converged=converged,
        boundary=bool(np.any(np.diag(lam) < _BOUNDARY_TOL)),
        grad_norm=float(np.linalg.norm(gradient)) if exact else None,
        n_fev=n_fev,
    )
    if ell is not None:
        # the frozen instance takes the value where the cached property
        # would store it
        object.__setattr__(fitted, "loglik", float(np.sum(ell)))
    return fitted
