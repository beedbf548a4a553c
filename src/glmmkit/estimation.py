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
factor (differentiated through its Cholesky), contracting the nodes'
motion in the parameters (``_anchor_motion``).  The scores themselves
stay independently checked: acceptance gates 1 and 2 test the
fixed-anchor scores against finite differences and brute-force
integration, and a test checks the exact gradient against finite
differences of the re-anchored log-likelihood.  The Hessian is the
derivative of the fixed-anchor scores with the anchors moving, from the
same implicit derivatives (``_anchored_hessian``); the anchor terms of
both read the rows' state at the modes (``_ModeState``).

The maximizer is L-BFGS-B.  A fit from a start inside the bounds (the
default one, a method-of-moments theta at a fit without random effects,
or a given one such as lme4's second stage after a Laplace fit) first
takes Newton steps (``_newton_phase``), from the same sweep as the
gradient.  Where they converge, their last evaluation is the fit; where
they hand over, L-BFGS-B carries on from there, or from its mirror image
in a column of Lambda (``_mirror_pinned_columns``).  On a rule of two or
more points per dimension the steps use that Hessian, which leaves out
the derivative of the anchor terms, so it is not the objective's own; it
is closest on finer rules and near the optimum.  On the Laplace rule
(one point) it is furthest from it, but there the anchor terms are the
derivative of sum_i log|C_i| alone, and the steps add that term's second
derivative (``_log_det_hessian``): the objective's exact Hessian.  Where
the Hessian is not positive definite the steps use its eigenvalues'
magnitudes, and each step keeps every theta diagonal entry within a
ratio of its value that grows while it binds, so most fits converge in
the Newton steps.

Each fit evaluation computes the rows at the modes once.  The mode
solve starts every Newton iteration from its last accepted trial and
hands its final rows, with the one Cholesky factor of the curvature, to
the sweep (``conditional_modes(record=True)``); only a stored fit's
Hessian rebuilds them (``_mode_state``).  A solve starts from the last
evaluation's modes, moved along their derivative in the parameters where
that evaluation's sweep was second-order and computed it.  The optimum
is usually the last point evaluated, and then that evaluation's modes,
factors and sweep are the fit.  A rehydrated fit (``load_fitted``)
sweeps for its log-likelihood only when ``loglik`` is read.

With one random effect (q = 1) every curvature, Newton step and
conditional factor is a scalar per cluster, and batched LAPACK calls and
matrix products on 1 x 1 stacks cost more in call overhead than in
arithmetic.  There every step of a fit evaluation uses scalar closed
forms: the mode solver and the conditional factor (``_penalized_curvature``,
``_newton_step``, ``_cholesky``, ``_conditional_factor``), the adapted
grid (``quadrature._adapted_grid``), the sweep's products with Lambda,
the anchor motion (``_scalar_anchor_motion``) and the second-order
sweep's Hessian (``_scalar_anchored_hessian``).  Their results are the
LAPACK, matmul and einsum results bit for bit, and they fail where those
fail; q >= 2 keeps the matrix forms.  So does the Laplace rule's
log-determinant term (``_log_det_hessian``) at every q: a q = 1 fit
takes the one-point rule only when asked for it.

``fit`` logs one debug record to the ``glmmkit`` logger per fit: its
evaluations, those of the Newton steps and how the steps ended, its
second-order sweeps and how many of them swept an evaluated point again,
the mode solver's iterations and step-halving trials, its L-BFGS-B runs,
and whether it fell back from a failed moment start.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve

from . import covariance as cov
from .design import GlmmData
from .exceptions import (ConfigError, EstimationError, ShapeError,
                         _check_integer)
from .families import FamilySpec, as_family_spec
from .quadrature import GhRule, _adapted_grid, gh_rule

__all__ = ["FitControl", "FittedGlmm", "conditional_modes", "fit",
           "load_fitted", "default_points"]

# glibc's malloc maps a block above its mmap threshold (128 KiB at start)
# afresh at every call, and trims a free heap top above twice that, so
# each reuse of such a block page-faults again.  The quadrature sweep's
# node blocks are of that size (157 KB at M = 7, q = 2, 400 rows).
# Freeing a mapped block raises the mmap threshold to its size and the
# trim threshold to twice that (mallopt(3)): this untouched 8 MiB one,
# allocated and freed at import, keeps the blocks on the heap.  It costs
# no resident memory, and under other allocators it does nothing.
np.empty(1 << 20)

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
# the Newton phase before L-BFGS-B (see fit): steps, halvings per step,
# the floor of the Hessian's eigenvalue magnitudes relative to the
# largest, and the largest theta trust ratio, far past any that binds:
# squared again it would overflow, and inf times a zero theta entry is
# not a number
_NEWTON_ITER = 16
_NEWTON_HALVINGS = 4
_NEWTON_EIG_FLOOR = 1e-8
_NEWTON_RATIO_MAX = 1e100
# the floor of the default start's random-effect covariance eigenvalues
# (``_moment_start``): every theta diagonal entry starts at 0.05 or more
_MOMENT_FLOOR = 0.05 ** 2
# (row, node) entries per block of the quadrature sweep: many nodes per
# block save numpy call overhead on small data; from 16,384 rows on each
# block is one node, which measured faster at 20,000 and 50,000 rows.
_BLOCK_ELEMENTS = 32_768
# (cluster, node) entries per slice of the Hessian's cluster-by-node
# algebra: its temporaries hold a few dozen doubles per entry at q = 1,
# more at larger q, so slicing bounds its memory whatever the data size
_CLUSTER_NODES = 4_096

_log = logging.getLogger("glmmkit")


def default_points(q: int, stage: str = "estimation") -> int:
    """Default quadrature points per dimension.

    Estimation uses 7 points for one random effect and the Laplace
    approximation for more; post-estimation derivatives default to 5,
    the point count where log-likelihoods and gradients stabilize.
    """
    if stage == "derivatives":
        return 5
    return 7 if q == 1 else 1


def _theta_diagonal(q: int, structure: str) -> list[int]:
    """Positions in theta of the diagonal entries of Lambda."""
    return [t for t, (i, j) in enumerate(cov.free_positions(q, structure))
            if i == j]


def _ones_diagonal(q: int, structure: str) -> np.ndarray:
    """The theta of Lambda = I, lme4's default start."""
    return np.isin(np.arange(len(cov.free_positions(q, structure))),
                   _theta_diagonal(q, structure)).astype(float)


def _on_boundary(theta, q: int, structure: str) -> list[int]:
    """Positions in theta of the diagonal entries of Lambda below
    ``_BOUNDARY_TOL``: the ones a fit, its Hessian and the Newton steps
    treat as on the bound theta = 0."""
    return [t for t in _theta_diagonal(q, structure)
            if theta[t] < _BOUNDARY_TOL]


@dataclass(frozen=True)
class FitControl:
    """Optimizer and quadrature controls for :func:`fit`.

    ``max_fev`` caps objective evaluations exactly, the second-order
    sweeps of :func:`fit`'s Newton steps included (a second sweep of an
    evaluated point, for its Hessian, is no new evaluation); ``restarts``
    reruns L-BFGS-B from where it stopped, where L-BFGS-B runs at all:
    after Newton steps that converged it does not.  Both are integers,
    ``max_fev`` at least 1 and ``restarts`` at least 0, or a
    ``ConfigError``; so is ``n_points``, when given, at least 1.  The
    stopping tolerances are the module constants ``_FTOL`` and ``_GTOL``.

    ``n_points`` defaults to :func:`default_points`.  ``beta_start``
    defaults to the fit of the model without random effects, and
    ``theta_start`` to a method-of-moments estimate at ``beta_start`` (or
    at that default), or to the ones diagonal where the data do not
    determine one; :func:`fit` describes both.
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
    def lambda_matrix(self) -> np.ndarray:
        return cov.theta_to_lambda(self.theta, self.data.n_random, self.structure)

    @property
    def n_params(self) -> int:
        return self.beta.size + self.theta.size

    def parameter_labels(self, parameterization: str = "theta") -> list[str]:
        return list(self.data.x_names) + cov.labels(
            self.data.n_random, self.structure, self.data.z_names,
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


def conditional_modes(beta, lam, data: GlmmData, family: FamilySpec,
                      start: np.ndarray | None = None, *,
                      record: bool = False):
    """Per-cluster posterior modes of u and conditional Cholesky factors.

    Maximizes ``log f(y_i | u) - 0.5 ||u||^2``, with ``u`` entering as
    ``Lambda u`` for the factor ``lam`` (q, q), for every cluster at once
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
    observed one is not positive definite).  A Newton step on a singular
    curvature is an ``EstimationError`` that names a cluster whose
    curvature or gradient is not finite, where there is one; a trial whose
    objective overflows is halved without a warning.

    Returns
    -------
    modes : ndarray, shape (I, q)
    cond_chol : ndarray, shape (I, q, q)

    With ``record``, returns instead a ``_ModeSolve``: the modes and
    factors plus the rows' state at the modes, built from the solve's
    last iteration, which the fit's exact sweep needs.
    """
    family = as_family_spec(family)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (data.n_random, data.n_random):
        raise ShapeError("relative covariance factor does not match Z")
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
        try:
            direction = _newton_step(hess, grad)
        except np.linalg.LinAlgError:
            bad = ~(np.isfinite(hess).all(axis=(1, 2))
                    & np.isfinite(grad).all(axis=1))
            raise EstimationError(
                "conditional mode search met a singular curvature"
                + (f" at cluster {data.cluster_ids[int(np.argmax(bad))]!r}, "
                   "whose curvature or gradient is not finite"
                   if bad.any() else "")
            ) from None

        if objective is None:
            objective = objective_at(eta, mu, u)
        floor = objective - 1e-12 * (1.0 + np.abs(objective))
        scale = np.ones((n_cl, 1))
        settled = np.zeros(n_cl, dtype=bool)
        for halving in range(30):
            candidate = u + scale * direction
            eta_c = eta_at(candidate)
            # a trial far out can overflow its objective's sums to -inf,
            # which the halving below rejects
            with np.errstate(over="ignore"):
                mu_c = None if family.canonical else family.inverse_link(eta_c)
                objective_c = objective_at(eta_c, mu_c, candidate)
            settled |= objective_c >= floor
            if settled.all():
                break
            scale[~settled] *= 0.5
        halvings += halving
        # a cluster that never improved keeps its rows, so its next step
        # would be this one again: past the loosest tolerance it cannot
        # settle.  Below that it keeps a vanishing step, and the gradient
        # check after the last iteration decides.
        if not settled.all():
            stuck = np.where(settled, 0.0, np.max(np.abs(grad), axis=1))
            if stuck.max() > _MODE_LAST_TOL:
                raise EstimationError(
                    "conditional mode search did not converge for cluster "
                    f"{data.cluster_ids[int(np.argmax(stuck))]!r}"
                )
        scale[~settled] = 0.0
        u = u + scale * direction
        # the last trial ran at the new modes of every cluster that settled
        if settled.all():
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


def _curvatures(eta, mu, dmu, var, y, family: FamilySpec, order: int = 0):
    """Curvature of -log f(y | eta) per unit eta^2 of every row, observed
    and expected; with ``order`` 1, also their first derivatives in eta
    (the slopes), and with ``order`` 2 their second ones too (the bends).

    With A = mu'/V, the eta-derivatives of log f are l1 = (y - mu) A,
    l2 = -mu' A + (y - mu) A', l3 = -mu'' A - 2 mu' A' + (y - mu) A'' and
    l4 = -mu''' A - 3 mu'' A' - 3 mu' A'' + (y - mu) A'''.  The observed
    curvature is -l2, the expected one mu' A.  A''' comes from
    differentiating A V(mu) = mu' three times; V is at most quadratic in
    mu for both families, so V''' = 0.
    """
    d2mu = family._d2mu_deta2(eta)
    dvar = family._dvar_dmu(mu)
    m_exp = dmu * dmu / var
    ratio_1 = d2mu / var - dmu * dmu * dvar / var ** 2      # A'
    m_obs = m_exp - (y - mu) * ratio_1
    if order == 0:
        return m_obs, m_exp
    ratio = dmu / var
    d3mu = family._d3mu_deta3(eta)
    ratio_2 = (d3mu / var                                   # A''
               - 3.0 * ratio * d2mu * dvar / var
               + ratio * ratio * dmu * (2.0 * dvar * dvar / var
                                        - family._d2var_dmu2()))
    slope_exp = d2mu * ratio + dmu * ratio_1
    slope_obs = slope_exp + dmu * ratio_1 - (y - mu) * ratio_2
    if order == 1:
        return m_obs, m_exp, slope_obs, slope_exp
    # the eta-derivatives of V(mu(eta)), then A''
    var_1 = dvar * dmu
    var_2 = family._d2var_dmu2() * dmu * dmu + dvar * d2mu
    var_3 = 3.0 * family._d2var_dmu2() * dmu * d2mu + dvar * d3mu
    ratio_3 = (family._d4mu_deta4(eta) - 3.0 * ratio_2 * var_1
               - 3.0 * ratio_1 * var_2 - ratio * var_3) / var
    bend_exp = d3mu * ratio + 2.0 * d2mu * ratio_1 + dmu * ratio_2
    bend_obs = (bend_exp + d2mu * ratio_1 + 2.0 * dmu * ratio_2
                - (y - mu) * ratio_3)
    return m_obs, m_exp, slope_obs, slope_exp, bend_obs, bend_exp


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
                                                     data.y, family, 1)
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
                      exact: bool = False, second: bool = False,
                      state: _ModeState | None = None):
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
    eta``: the residual form ``(y - mu) mu'(eta) / V(mu)``, which a
    canonical link reduces to ``y - mu``.

    These scores hold the anchors (modes and factors) fixed.  ``exact``
    adds the derivative through the anchors, contracted from the nodes'
    motion (see ``_anchor_motion``), so the scores become the exact
    gradient of the returned log-likelihood with the modes and factors
    re-solved at every parameter value: the gradient of the fit
    objective.  ``second`` also returns the Jacobian of the summed
    fixed-anchor scores with the anchors following the parameters (see
    ``_anchored_hessian``), shape (p + k, p + k), and the nodes' motion in
    the parameters, shape (I, q, 1 + q, p + k), whose first column is the
    modes' derivative; it adds one row sum per node for every pair of
    distinct columns of [X Z], weighted by the observed curvature.  The
    log-likelihood and scores are the same bit for bit with and without
    ``second``.

    The anchor terms of both read the rows' state at the modes: ``state``,
    the one a mode solve handed over (``conditional_modes(record=True)``),
    or else one rebuilt from the modes (``_mode_state``).
    """

    log_w, locations = _adapted_grid(rule, modes, chols)
    y, n_nodes, p = data.y, rule.size, data.n_fixed
    xbeta = data.X @ np.asarray(beta, dtype=float)
    # Lambda u, (q, I, M).  At q = 1 it and Lambda' Z' r below are
    # products of scalars; at lambda = 0 their zeros keep the sign that
    # the matrix product drops, which no sum they feed can see
    scalar = data.n_random == 1
    effects = (lam[0, 0] * locations if scalar
               else np.tensordot(lam, locations, axes=1))
    joint = log_w + data.sum_by_cluster(family.log_normalizer(y))[:, None]
    scores = positions is not None
    if scores:
        general = not family.canonical
        distinct, col_of = data.distinct_design
        columns = np.stack([data.X[:, j] if j < p else data.Z[:, j - p]
                            for j in distinct])
        kernel = np.empty((len(distinct), data.n_clusters, n_nodes))
    if exact or second:
        # the anchors' motion first: the mode-level rows are freed before
        # the node blocks run, so a rebuilt state is bound to no name
        motion = _anchor_motion(
            lam, data, modes, chols, positions,
            _mode_state(beta, lam, data, family, modes) if state is None
            else state, columns, col_of)
    if second:
        products, pair_of = _design_pairs(col_of)
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
        grad_g = ((lam[0, 0] * kernel[p:] if scalar
                   else np.tensordot(lam.T, kernel[p:], axes=1))
                  - locations)
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
        # E[grad g]' da + <E[grad g z'] + diag(1 / C_jj), dC>; dC is lower
        # triangular, so the upper entries of E[grad g z'] meet zeros
        moments = np.concatenate(
            [np.einsum("im,aim->ia", rho, grad_g)[..., None],
             np.einsum("im,aim,mc->iac", rho, grad_g, rule.nodes)], axis=2)
        diag = np.arange(data.n_random)
        moments[:, diag, 1 + diag] += 1.0 / chols[:, diag, diag]
        scores += np.einsum("iae,iaet->it", moments, motion)
    if not second:
        return ell, scores
    return ell, scores, jacobian, motion


def _anchor_motion(lam, data: GlmmData, modes, chols, positions,
                   state: _ModeState, columns, col_of):
    """How the nodes u = a + C z move with the parameters: du = da + dC z,
    returned as ``motion`` (I, q, 1 + q, p + k) with du = sum_e [1, z]_e
    motion[:, :, e].  This is the one derivative of the anchors: the exact
    gradient's anchor terms contract it, the Hessian's anchor terms
    (``_anchored_hessian``) and the Laplace log-determinant term
    (``_log_det_hessian``) read it.

    With g(u) = log f(y | u) - ||u||^2 / 2, the mode moves by da = H_obs^-1
    d(grad g)(a), from implicit differentiation of grad g(a) = 0, H_obs the
    observed penalized curvature.  The factor moves by dC = C Phi(C^-1 dS
    C^-T) with dS = -S dH S and S = C C', that is dC = -C Phi(C' dH C), Phi
    keeping the lower triangle with the diagonal halved, dH differentiating
    the curvature behind C with the mode's motion in eta.  Where C was
    built on the expected curvature (``_factor_curvature``), dH
    differentiates that curvature, while da still solves against H_obs,
    formed from the rows and factored by LAPACK.  The exact gradient's
    anchor terms are then E[grad g]' da + <E[grad g z'] + diag(1 / C_jj),
    dC>, z the base nodes, the diagonal term from log|C|.

    The motion takes the row sums of z d' against the observed curvature
    and of z z' against the factor's weight at the modes, d the rows of the
    design [X Z], and of z z' d against the weight's slope; the design
    comes as its distinct ``columns`` and ``col_of`` (``_design_pairs``).
    ``state`` holds the rows at the modes.

    At q = 1 the motion is formed from per-cluster scalars
    (``_scalar_anchor_motion``).
    """
    if data.n_random == 1:
        return _scalar_anchor_motion(lam, data, modes, chols, state, columns,
                                     col_of)
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


def _scalar_anchor_motion(lam, data: GlmmData, modes, chols,
                          state: _ModeState, columns, col_of):
    """``_anchor_motion`` at q = 1, from per-cluster scalars: the motion
    (I, 1, 2, p + 1) of the mode, da, and of the factor, dc.

    The products come in the general form's order, and every 1 x 1
    matmul or einsum, which sums one product from +0, becomes ``0.0 +``
    that product, so the result is the general form's bit for bit.  The
    expected-curvature fallback keeps LAPACK's solve: with several
    right-hand sides it multiplies by the pivot's reciprocal.
    """
    p = data.n_fixed
    z = data.Z[:, 0]
    lam = lam[0, 0]
    c = chols[:, 0, :]                                        # (I, 1)

    def z_sums(weight):
        """sum over each cluster's rows of z weight d, shape (I, p + 1)."""
        return data.sum_by_cluster(columns * (weight * z), axis=1).T[:, col_of]

    zmd = z_sums(state.m_obs)                                 # z' diag(m) D
    # d(grad g)(a): theta's design column is z times the mode
    dgrad = zmd.copy()
    dgrad[:, p] *= modes[:, 0]
    dgrad = -(0.0 + lam * dgrad)
    dgrad[:, p] += data.sum_by_cluster(z * state.resid)
    if state.observed:
        da = 0.0 + c * (0.0 + c * dgrad)                      # C C' dgrad
        zwz = zmd[:, p:]
    else:
        h_obs = (lam * zmd[:, p:]) * lam + 1.0
        da = np.linalg.solve(h_obs[:, :, None], dgrad[:, None])[:, 0]
        zwz = z_sums(state.m_exp)[:, p:]
    third = z_sums(state.slope * z)
    deta = third.copy()
    deta[:, p] *= modes[:, 0]
    deta += 0.0 + (third[:, p:] * lam) * da
    dh = 0.0 + (lam * deta) * lam
    wl = 0.0 + zwz * lam
    dh[:, p:] += wl
    dh[:, p:] += wl
    inner = (0.0 + (0.0 + c * dh) * c) * 0.5
    motion = np.empty((data.n_clusters, 1, 2, p + 1))
    motion[:, 0, 0] = da
    motion[:, 0, 1] = -(0.0 + c * inner)
    return motion


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

    At q = 1 the node arrays are formed from per-node scalars
    (``_scalar_anchored_hessian``).
    """
    if lam.shape[0] == 1:
        return _scalar_anchored_hessian(p, lam, nodes, rho, kernel,
                                        curvature, pair_of, locations,
                                        grad_g, motion)
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


def _scalar_anchored_hessian(p, lam, nodes, rho, kernel, curvature, pair_of,
                             locations, grad_g, motion):
    """``_anchored_hessian`` at q = 1, from per-node scalars.

    P's monomials are 1 for beta and u for theta, so against [1, z] the
    node moments of Q are those of 1, z, u, z u and u u.  The arrays the
    general form contracts are built in its layouts and go through its
    matmuls and einsums, so every sum runs in its order and the result is
    the general form's, bit for bit.
    """
    n_cl, n = rho.shape[0], p + 1
    z, u = nodes[:, 0], locations[0]
    # the (I, M, 5) node products behind Q's moments
    rho_z, rho_u = rho * z, rho * u
    products = np.empty(rho.shape + (5,))
    products[..., 0] = rho
    products[..., 1] = rho_z
    products[..., 2] = rho_u
    products[..., 3] = rho_z * u
    products[..., 4] = rho_u * u
    q_moments = products.swapaxes(1, 2) @ curvature          # (I, 5, pairs)

    # the Louis identity at fixed anchors; the node scores K_j for beta_j
    # and K u for theta are stored (p + 1, I, M) and viewed (I, M, p + 1)
    s = kernel.copy()
    s[p] *= u
    by_column = rho * s                                       # node scores
    s, weighted = s.transpose(1, 2, 0), by_column.transpose(1, 2, 0)
    mean_s = weighted.sum(axis=1)
    slot = np.zeros((n, n), dtype=int)        # Q's moment of 1, u or u u
    slot[p] = slot[:, p] = 2
    slot[p, p] = 4
    total = (weighted.reshape(-1, n).T @ s.reshape(-1, n)
             - mean_s.T @ mean_s
             - q_moments.sum(axis=0)[slot, pair_of])

    # E[dP K du] - E[P Q [0 Lambda]' du]; Q's moments against [1, z] of
    # 1 for beta and u for theta
    base = np.column_stack([np.ones_like(z), z])
    flat = motion.reshape(n_cl, 2, n)
    q_cols = q_moments[:, [[0, 1]] * p + [[2, 3]], pair_of[:, p:]]
    total -= (q_cols.swapaxes(0, 1).reshape(n, -1)
              @ (0.0 + lam[0, 0] * flat).reshape(-1, n))
    zr_moments = np.einsum("im,aim,me->iae", rho, kernel[p:], base)
    total[p:] += np.einsum("ire,iret->rt", zr_moments, motion)
    # Cov(P K, grad g' du)
    g_moments = np.einsum("im,jim,me->ije", rho, grad_g, base)
    sg_moments = (by_column * grad_g[0]).transpose(1, 0, 2)[:, :, None]
    total += (np.swapaxes((sg_moments @ base).reshape(n_cl, n, -1), 0, 1)
              .reshape(n, -1) @ flat.reshape(-1, n)
              - mean_s.T @ (g_moments @ flat)[:, 0])
    return total


def _log_det_hessian(lam, data: GlmmData, family: FamilySpec, modes, chols,
                     positions, state: _ModeState, motion):
    """Second derivative of sum_i log|C_i| in the parameters, with the
    modes and factors following them, shape (p + k, p + k): what the
    Laplace objective's Hessian adds to the Jacobian of the scores.

    On the one-point rule the node sits at the mode, so the objective is
    sum_i g(a_i) + log|C_i| and the Jacobian (``_anchored_hessian``) is
    the total second derivative of the g part.  log|C| = -log|H| / 2, H
    the penalized curvature behind C, so with S = H^-1 = C C' this adds
    -(tr(S d2H_st) - tr(S dH_s S dH_t)) / 2 per cluster.

    ``motion`` is ``_anchor_motion``'s: the mode's motion da and the
    factor's dC = -C Phi(C' dH C), so C' dH_s C = -(C^-1 dC_s + its
    transpose), and the second trace is the Frobenius product of these
    matrices for s and t.  H = Lambda' Z' W Z Lambda + I is linear in
    Lambda and depends on the rest through eta = X beta + Z Lambda a,
    whose second derivative takes the mode's, d2a_st, from
    differentiating grad g(a) = 0 twice against the observed curvature.
    d2a enters only through its product with per-cluster vectors, so it
    is pulled back through that curvature (nu below) and never formed.
    Every term is then a product of (rows, parameters) arrays or a sum
    over clusters, and W's second eta-derivative comes from
    ``_curvatures``.
    """
    p, q = data.n_fixed, data.n_random
    rows, Z = data.cluster_index, data.Z
    k = len(positions)
    theta_rows = [a for a, _ in positions]
    theta_cols = [b for _, b in positions]
    da = motion[:, :, 0]                                       # (I, q, p + k)
    half = (np.linalg.inv(chols)[:, None]                      # C^-1 dC
            @ np.moveaxis(motion[:, :, 1:], -1, 1))
    cdc = np.swapaxes(half + np.swapaxes(half, 2, 3), 0, 1).reshape(p + k, -1)
    second_trace = cdc @ cdc.T

    weight, slope = state.weight, state.slope
    bend = _curvatures(state.eta, state.mu, state.dmu, state.var, data.y,
                       family, 2)[4 if state.observed else 5]
    cov_u = chols @ np.swapaxes(chols, 1, 2)                   # S
    zl = Z @ lam                                               # Z Lambda
    xi = np.einsum("nj,njk->nk", zl, cov_u[rows])              # S Lambda' z
    lever = np.einsum("nj,nj->n", zl, xi)                      # z' Lambda xi
    deta = np.einsum("nj,njs->ns", zl, da[rows])
    deta[:, :p] += data.X
    deta[:, p:] += Z[:, theta_rows] * modes[:, theta_cols][rows]
    # one segment sum for Z' W Z at the factor's pairs of entries and for
    # the pull-back of the d2a terms, nu = H_obs^-1 Lambda' sum z lever W'
    zwz = ((Z[:, theta_rows] * weight[:, None])[:, :, None]
           * Z[:, None, theta_rows]).reshape(data.n_obs, k * k)
    sums = data.sum_by_cluster(np.hstack([Z * (lever * slope)[:, None], zwz]))
    pull, zwz = sums[:, :q], sums[:, q:].reshape(-1, k, k)
    if state.observed:
        nu = np.einsum("ijk,ik->ij", cov_u, pull @ lam)
    else:
        nu = np.linalg.solve(_penalized_curvature(state.m_obs, lam, data),
                             (pull @ lam)[..., None])[..., 0]
    zeta = np.einsum("nj,nj->n", zl, nu[rows])                 # z' Lambda nu
    mode_pull = data.sum_by_cluster(Z * (state.m_obs * zeta)[:, None])

    # tr(S d2H_st): the terms second order in dLambda, those in dLambda
    # and d eta, those in the mode's motion, and those in d eta twice
    first_trace = np.zeros((p + k, p + k))
    first_trace[p:, p:] = 2.0 * np.einsum(
        "ist,ist->st", zwz, cov_u[:, theta_cols][:, :, theta_cols])
    by_row = np.zeros((data.n_obs, p + k))
    by_row[:, p:] = Z[:, theta_rows] * (
        2.0 * slope[:, None] * xi[:, theta_cols]
        - (state.m_obs[:, None] * nu[rows][:, theta_cols]))
    cross = by_row.T @ deta
    cross[p:] += np.einsum("is,ist->st", (pull - mode_pull)[:, theta_rows],
                           da[:, theta_cols])
    first_trace += cross + cross.T
    first_trace += deta.T @ ((lever * bend - zeta * state.slope_obs)[:, None]
                             * deta)
    return -0.5 * (first_trace - second_trace)


# ---------------------------------------------------------------------------
# outer optimization


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on the first call: most fits
    converge in the Newton phase and never run L-BFGS-B, and the import
    takes longer than such a fit."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


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


def _moment_start(beta: np.ndarray, data: GlmmData, family: FamilySpec,
                  structure: str) -> np.ndarray:
    """A method-of-moments theta start from the Pearson residuals at the
    fixed effects ``beta``.

    With e = (y - mu) / sqrt(V) and f = (mu'(eta) / sqrt(V)) z for every
    row, to first order in the random effect E[e_j e_k] = f_j' G f_k for
    rows j != k of one cluster, G = Lambda Lambda'.  Least squares over
    all such pairs gives G's free entries: all of vech(G), or its diagonal
    under the ``"diagonal"`` structure.  A pair's coefficients of those
    entries are W vec(f_j f_k'), W adding the two mirror positions of an
    off-diagonal entry, and every sum over j != k is the sum over all j
    and k less that over j = k.  So with S_i and t_i the sums of f f' and
    e f over cluster i, the normal equations need only those two segment
    sums (one ``sum_by_cluster`` call) and per-row totals:

        A = W (sum_i S_i (x) S_i, rearranged) W' - D'D,
        r = W vec(sum_i t_i t_i') - D' e^2,     D_j = W vec(f_j f_j').

    G's eigenvalues are floored at ``_MOMENT_FLOOR``, so every theta diagonal
    entry is at least 0.05, far above ``_BOUNDARY_TOL``, and theta is
    G's Cholesky factor in ``free_positions`` order.  Where the system is
    singular or its solution is not finite, as when no cluster has two
    rows, the start is the ones diagonal, lme4's default.
    """
    q = data.n_random
    positions = cov.free_positions(q, structure)
    eta = data.X @ beta
    mu = family.inverse_link(eta)
    w = np.zeros((len(positions), q * q))
    for row, (i, j) in enumerate(positions):
        w[row, [i * q + j, j * q + i]] = 1.0
    # a far-off beta can overflow the products, and a system that is not
    # finite falls back below
    with np.errstate(over="ignore", invalid="ignore"):
        # rows of clusters of one row have no pair: they enter as zeros
        scale = ((np.diff(data.offsets) > 1)[data.cluster_index]
                 / np.sqrt(family.variance_function(mu)))
        e = (data.y - mu) * scale
        f = data.Z * (family._dmu_deta(eta) * scale)[:, None]
        outer = (f[:, :, None] * f[:, None, :]).reshape(-1, q * q)
        sums = data.sum_by_cluster(np.concatenate([outer, e[:, None] * f],
                                                  axis=1))
        s, t = sums[:, :q * q], sums[:, q * q:]
        # sum_i S_i[a, c] S_i[b, d], from the Gram matrix of the vec(S_i)
        cross = (s.T @ s).reshape(q, q, q, q).transpose(0, 2, 1, 3)
        d = outer @ w.T
        normal = w @ cross.reshape(q * q, q * q) @ w.T - d.T @ d
        rhs = w @ (t.T @ t).ravel() - d.T @ (e * e)
        try:
            free = np.linalg.solve(normal, rhs)
        except np.linalg.LinAlgError:
            free = None
    if free is None or not np.isfinite(free).all():
        return _ones_diagonal(q, structure)
    rows, cols = np.array(positions).T
    g = np.zeros((q, q))
    g[rows, cols] = free
    g[cols, rows] = free
    values, vectors = np.linalg.eigh(g)
    g = (vectors * np.maximum(values, _MOMENT_FLOOR)) @ vectors.T
    return np.linalg.cholesky(g)[rows, cols]


def _warn_if_every_cluster_separated(data: GlmmData) -> None:
    """Warn when every cluster's binary response is constant (all 0 or all
    1) and some cluster has two rows or more.  The marginal likelihood
    then approaches its supremum only as theta grows without bound, so
    the theta a fit stops at is set by the quadrature, not by the data.
    A cluster of one row is constant whatever the model, so data made
    only of those gets no warning."""
    sizes = np.diff(data.offsets)
    ones = data.sum_by_cluster(data.y)
    if ((ones == 0.0) | (ones == sizes)).all() and (sizes > 1).any():
        warnings.warn("every cluster's response is constant (all 0 or all "
                      "1): the likelihood has no finite maximum in theta",
                      UserWarning, stacklevel=3)


def _descent_step(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Newton step -H^-1 grad on the Cholesky factor of H or, where H
    is not positive definite, on its eigenvalues with their magnitudes
    floored at ``_NEWTON_EIG_FLOOR`` times the largest: a descent step
    either way.  A zero Hessian, or one with an entry that is not finite,
    gives a step that is not finite."""
    if not np.all(np.isfinite(hess)):
        return np.full_like(grad, np.nan)
    try:
        return -cho_solve((np.linalg.cholesky(hess), True), grad)
    except np.linalg.LinAlgError:
        values, vectors = np.linalg.eigh(hess)
        size = np.abs(values)
        size = np.maximum(size, _NEWTON_EIG_FLOOR * size.max())
        with np.errstate(divide="ignore", invalid="ignore"):
            return -vectors @ ((vectors.T @ grad) / size)


def _newton_phase(objective, x: np.ndarray,
                  diagonal: list[int]) -> tuple[np.ndarray, str]:
    """Safeguarded Newton steps on the fit objective from ``x``; returns
    the last point accepted and how the steps ended: ``"converged"`` or
    the reason they handed the point over.

    ``objective(x, second=True)`` returns the objective, its gradient and
    its Hessian (None where the evaluation failed); ``objective(x)`` the
    first two.  A Hessian that is not positive definite steps on its
    floored eigenvalues (``_descent_step``).  The objective depends on a
    theta ``diagonal`` entry through its square, so near zero it is flat
    or concave there, and a step on it can overshoot by orders of
    magnitude: each step is scaled so that every diagonal entry stays
    within [theta / r, r theta].  The trust ratio r starts at 2, squares
    (up to ``_NEWTON_RATIO_MAX``) after a step that this bound shortened
    and that was accepted without halving, and falls to max(2, sqrt(r))
    after a halved step.  A step that raises the objective is halved up
    to ``_NEWTON_HALVINGS`` times.  The steps stop once every gradient
    entry is within ``_GTOL``, and hand the point over early when the
    Hessian is missing, a step is not finite, a step gains nothing after
    its halvings, or ``_NEWTON_ITER`` steps are spent.  Far from the
    optimum the steps can be short, where a theta entry starts far below
    it and the objective grows much faster than quadratically in it (a
    Poisson random slope): on 120 such fits from the default start, 8
    steps ran out in 59, and 16 let all that evaluated their start
    converge.

    A trial point's Hessian is read only if the trial is accepted and
    has not converged.  So a step that the quadratic model expects to
    converge, g_k^3 / g_{k-1}^2 <= ``_GTOL`` with g the largest gradient
    entry at the last two points, sweeps its trials first-order, and an
    accepted one that misses asks ``objective(x, second=True)`` again at
    the same point.
    """
    f, grad, hess = objective(x, second=True)
    previous, first_order, ratio = None, False, 2.0
    for taken in range(_NEWTON_ITER + 1):
        size = np.max(np.abs(grad))
        # a failed first evaluation has a zero gradient and f = inf
        if size <= _GTOL and np.isfinite(f):
            return x, "converged"
        if taken == _NEWTON_ITER:
            return x, "step limit"
        if first_order:
            hess = objective(x, second=True)[2]
        if hess is None:
            return x, "no Hessian"
        step = _descent_step(hess, grad)
        if not np.all(np.isfinite(step)):
            return x, "non-finite step"
        theta, move = x[diagonal], step[diagonal]
        with np.errstate(divide="ignore"):
            room = np.where(move > 0.0, (ratio - 1.0) * theta,
                            (1.0 - 1.0 / ratio) * theta) / np.abs(move)
        scale = np.min(room, initial=1.0)
        clipped = scale < 1.0
        if clipped:
            step = scale * step
        final = previous is not None and size ** 3 <= _GTOL * previous ** 2
        previous = size
        for halving in range(_NEWTON_HALVINGS + 1):
            trial = x + step
            if final:
                f_trial, grad_trial = objective(trial)
                hess_trial = None
            else:
                f_trial, grad_trial, hess_trial = objective(trial,
                                                            second=True)
            if f_trial <= f + _FTOL * max(1.0, abs(f)):
                break
            step = 0.5 * step
        else:
            return x, "halvings exhausted"
        if halving:
            ratio = max(2.0, np.sqrt(ratio))
        elif clipped:
            ratio = min(ratio * ratio, _NEWTON_RATIO_MAX)
        x, f, grad, hess = trial, f_trial, grad_trial, hess_trial
        first_order = final


def _mirror_pinned_columns(objective, x: np.ndarray, p: int, q: int,
                           structure: str) -> np.ndarray:
    """Where Newton steps hand over, ``x`` mirrored in each column of
    Lambda whose diagonal entry they drove below ``_BOUNDARY_TOL`` while
    the gradient still pushes it down, and which holds another nonzero
    entry: that column's other entries negated.

    The log-likelihood depends on Lambda only through Lambda Lambda',
    which negating a whole column keeps; with its diagonal entry near
    zero, negating the rest of the column is that mirror image, up to a
    change of the diagonal entry below ``_BOUNDARY_TOL``.  The steps keep
    each diagonal entry above zero, and L-BFGS-B holds it at its bound;
    in the mirror image the gradient in the entry turns round, and it is
    free to grow where the steps were heading.  A column whose other
    entries are all zero (every column at q = 1 or under the diagonal
    structure) enters through its diagonal's square, which a mirror
    image cannot help, and then the gradient is not read.
    """
    positions = cov.free_positions(q, structure)
    below = {t: [p + s for s, (i, j) in enumerate(positions)
                 if j == positions[t][1] and i != j]
             for t in _on_boundary(x[p:], q, structure)}
    pinned = [t for t, entries in below.items() if np.any(x[entries])]
    if not pinned:
        return x
    grad = objective(x)[1]
    x = x.copy()
    for t in pinned:
        if grad[p + t] > 0.0:
            x[below[t]] *= -1.0
    return x


def fit(data: GlmmData, family: FamilySpec, structure: str = "unstructured",
        control: FitControl | None = None) -> FittedGlmm:
    """Maximize the marginal log-likelihood over (beta, theta).

    L-BFGS-B on the exact gradient of the adaptive-quadrature objective:
    every evaluation re-solves the modes warm from the previous one, and
    one quadrature sweep returns the log-likelihood and its gradient with
    the anchors differentiated too (``_quadrature_sweep(exact=True)``).
    The diagonal theta entries are bounded below by zero, so a
    ``theta_start`` with a negative diagonal entry is a ``DomainError``;
    a start with an entry that is not a number is a ``ConfigError``.
    A binomial fit whose every cluster has a constant response, some
    cluster with two rows or more, warns (``UserWarning``) that the
    likelihood has no finite maximum in theta, and runs on.

    The default start takes beta from a fit without random effects
    (``_glm_start``) and theta from the method of moments at that beta,
    or at ``beta_start`` when one is given (``_moment_start``): the
    cross products of the Pearson residuals of rows in one cluster give
    G = Lambda Lambda' by least squares, its eigenvalues floored so every
    theta diagonal entry starts at 0.05 or more.  Where no cluster has
    two rows, or the moments leave G undetermined, theta starts at the
    ones diagonal, lme4's default.  Where no evaluation of the Newton
    steps from the moment start is finite (its mode solve fails), they
    start once more from the ones diagonal, and the debug record counts
    that fallback.

    From a start (the default one, or ``theta_start``) whose diagonal
    entries are all at least ``_BOUNDARY_TOL``, Newton steps come first
    (``_newton_phase``), at any q and on any rule: each evaluation's
    sweep also returns the Jacobian of the scores (``second=True``), and
    the steps run until every gradient entry is within ``_GTOL``, or hand
    over early.  At q = 1 such an evaluation costs about two first-order
    ones; a step the quadratic model expects to converge sweeps
    first-order, and sweeps the same mode solve again, as no new
    evaluation, only if it misses.  From the default start a fit takes
    about half the evaluations of L-BFGS-B alone (a median of 4 instead
    of 9 on 50 clusters of 5 rows at M = 7).  On the Laplace rule (one
    point) the Jacobian is furthest from the objective's Hessian, and the
    steps add the second derivative of sum_i log|C_i|
    (``_log_det_hessian``), which makes it exact: a random-slope fit on
    40 clusters of 10 rows takes a median of 5 evaluations instead of
    14.  Their evaluations count against ``max_fev`` like any other.
    Where they converge, their last evaluation is the fit and L-BFGS-B
    does not run; where they hand over, L-BFGS-B starts there, with a
    column of Lambda negated where the steps pinned its diagonal entry at
    zero and its mirror image can leave it (``_mirror_pinned_columns``).
    ``scipy.optimize`` is imported on the first hand-over, not with
    glmmkit.  Each fit logs how the steps ended, at debug level, to the
    ``glmmkit`` logger.

    A restart reruns L-BFGS-B from where its previous run stopped, and
    the loop stops once a restart gains less than 1e-6; the last allowed
    restart that gains less than that confirms the point even when
    L-BFGS-B reported no success (a line search that fails at the
    round-off floor).  The fit's ``loglik`` is its last sweep's.  Raises
    :class:`~glmmkit.exceptions.EstimationError` (with the best fit so far
    attached as ``.best``) if ``max_fev`` evaluations run out first or the
    last run stops without converging, and (with ``.best = None``, chained
    to the mode solver's last error) if no evaluation gave a finite
    objective.
    """
    control = control or FitControl()
    family = as_family_spec(family)
    family.validate_support(data.y)
    if family.family == "binomial":
        _warn_if_every_cluster_separated(data)
    p, q = data.n_fixed, data.n_random
    if data.n_clusters <= q:
        raise ConfigError("need more clusters than random-effect dimensions")
    n_points = control.n_points
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    positions = cov.free_positions(q, structure)
    k = len(positions)
    diagonal = _theta_diagonal(q, structure)
    bounds = [(None, None)] * p + [(0.0, None) if t in diagonal
                                   else (None, None) for t in range(k)]

    beta0 = (_numbers(control.beta_start, "beta_start")
             if control.beta_start is not None else _glm_start(data, family))
    if beta0.size != p:
        raise ShapeError("beta_start has the wrong length")
    if control.theta_start is None:
        theta0 = _moment_start(beta0, data, family, structure)
    else:
        theta0 = _numbers(control.theta_start, "theta_start").copy()
        if theta0.size != k:
            raise ShapeError("theta_start has the wrong length")
        cov._nonnegative_factor(theta0, q, structure, "theta_start")

    # the last evaluation, where a restart begins, with its mode solve and
    # sweep (None when the solve failed) and, from a second-order sweep,
    # the objective's Hessian, or whether a second-order sweep of the same
    # solve may still supply it; and the lowest one, which stands when the
    # budget runs out
    last = {"x": None, "f": np.inf, "g": None, "h": None, "sweep": None,
            "resweep": False}
    best = {"x": None, "f": np.inf}
    # the last solve's modes, where the next one starts, and from a
    # second-order sweep their derivative in x, which moves that start
    # with the parameters
    warm: dict = {"u": None, "x": None, "du": None}
    n_eval = [0]
    # the mode solver's last failure, which a fit with no finite
    # evaluation reports
    mode_error = [None]
    # second-order sweeps, those of them at an evaluated point, and the
    # mode solver's iterations and step-halving trials, for the log
    tally = dict.fromkeys(("second_order", "resweeps", "mode_iterations",
                           "mode_halvings"), 0)

    def sweep(x: np.ndarray, solve: _ModeSolve, second: bool):
        """The exact sweep at x from its mode solve; a second-order one
        also returns the objective's Hessian (from the Jacobian, plus the
        log-determinant term on the Laplace rule) and the modes'
        derivative."""
        tally["second_order"] += second
        lam = cov.theta_to_lambda(x[p:], q, structure)
        out = _quadrature_sweep(x[:p], lam, data, family, solve.modes,
                                solve.cond_chol, rule, positions, exact=True,
                                second=second, state=solve.state)
        if not second:
            return out
        ell, scores, jacobian, motion = out
        hess = -0.5 * (jacobian + jacobian.T)
        if rule.points_per_dim == 1:
            hess -= _log_det_hessian(lam, data, family, solve.modes,
                                     solve.cond_chol, positions, solve.state,
                                     motion)
        return ell, scores, hess, motion[:, :, 0]

    def objective(x: np.ndarray, second: bool = False):
        if np.array_equal(x, last["x"]):
            if second and last["resweep"]:
                # a step reads the Hessian of a first-order evaluation: the
                # same solve swept again, which is no new evaluation
                _, _, hess, warm["du"] = sweep(x, last["sweep"][0], True)
                tally["resweeps"] += 1
                last.update(h=hess, resweep=False)
            f, grad, hess = last["f"], last["g"], last["h"]
            return (f, grad, hess) if second else (f, grad)
        if n_eval[0] >= control.max_fev:
            raise _BudgetSpent
        n_eval[0] += 1
        f, grad, hess = np.inf, np.zeros_like(x), None
        beta, theta = x[:p], x[p:]
        lam = cov.theta_to_lambda(theta, q, structure)
        swept = None
        start = warm["u"]
        if warm["du"] is not None:
            start = start + warm["du"] @ (x - warm["x"])
        try:
            solve = conditional_modes(beta, lam, data, family, start=start,
                                      record=True)
        except EstimationError as exc:
            mode_error[0] = exc
            warm.update(u=None, du=None)
        else:
            tally["mode_iterations"] += solve.iterations
            tally["mode_halvings"] += solve.halvings
            out = sweep(x, solve, second)
            warm.update(u=solve.modes, x=x.copy(),
                        du=out[3] if second else None)
            ell, gradient = out[0], out[1].sum(axis=0)
            swept = solve, ell, gradient
            total = float(np.sum(ell))
            if np.isfinite(total):
                f, grad = -total, -gradient
                if second:
                    hess = out[2]
        # a finite objective here comes from the sweep, not the bowl
        resweep = not second and np.isfinite(f)
        if np.isfinite(f):
            if f < best["f"]:
                best.update(x=x.copy(), f=f)
        elif best["x"] is not None:
            # L-BFGS-B takes an infinite value for convergence; a bowl
            # around the best point makes its line search step back instead
            gap = x - best["x"]
            scale = 1.0 + abs(best["f"])
            f, grad = best["f"] + scale * (gap @ gap), 2.0 * scale * gap
        last.update(x=x.copy(), f=f, g=grad, h=hess, sweep=swept,
                    resweep=resweep)
        return (f, grad, hess) if second else (f, grad)

    x_hat = np.concatenate([beta0, theta0])
    # a moment start whose Newton steps found no finite evaluation gets one
    # more try, from the ones diagonal
    fallback, fallbacks = None, 0
    if control.theta_start is None:
        ones = _ones_diagonal(q, structure)
        if not np.array_equal(ones, theta0):
            fallback = np.concatenate([beta0, ones])
    f_hat = np.inf
    success, message = False, "no evaluation budget"
    newton, newton_fev, lbfgsb_runs = "not run", 0, 0
    try:
        if not _on_boundary(theta0, q, structure):
            newton = "budget spent"
            try:
                x_hat, newton = _newton_phase(objective, x_hat,
                                              [p + t for t in diagonal])
                if (fallback is not None and best["x"] is None
                        and 0 < n_eval[0] < control.max_fev):
                    fallbacks = 1
                    x_hat, newton = _newton_phase(objective, fallback,
                                                  [p + t for t in diagonal])
            finally:
                newton_fev = n_eval[0]
            if newton != "converged":
                x_hat = _mirror_pinned_columns(objective, x_hat, p, q,
                                               structure)
        # where the Newton steps converged their last evaluation is the
        # fit: L-BFGS-B would re-read it and stop on the same test
        success = newton == "converged"
        for attempt in range(0 if success else control.restarts + 1):
            remaining = control.max_fev - n_eval[0]
            if remaining <= 0:
                break
            lbfgsb_runs += 1
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

    if best["x"] is None:
        # no point to finalize: a cold re-solve would fail as the
        # evaluations did
        err = EstimationError(
            f"no evaluation of the objective succeeded ({n_eval[0]} "
            "evaluated)")
        err.best = None
        raise err from mode_error[0]

    # the optimum is usually the last point evaluated; if that solve met
    # the tight tolerance, a warm re-solve from its modes would stop at
    # once and repeat its factors and sweep bit for bit
    swept = last["sweep"]
    reuse = (swept is not None and x_hat.tobytes() == last["x"].tobytes()
             and swept[0].iterations < _MODE_MAX_ITER)
    fitted = _finalize(x_hat[:p], x_hat[p:], structure, data, family, rule,
                       converged=success, n_fev=n_eval[0], start=warm["u"],
                       swept=swept if reuse else None)
    _log.debug("fit: %d evaluations, %d in the Newton phase (%s) after %d "
               "fallback starts; %d second-order sweeps, %d of them again at "
               "an evaluated point; %d mode-solver iterations, %d "
               "step-halving trials; %d L-BFGS-B runs", n_eval[0],
               newton_fev, newton, fallbacks, tally["second_order"],
               tally["resweeps"], tally["mode_iterations"],
               tally["mode_halvings"], lbfgsb_runs,
               extra={"newton": newton, "newton_fev": newton_fev,
                      "n_fev": n_eval[0], "lbfgsb_runs": lbfgsb_runs,
                      "fallbacks": fallbacks, **tally})
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
    the full post-estimation machinery.  This is the route to the
    marginal log-likelihood at given estimates: ``load_fitted(beta,
    theta, data, family, n_points, structure).loglik``, swept on the
    ``n_points`` rule on its first read; no post-estimation function
    reads it.  A beta or theta entry that is not a number is a
    ``ConfigError``; a theta entry that is not finite, or a negative
    diagonal entry, is a ``DomainError``, as for :func:`fit`'s
    ``theta_start``.
    """
    family = as_family_spec(family)
    family.validate_support(data.y)
    beta, theta = _numbers(beta, "beta"), _numbers(theta, "theta")
    q = data.n_random
    if beta.size != data.n_fixed:
        raise ConfigError(f"beta has length {beta.size}, expected {data.n_fixed}")
    cov._nonnegative_factor(theta, q, structure)
    rule = gh_rule(default_points(q) if n_points is None else n_points, q)
    return _finalize(beta, theta, structure, data, family, rule,
                     converged=True, n_fev=0)


def _numbers(values, name: str) -> np.ndarray:
    """``values`` as a flat float array, or a ``ConfigError`` that names
    the field when an entry is not a number."""
    try:
        return np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must hold only numbers") from None


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
        boundary=bool(_on_boundary(theta, q, structure)),
        grad_norm=float(np.linalg.norm(gradient)) if exact else None,
        n_fev=n_fev,
    )
    if ell is not None:
        # the frozen instance takes the value where the cached property
        # would store it
        object.__setattr__(fitted, "loglik", float(np.sum(ell)))
    return fitted
