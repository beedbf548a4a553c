"""Seeded data generators for mixed-model examples and checks.

Each generator returns the drawn dataset together with the generating
parameters so simulation studies can compare estimates against truth.
The module also holds what the nulls of :func:`~glmmkit.sctest` and the
Vuong tests share: the check on their seed and draw count, the chunk size
simulated draws are made in, the Monte-Carlo standard error of a
simulated p-value, and the exact tail of a weighted sum of chi-square
variables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import theta_length, theta_to_lambda
from .design import GlmmData
from .exceptions import ConfigError, EstimationError
from .families import family_spec

__all__ = [
    "SimulatedGlmm",
    "make_glmm_data",
    "make_rasch_data",
    "make_counts_data",
]

# Doubles per Monte-Carlo chunk: 2**16 of them (512 KB) keep a chunk of
# draws, and what is computed from it in place, inside a core's L2 cache.
# Chunks split only the draw axis, so the generator emits the same stream,
# bit for bit, whatever this size is.
_CHUNK_ELEMENTS = 2 ** 16


def _is_integer(value) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _check_monte_carlo(seed, n_sim, caller: str) -> tuple[int, int]:
    """Validate the seed and draw count of a simulated null.

    Returns both as Python ints.  Raises ConfigError when the seed is
    missing, not an integer or negative, or when ``n_sim`` is not a
    positive integer.
    """
    if seed is None:
        raise ConfigError(f"{caller} requires a seed for the p-value "
                          "simulation")
    if not _is_integer(seed) or seed < 0:
        raise ConfigError(f"{caller} seed must be a non-negative integer, "
                          f"got {seed!r}")
    if not _is_integer(n_sim) or n_sim < 1:
        raise ConfigError(f"{caller} n_sim must be a positive integer, "
                          f"got {n_sim!r}")
    return int(seed), int(n_sim)


def _p_value_se(p_value, n_sim):
    """Monte-Carlo standard error of a simulated p-value.

    At p = 0 or 1 the binomial formula reads 0, which claims an exact
    answer; report the simulation's resolution ``min(3 / n_sim, 0.5)``
    instead (3 / n_sim bounds a 95% interval for a zero count).
    """
    if p_value in (0.0, 1.0):
        return min(3.0 / n_sim, 0.5)
    return float(np.sqrt(p_value * (1.0 - p_value) / n_sim))


# Absolute error bound of _chisq_mixture_tail.  The integral it sums is
# accurate to about 1e-13 in practice; the bound leaves room for that.
_TAIL_EPS = 1e-9

# A mixture with no weights is a point mass at zero; statistics up to this
# size count as reaching it.
_POINT_MASS_TOL = 1e-10

# Successive trapezoid sums of the tail integral must agree this closely.
_TRAPEZOID_TOL = 1e-12


def _convex_root(slope, curvature, lo, hi):
    """Root of an increasing ``slope`` on (lo, hi), which it crosses once.

    Newton steps from the midpoint, kept inside a bracket that shrinks
    with every evaluation.  ``hi`` is finite; an infinite ``lo`` is
    replaced by doubling out from -1 until the slope turns negative.  The
    callers only need a point near the root (any point gives a valid
    bound or contour), so 40 iterations or a relative step of 1e-12 end
    the search.
    """
    if math.isinf(lo):
        lo = -1.0
        while slope(lo) > 0.0:
            lo *= 2.0
    t = 0.5 * (lo + hi)
    for _ in range(40):
        g = slope(t)
        if g > 0.0:
            hi = t
        else:
            lo = t
        new = t - g / curvature(t)
        if not lo < new < hi:
            new = 0.5 * (lo + hi)
        if abs(new - t) <= 1e-12 * abs(t):
            return new
        t = new
    return t


def _chisq_mixture_tail(weights, x) -> float:
    """P(sum_i weights[i] * Z_i**2 >= x) for independent standard normals.

    Exact to an absolute error of ``_TAIL_EPS`` for nonzero weights of
    either sign.  With no weights the sum is a point mass at zero, reached
    by any ``x <= _POINT_MASS_TOL``.

    The upper tail is Laplace's inversion integral
    ``(1 / 2 pi i) int M(s) exp(-s x) ds / s`` of the moment generating
    function ``M(s) = prod_i (1 - 2 s w_i)^(-1/2)``, taken along the
    hyperbola ``s = c + a (cosh v - 1) + i a sinh v`` instead of the
    vertical line through ``c``: the real saddle point ``c`` of the
    integrand's log-modulus, on the side of the pole at 0 where the
    Chernoff point lies, and ``a`` the integrand's width there.  The
    hyperbola meets the real axis only at ``c``, so it crosses neither
    the branch cuts of ``M`` nor the pole (left of 0, the integral is the
    tail minus one).  Along it the integrand falls at least like
    ``exp(-k v / 2)`` and, for ``x > 0``, like ``exp(-x a cosh v)``, so the
    trapezoid rule converges geometrically in the step, whatever the
    weights (Imhof's real-line integrand falls only like ``u^(-1-k/2)``,
    which for one or two weights needs millions of terms).  The sum
    stops where a bound on the integrand's modulus, ``(sqrt 2 / pi)
    coth v prod_i (2 |w_i| a sinh v)^(-1/2) exp(-x Re s)``, leaves less
    than 1e-15 behind, and the step is halved until two sums agree to
    ``_TRAPEZOID_TOL``.  When a Chernoff bound on either tail is already
    below ``_TAIL_EPS``, that tail is returned as 0 (or 1) without the
    integral.  A negative ``x`` is the complement of the reflected
    mixture.  The result is clipped to [0, 1].
    """
    lam = np.asarray(weights, dtype=float)
    x = float(x)
    if lam.size == 0:
        return 1.0 if x <= _POINT_MASS_TOL else 0.0
    if x < 0.0:
        return min(1.0, max(0.0, 1.0 - _chisq_mixture_tail(-lam, -x)))
    l_max, l_min = float(lam.max()), float(lam.min())
    if l_max <= 0.0:
        return 0.0                      # the sum is negative almost surely
    t_hi = 0.5 / l_max
    t_lo = 0.5 / l_min if l_min < 0.0 else -math.inf
    weights_list = lam.tolist()

    def cgf_slope(t):
        return sum(w / (1.0 - 2.0 * t * w) for w in weights_list)

    def cgf_curvature(t):
        return sum(2.0 * (w / (1.0 - 2.0 * t * w)) ** 2
                   for w in weights_list)

    def cgf(t):
        return -0.5 * sum(math.log1p(-2.0 * t * w) for w in weights_list)

    # Chernoff: P(Q >= x) <= exp(K(t) - t x) for t > 0, and
    # P(Q <= x) <= exp(K(t) - t x) for t < 0; K'(t) = x gives the best t.
    upper = x > cgf_slope(0.0)
    if not upper and math.isinf(t_lo) and x == 0.0:
        return 1.0                      # positive weights only: Q > 0
    t_chernoff = _convex_root(lambda t: cgf_slope(t) - x, cgf_curvature,
                              0.0 if upper else t_lo,
                              t_hi if upper else 0.0)
    if cgf(t_chernoff) - t_chernoff * x <= math.log(_TAIL_EPS):
        return 0.0 if upper else 1.0

    # the saddle point of K(s) - s x - log|s| on the Chernoff side
    c = _convex_root(lambda t: cgf_slope(t) - x - 1.0 / t,
                     lambda t: cgf_curvature(t) + 1.0 / (t * t),
                     0.0 if upper else t_lo, t_hi if upper else 0.0)
    a = 1.0 / math.sqrt(cgf_curvature(c) + 1.0 / (c * c))
    offset = 0.0 if upper else 1.0      # residue of the pole at 0

    def integrand(v):
        sinh, cosh = np.sinh(v), np.cosh(v)
        s = (c + a * (cosh - 1.0)) + 1j * (a * sinh)
        log_m = -0.5 * np.log(1.0 - 2.0 * np.multiply.outer(s, lam)).sum(
            axis=1)
        # (1 / 2 pi i) * ds / s, with ds = a (sinh v + i cosh v) dv
        return (np.exp(log_m - s * x) * (a * (cosh - 1j * sinh)) / s).real

    # truncation: the bound falls at rate >= k/2 beyond v = 1, so the
    # integral and the trapezoid sum past v hold at most bound * (2/k + h)
    h = 0.25
    k = lam.size
    log_scale = -0.5 * float(np.sum(np.log(2.0 * a * np.abs(lam))))
    v_end = 8.0
    while True:
        v = np.arange(h, v_end, h)
        sinh = np.sinh(v)
        bound = (math.sqrt(2.0) / math.pi) * np.cosh(v) / sinh * np.exp(
            log_scale - 0.5 * k * np.log(sinh)
            - x * (c + a * (np.cosh(v) - 1.0)))
        small = np.flatnonzero((v >= 1.0) & (bound * (2.0 / k + h) < 1e-15))
        if small.size:
            v_end = float(v[small[0]])
            break
        v_end *= 2.0
    # f is even in v, so the integral over the real line is twice (0, inf)
    values = integrand(np.arange(0.0, v_end + 0.5 * h, h))
    total = values.sum() - 0.5 * values[0]
    previous = h / math.pi * total
    for _ in range(12):
        total += integrand(np.arange(0.5 * h, v_end, h)).sum()
        h *= 0.5
        current = h / math.pi * total
        if abs(current - previous) <= _TRAPEZOID_TOL:
            return min(1.0, max(0.0, current + offset))
        previous = current
    raise EstimationError(
        f"the chi-square mixture tail at {x!r} did not converge for "
        f"weights {lam.tolist()}")


@dataclass(frozen=True)
class SimulatedGlmm:
    """A simulated dataset plus the parameters that generated it."""

    data: GlmmData
    beta: np.ndarray
    theta: np.ndarray
    u: np.ndarray        # standardized random effects, one row per cluster


def _draw_response(rng, family, link, eta):
    spec = family_spec(family, link)
    mu = spec.inverse_link(eta)
    if spec.family == "binomial":
        return (rng.random(eta.shape[0]) < mu).astype(float)
    return rng.poisson(mu).astype(float)


def make_glmm_data(family: str = "binomial", link: str | None = None,
                   n_clusters: int = 50, cluster_size: int = 8,
                   beta=(0.5, -0.8), random: str = "intercept",
                   theta=None, seed: int = 0) -> SimulatedGlmm:
    """Simulate a clustered GLMM dataset with one grouping factor.

    Parameters
    ----------
    family : {"binomial", "poisson"}
    link : str, optional
        Defaults to the family's canonical link.
    n_clusters, cluster_size : int
    beta : sequence
        Fixed effects; the first is the intercept, the rest multiply
        independent standard normal covariates.
    random : {"intercept", "slope"}
        "slope" uses a random intercept plus a random coefficient on the
        first covariate (q = 2).
    theta : sequence, optional
        Lower-triangle covariance factor values.  Defaults to (0.7,) for
        an intercept and (0.7, 0.2, 0.4) for a slope model.
    seed : int

    Returns
    -------
    SimulatedGlmm
    """
    if random not in ("intercept", "slope"):
        raise ConfigError(f"unknown random-effect layout {random!r}")
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] < 2 and random == "slope":
        raise ConfigError("a random slope needs at least one covariate")
    n_obs = n_clusters * cluster_size
    covariates = rng.standard_normal((n_obs, beta.shape[0] - 1))
    x = np.column_stack([np.ones(n_obs), covariates])
    if random == "intercept":
        z = np.ones((n_obs, 1))
        z_names = ["(Intercept)"]
        theta = np.asarray((0.7,) if theta is None else theta, dtype=float)
    else:
        z = np.column_stack([np.ones(n_obs), covariates[:, 0]])
        z_names = ["(Intercept)", "x1"]
        theta = np.asarray((0.7, 0.2, 0.4) if theta is None else theta,
                           dtype=float)
    q = z.shape[1]
    if theta.shape[0] != theta_length(q):
        raise ConfigError(
            f"theta has {theta.shape[0]} entries; expected {theta_length(q)}"
        )
    lam = theta_to_lambda(theta, q)
    cluster = np.repeat(np.arange(n_clusters), cluster_size)
    u = rng.standard_normal((n_clusters, q))
    eta = x @ beta + np.einsum("nj,nj->n", z, (u @ lam.T)[cluster])
    y = _draw_response(rng, family, link, eta)
    x_names = ["(Intercept)"] + [f"x{j}" for j in
                                 range(1, beta.shape[0])]
    data = GlmmData.from_arrays(y, x, z, cluster, x_names=x_names,
                                z_names=z_names)
    return SimulatedGlmm(data=data, beta=beta, theta=theta, u=u)


def make_rasch_data(n_subjects: int = 1000,
                    item_effects=(-1.0, -0.5, 0.0, 0.5, 1.0),
                    sd: float = 1.0, seed: int = 0) -> SimulatedGlmm:
    """Simulate binary item responses from a Rasch model.

    Every subject answers every item; the design matrix holds one dummy
    column per item (no intercept) and the subject ability is a random
    intercept with standard deviation ``sd``.
    """
    rng = np.random.default_rng(seed)
    item_effects = np.asarray(item_effects, dtype=float)
    n_items = item_effects.shape[0]
    n_obs = n_subjects * n_items
    x = np.tile(np.eye(n_items), (n_subjects, 1))
    z = np.ones((n_obs, 1))
    cluster = np.repeat(np.arange(n_subjects), n_items)
    u = rng.standard_normal((n_subjects, 1))
    eta = x @ item_effects + sd * u[cluster, 0]
    y = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    data = GlmmData.from_arrays(
        y, x, z, cluster,
        x_names=[f"item{j + 1}" for j in range(n_items)],
        z_names=["(Intercept)"],
    )
    return SimulatedGlmm(data=data, beta=item_effects,
                         theta=np.array([sd]), u=u)


def make_counts_data(n_clusters: int = 59, n_periods: int = 4,
                     beta=(2.2, -0.25), theta=(0.45, 0.05, 0.18),
                     seed: int = 0) -> SimulatedGlmm:
    """Simulate longitudinal count data with a random slope on time.

    Each cluster is observed over ``n_periods`` equally spaced centered
    time points; the linear predictor carries a random intercept and a
    random time slope.  The defaults mimic a seizure-count trial: about
    nine events per period, a moderate subject intercept spread, and a
    small correlated slope spread.
    """
    rng = np.random.default_rng(seed)
    beta = np.asarray(beta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != theta_length(2):
        raise ConfigError("theta must parameterize a 2x2 factor")
    time = np.linspace(-0.5, 0.5, n_periods)
    n_obs = n_clusters * n_periods
    time_col = np.tile(time, n_clusters)
    x = np.column_stack([np.ones(n_obs), time_col])
    z = x.copy()
    cluster = np.repeat(np.arange(n_clusters), n_periods)
    lam = theta_to_lambda(theta, 2)
    u = rng.standard_normal((n_clusters, 2))
    eta = x @ beta + np.einsum("nj,nj->n", z, (u @ lam.T)[cluster])
    y = rng.poisson(np.exp(eta)).astype(float)
    data = GlmmData.from_arrays(
        y, x, z, cluster,
        x_names=["(Intercept)", "time"],
        z_names=["(Intercept)", "time"],
    )
    return SimulatedGlmm(data=data, beta=beta, theta=theta, u=u)
