"""Score-based parameter-instability tests along an ordering variable.

The cumulative score process orders cluster-level scores by an auxiliary
variable, accumulates them, and decorrelates with the inverse square root
of the score outer-product matrix.  Under a stable model the process
behaves like a Brownian bridge in each coordinate, sampled at the grid of
the ordering.  The double-max (DM) null on that grid is computed exactly,
as the chance that a discrete bridge stays inside a band; the
Cramer-von Mises and max-LM functionals are compared against simulated
bridge paths on the same grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import kolmogi, kolmogorov

from .derivatives import ScoreMatrix, estfun
from .estimation import FittedGlmm
from .exceptions import (ConfigError, DegenerateError, EstimationError,
                         SingularityError)
from .simulate import _CHUNK_ELEMENTS, _check_monte_carlo, _p_value_se

__all__ = [
    "FluctuationPath",
    "ScoreTestResult",
    "cumulative_score_process",
    "sctest",
]

_FUNCTIONALS = {
    "dm": "DM",
    "cvm": "CvM",
    "maxlm": "maxLM",
    "maxlmo": "maxLM-ordinal",
    "maxlm-ordinal": "maxLM-ordinal",
}

# Rows of the simulated null, one per simulated functional.
_NULL_ROWS = ("CvM", "maxLM", "maxLM-ordinal")

# Nulls kept by _bridge_null.  Calls that share a grid, dimension, cluster
# count, n_sim, seed and trimming window (the functionals of one test, or
# parm subsets of one size) reuse an entry of 3 * n_sim floats.
_NULL_CACHE_SIZE = 8

# Bound on the error of one coordinate's stay probability in the exact DM
# null, so the DM p-value is within dim * _DM_TOL.  The node rule below
# keeps it near 1e-12: raising the node count up to fourfold moved the
# probability by at most 2.1e-12 on a 5,000-point grid, for bands from
# 0.9 to 3.
_DM_TOL = 1e-10

# Gauss-Legendre nodes per band half-width in units of the smallest step's
# standard deviation, plus a floor; the count is rounded up to a multiple
# of 8 so nearby bands share one cached rule.
_NODES_PER_SD = 2.2
_NODES_FLOOR = 12

# A step applied more than this many times the node count is
# eigendecomposed; rarer ones are applied as matrix-vector products.
_EIGH_AFTER = 4

# The DM critical value solves P(stay)^dim = 0.95 to this tolerance in the
# band; Siegmund's correction 0.5826 sqrt(dt) moves the continuous
# Kolmogorov quantile toward the discrete grid's for the first guess.
_CRITICAL_TOL = 1e-11
_SIEGMUND = 0.5826


@dataclass(frozen=True)
class FluctuationPath:
    """Decorrelated cumulative score path evaluated at ordering boundaries.

    Attributes
    ----------
    t : ndarray, shape (m+1,)
        Grid fractions, starting at exactly 0.0 and ending at 1.0.  With
        tied ordering values the path is evaluated only where the
        ordering changes, so m is the number of distinct values.
    values : ndarray, shape (m+1, p)
        Path coordinates; the first row is exactly zero.
    order_values : ndarray, shape (m,)
        Distinct ordering values, aligned with ``t[1:]``.
    counts : ndarray, shape (m,)
        Number of clusters in each tie group.
    """

    t: np.ndarray
    values: np.ndarray
    order_values: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class ScoreTestResult:
    """Outcome of a parameter-instability score test."""

    statistic: float
    p_value: float
    # Monte-Carlo standard error of a simulated p_value; for DM, whose
    # p_value is exact, its numerical error bound
    p_value_se: float
    functional: str
    path: FluctuationPath
    parm: tuple[int, ...]
    labels: tuple[str, ...]
    # 5% critical value of the functional: exact on the grid for DM,
    # simulated for the others
    critical_value: float
    crossings: np.ndarray    # t at which the pointwise statistic exceeds it
    n_sim: int
    seed: int


def _b_root_inverse(b_matrix: np.ndarray) -> np.ndarray:
    """Inverse symmetric square root of a PD matrix via eigendecomposition."""
    b_matrix = np.asarray(b_matrix, dtype=float)
    if b_matrix.ndim != 2 or b_matrix.shape[0] != b_matrix.shape[1]:
        raise ConfigError("decorrelation matrix must be square")
    sym = 0.5 * (b_matrix + b_matrix.T)
    eigval, eigvec = np.linalg.eigh(sym)
    if eigval[0] <= eigval[-1] * 1e-12 or eigval[-1] <= 0.0:
        raise SingularityError(
            f"score outer-product matrix is not positive definite; "
            f"eigenvalues {eigval}"
        )
    return (eigvec / np.sqrt(eigval)) @ eigvec.T


def _ordering_groups(order_by: np.ndarray):
    """Stable sort order plus tie-group boundary indices."""
    order_by = np.asarray(order_by)
    if order_by.ndim != 1:
        raise ConfigError("ordering variable must be one-dimensional")
    if order_by.dtype.kind == "f" and np.isnan(order_by).any():
        raise ConfigError("ordering variable contains NaN")
    perm = np.argsort(order_by, kind="stable")
    ordered = order_by[perm]
    if ordered[0] == ordered[-1]:
        raise DegenerateError(
            "ordering variable is constant across clusters; the "
            "fluctuation process is degenerate"
        )
    change = np.nonzero(ordered[1:] != ordered[:-1])[0]
    ends = np.append(change, order_by.shape[0] - 1)   # last index per group
    return perm, ordered, ends


def cumulative_score_process(scores, ordering, b_matrix=None) -> FluctuationPath:
    """Decorrelated cumulative sums of cluster scores along an ordering.

    Parameters
    ----------
    scores : ScoreMatrix or ndarray, shape (I, p)
        Cluster-level scores.  Columns are centered before accumulation so
        the path ends at the zero vector exactly rather than at the
        optimizer's residual gradient.
    ordering : array_like, shape (I,)
        One value per cluster.  Clusters are sorted by it (stable), and
        tied clusters are grouped: the path is evaluated only at group
        boundaries so the result cannot depend on within-tie order.
    b_matrix : ndarray, optional
        Matrix whose inverse square root decorrelates the sums, on the
        scale of the score outer-product sum ``S'S``.  Default is ``S'S``
        of the centered scores, which equals I times the score covariance,
        so the path is ``(I B_cov)^{-1/2}`` times the partial sums.

    Returns
    -------
    FluctuationPath
        Path including the exact-zero starting point at t=0.

    Raises
    ------
    SingularityError
        If ``b_matrix`` is not positive definite.
    DegenerateError
        If the ordering variable is constant.
    """
    values = scores.values if isinstance(scores, ScoreMatrix) else scores
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ConfigError("scores must be a 2-d array of cluster rows")
    n_clusters = values.shape[0]
    ordering = np.asarray(ordering)
    if ordering.shape[0] != n_clusters:
        raise ConfigError(
            f"ordering has {ordering.shape[0]} entries for "
            f"{n_clusters} clusters"
        )
    centered = values - values.mean(axis=0)
    if b_matrix is None:
        b_matrix = centered.T @ centered
    root_inv = _b_root_inverse(b_matrix)
    perm, ordered, ends = _ordering_groups(ordering)
    partial = np.cumsum(centered[perm] @ root_inv, axis=0)
    t = np.concatenate(([0.0], (ends + 1.0) / n_clusters))
    path = np.vstack([np.zeros((1, values.shape[1])), partial[ends]])
    counts = np.diff(np.concatenate(([0], ends + 1)))
    return FluctuationPath(
        t=t, values=path, order_values=ordered[ends], counts=counts
    )


def _resolve_parm(parm, labels):
    if parm is None:
        return tuple(range(len(labels)))
    resolved = []
    for item in np.atleast_1d(parm):
        if isinstance(item, str) or (hasattr(item, "dtype")
                                     and item.dtype.kind in "US"):
            name = str(item)
            if name not in labels:
                raise ConfigError(f"unknown parameter label {name!r}")
            resolved.append(labels.index(name))
        else:
            idx = int(item)
            if not 0 <= idx < len(labels):
                raise ConfigError(
                    f"parameter index {idx} out of range [0, {len(labels)})"
                )
            resolved.append(idx)
    if not resolved:
        raise ConfigError("parm must select at least one column")
    return tuple(dict.fromkeys(resolved))


def _lm_window(t_interior, trim):
    """Slice of the grid points below t=1 that lie in the maxLM trimming
    window; the grid is increasing, so they are contiguous."""
    lo = int(np.searchsorted(t_interior, trim[0], side="left"))
    hi = int(np.searchsorted(t_interior, trim[1], side="right"))
    return slice(lo, max(lo, min(hi, t_interior.shape[0] - 1)))


def _statistics(block, scale, window, n_clusters):
    """CvM, maxLM and maxLM-ordinal of each path in a block.

    ``block`` has shape (n, m, d), one path per row over the interior grid
    points, and is overwritten.  ``scale`` is t(1 - t) at the first m - 1
    points, where t < 1.  Returns a (3, n) array in ``_NULL_ROWS`` order;
    the maxLM row is NaN when ``window`` is empty.
    """
    n = block.shape[0]
    out = np.empty((3, n))
    sq = np.square(block, out=block).sum(axis=-1)
    np.divide(sq.sum(axis=-1), n_clusters, out=out[0])
    lm = np.divide(sq[:, :-1], scale, out=sq[:, :-1])
    if window.start < window.stop:
        lm[:, window].max(axis=1, out=out[1])
    else:
        out[1] = np.nan
    lm.max(axis=1, out=out[2])
    return out


@functools.lru_cache(maxsize=16)
def _legendre_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only.

    Nodes come from the Golub-Welsch eigenvalues; one Newton step in
    extended precision then corrects each node and gives its weight from
    P_n'.  NumPy's float64 weights carry errors near 1e-13 that the DM
    recursion multiplies by the number of grid steps.
    """
    k = np.arange(1.0, n)
    half = eigvalsh_tridiagonal(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0))
    x = half[n // 2:].astype(np.longdouble)        # the nonnegative half
    p_prev, p = np.ones_like(x), x.copy()
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    dp = n * (p_prev - x * p) / (1 - x * x)
    step = p / dp
    dp -= step * (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    x -= step
    weight = 2 / ((1 - x * x) * dp * dp)
    x, weight = x.astype(float), weight.astype(float)
    mirror = slice(None, 0, -1) if n % 2 else slice(None, None, -1)
    nodes = np.concatenate((-x[mirror], x))     # the middle node once
    weights = np.concatenate((weight[mirror], weight))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _node_count(band, steps):
    """Nodes the DM recursion uses on [0, band] for these steps."""
    count = _NODES_PER_SD * band / math.sqrt(steps.min()) + _NODES_FLOOR
    return 8 * math.ceil(count / 8)


def _folded_kernel(y, root_w, step):
    """The transition kernel of one bridge step on the nodes ``y`` of
    [0, band], folded onto the half band and symmetrized with ``root_w``:
    root_w_i (phi(y_i - y_j) + phi(y_i + y_j)) root_w_j, phi the N(0, step)
    density.  Built in place, two node-by-node arrays at a time."""
    kernel = np.subtract.outer(y, y)
    np.square(kernel, out=kernel)
    np.exp(kernel * (-0.5 / step), out=kernel)
    folded = np.add.outer(y, y)
    np.square(folded, out=folded)
    np.exp(folded * (-0.5 / step), out=folded)
    kernel += folded
    kernel *= root_w[:, None] / math.sqrt(2.0 * math.pi * step)
    kernel *= root_w
    return kernel


def _stay_probability(band, steps, nodes):
    """P(|B(t_j)| <= band at every interior grid point) for a Brownian
    bridge on [0, 1] whose grid has these ``steps`` (m of them, summing to
    one), using at least ``nodes`` quadrature nodes.

    The bridge's density at the interior points, divided by phi_1(0), is
    a product of Gaussian transition kernels, so the probability is
    ``a' K_2 ... K_{m-1} b / phi_1(0)`` with ``a`` and ``b`` the densities
    of the first and last steps and K_j the kernel of step j killed
    outside the band.  Everything is even in the path, so the recursion
    runs on [0, band] with the folded kernel phi(y - z) + phi(y + z), on
    Gauss-Legendre nodes, symmetrized with the square roots of the
    weights.  A step that recurs more than ``_EIGH_AFTER`` times the node
    count is decomposed once, and each run of it becomes
    V diag(lambda^r) V'; rarer steps are applied one product at a time,
    which is cheaper than the decomposition and exact to rounding.  A top
    eigenvalue above 1 + 1e-12 means too few nodes, and the count doubles.
    """
    inner = steps[1:-1]
    starts = np.flatnonzero(np.diff(inner, prepend=np.nan))
    lengths = np.diff(np.append(starts, inner.size))
    run_steps = inner[starts]
    distinct, where = np.unique(run_steps, return_inverse=True)
    uses = np.bincount(where, weights=lengths, minlength=distinct.size)
    while True:
        z, w = _legendre_rule(nodes)
        y = 0.5 * band * (z + 1.0)
        root_w = np.sqrt(0.5 * band * w)
        kernels, spectra = {}, {}
        for step, count in zip(distinct, uses):
            kernel = _folded_kernel(y, root_w, step)
            if count <= _EIGH_AFTER * nodes:
                kernels[step] = kernel
                continue
            spectra[step] = np.linalg.eigh(kernel)
            del kernel
            if spectra[step][0][-1] > 1.0 + 1e-12:
                break
        else:
            break
        nodes *= 2

    def endpoint(step):
        return root_w * np.exp(-0.5 * y * y / step) / math.sqrt(
            2.0 * math.pi * step)

    v = endpoint(steps[-1])
    for step, run in zip(run_steps[::-1], lengths[::-1]):
        if step in spectra:
            lam, vec = spectra[step]
            v = vec @ (lam ** int(run) * (v @ vec))
        else:
            for _ in range(run):
                v = kernels[step] @ v
    # the factor 2 unfolds [0, band] to [-band, band]
    return 2.0 * math.sqrt(2.0 * math.pi) * float(endpoint(steps[0]) @ v)


def _dm_p_value(statistic, steps, dim):
    """Exact P(DM >= statistic) on the grid of ``steps``: the coordinates
    are independent bridges, so p = 1 - P(stay)^dim."""
    if statistic <= 0.0:
        return 1.0
    # the continuous bridge's maximum dominates the grid's
    if kolmogorov(statistic) <= _DM_TOL:
        return 0.0
    stay = _stay_probability(statistic, steps, _node_count(statistic, steps))
    if stay <= 0.0:
        return 1.0
    return min(1.0, max(0.0, -math.expm1(dim * math.log(stay))))


def _dm_critical_value(steps, dim, level=0.95):
    """The band c with P(stay inside c)^dim = level, by secant steps on
    log P(stay) from the Siegmund-corrected Kolmogorov quantile.

    The steps stop once log P(stay) is within _DM_TOL / (10 dim) of its
    target, so P(stay)^dim is within _DM_TOL / 10 of ``level``, or once
    the band moves by less than _CRITICAL_TOL.
    """
    log_target = math.log(level) / dim
    guess = float(kolmogi(-math.expm1(log_target))) - _SIEGMUND * math.sqrt(
        float(steps.mean()))

    def gap(band):
        stay = _stay_probability(band, steps, _node_count(band, steps))
        return math.log(stay) - log_target

    c0, c1 = guess, 1.001 * guess
    f0, f1 = gap(c0), gap(c1)
    for _ in range(30):
        if (abs(f1) <= _DM_TOL / (10 * dim) or abs(c1 - c0) <= _CRITICAL_TOL
                or f1 == f0):
            return c1
        step = f1 * (c1 - c0) / (f1 - f0)
        c0, f0 = c1, f1
        c1 = min(1.5 * c1, max(0.5 * c1, c1 - step))
        f1 = gap(c1)
    raise EstimationError("the DM critical value did not converge")


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _bridge_null(grid, dim, n_clusters, n_sim, seed, trim):
    """The simulated functionals of ``n_sim`` Brownian bridges on one grid.

    ``grid`` is the interior time grid as the bytes of a float64 array.
    One pass draws the bridges chunk by chunk, each chunk small enough to
    stay in cache, and takes all three statistics from it.  Returns a
    read-only (3, n_sim) array in ``_NULL_ROWS`` order.
    """
    t_interior = np.frombuffer(grid)
    m = t_interior.shape[0]
    sqrt_dt = np.sqrt(np.diff(np.concatenate(([0.0], t_interior))))[:, None]
    scale = t_interior[:-1] * (1.0 - t_interior[:-1])
    window = _lm_window(t_interior, trim)
    rows = min(n_sim, max(1, _CHUNK_ELEMENTS // (m * dim)))
    draws = np.empty((rows, m, dim))
    pin = np.empty_like(draws)
    null = np.empty((3, n_sim))
    rng = np.random.default_rng(seed)
    for start in range(0, n_sim, rows):
        size = min(rows, n_sim - start)
        walk, shift = draws[:size], pin[:size]
        rng.standard_normal(out=walk)
        walk *= sqrt_dt
        np.cumsum(walk, axis=1, out=walk)
        np.multiply(t_interior[:, None], walk[:, -1:, :], out=shift)
        walk -= shift
        null[:, start:start + size] = _statistics(walk, scale, window,
                                                  n_clusters)
    null.flags.writeable = False
    return null


def sctest(fit: FittedGlmm, order_by, parm=None, functional: str = "DM",
           n_points: int | None = None, seed: int | None = None,
           n_sim: int = 50000, trim: tuple[float, float] = (0.1, 0.9),
           parameterization: str = "var", scores=None) -> ScoreTestResult:
    """Test parameter stability along an auxiliary ordering variable.

    Parameters
    ----------
    fit : FittedGlmm
    order_by : array_like, shape (I,)
        One value per cluster; continuous for DM/CvM/maxLM, ordinal for
        maxLM-ordinal (evaluated at the cutpoints between distinct
        values).
    parm : sequence of int or str, optional
        Columns of the score matrix to test (indices or labels).  Default
        all columns.  The path is decorrelated using the full matrix and
        then restricted, so a subset's DM statistic never exceeds a
        superset's.
    functional : {"DM", "CvM", "maxLM", "maxLMo"}
        Case-insensitive; "maxlm-ordinal" is accepted for "maxLMo".
    n_points : int, optional
        Quadrature points for the scores (default 5).
    seed : int
        Required, a non-negative integer; drives the Brownian-bridge null
        simulation of CvM, maxLM and maxLM-ordinal.  DM draws nothing.
    n_sim : int
        Number of simulated bridge paths, at least 1 (unused by DM).
    trim : (float, float)
        maxLM trimming window on the time axis.
    parameterization : {"var", "theta", "sd"}
    scores : ScoreMatrix, optional
        Precomputed scores, bypassing :func:`estfun`.

    Returns
    -------
    ScoreTestResult
        Statistic, p-value and ``p_value_se``, the path for plotting, and
        the grid locations where the pointwise statistic exceeds the 5%
        critical value (empty for CvM, which has no pointwise form).  The
        DM p-value and critical value are exact on the test's grid, ties
        included, and ``p_value_se`` is their error bound ``dim * 1e-10``.
        The other functionals' are simulated, with the Monte-Carlo
        standard error ``sqrt(p (1 - p) / n_sim)`` (``min(3 / n_sim,
        0.5)`` when no or every simulated statistic reaches the observed
        one, so the formula would read 0).

    Notes
    -----
    The DM coordinates are independent bridges under the null, so
    ``p = 1 - P(stay)^dim`` with P(stay) the chance that one bridge stays
    within the statistic at every interior grid point, computed by a
    transfer-operator recursion (see ``_stay_probability``).

    One simulation yields the null of the three simulated functionals,
    and the last few nulls are kept in memory.  Calls on the same grid
    with the same number of tested columns, cluster count, ``n_sim``,
    ``seed`` and ``trim`` share it: another functional, or another
    ``parm`` subset of the same size, costs no new draws.  A shared null is bit-identical to
    a fresh simulation with the same settings.
    """
    try:
        name = _FUNCTIONALS[str(functional).lower()]
    except KeyError:
        raise ConfigError(
            f"unknown functional {functional!r}; expected one of "
            "DM, CvM, maxLM, maxLMo"
        ) from None
    seed, n_sim = _check_monte_carlo(seed, n_sim, "sctest")
    if not (0.0 <= trim[0] < trim[1] <= 1.0):
        raise ConfigError(f"invalid trimming window {trim}")
    if scores is None:
        scores = estfun(fit, parameterization=parameterization,
                        n_points=n_points)
    if isinstance(scores, ScoreMatrix):
        values, all_labels = scores.values, list(scores.labels)
    else:
        values = np.asarray(scores, dtype=float)
        if values.ndim != 2:
            raise ConfigError("scores must be a 2-d array of cluster rows")
        all_labels = list(fit.parameter_labels(parameterization))
        if values.shape[1] != len(all_labels):
            all_labels = [f"score[{j}]" for j in range(values.shape[1])]
    parm_idx = _resolve_parm(parm, all_labels)
    labels = tuple(all_labels[j] for j in parm_idx)
    dim = len(parm_idx)

    n_clusters = values.shape[0]
    if np.asarray(order_by).shape[0] != n_clusters:
        raise ConfigError(
            f"order_by has {np.asarray(order_by).shape[0]} entries for "
            f"{n_clusters} clusters"
        )
    if not np.any(values):
        # Degenerate but well-defined: the path never leaves the origin.
        _, ordered, ends = _ordering_groups(order_by)
        t = np.concatenate(([0.0], (ends + 1.0) / n_clusters))
        path = FluctuationPath(
            t=t,
            values=np.zeros((t.shape[0], dim)),
            order_values=ordered[ends],
            counts=np.diff(np.concatenate(([0], ends + 1))),
        )
    else:
        full = cumulative_score_process(values, order_by)
        path = FluctuationPath(
            t=full.t,
            values=full.values[:, list(parm_idx)],
            order_values=full.order_values,
            counts=full.counts,
        )

    t_interior = path.t[1:]
    window = _lm_window(t_interior, trim)
    if name == "maxLM" and window.start == window.stop:
        raise DegenerateError(
            f"no ordering points fall inside the maxLM trimming "
            f"window [{trim[0]}, {trim[1]}]"
        )
    observed = path.values[1:]
    if name == "DM":
        pointwise = np.abs(observed).max(axis=1)
        statistic = float(pointwise.max())
        steps = path.counts / n_clusters
        p_value = _dm_p_value(statistic, steps, dim)
        p_value_se = dim * _DM_TOL
        critical = _dm_critical_value(steps, dim)
        crossings = t_interior[pointwise > critical]
    else:
        scale = t_interior[:-1] * (1.0 - t_interior[:-1])
        row = _NULL_ROWS.index(name)
        statistic = float(_statistics(observed[None].copy(), scale, window,
                                      n_clusters)[row, 0])
        sim = _bridge_null(t_interior.tobytes(), dim, n_clusters, n_sim,
                           seed, (float(trim[0]), float(trim[1])))[row]
        p_value = float(np.mean(sim >= statistic))
        p_value_se = _p_value_se(p_value, n_sim)
        critical = float(np.quantile(sim, 0.95))
        if name == "CvM":
            crossings = np.empty(0)
        else:
            # the pointwise LM statistic, only where the functional looks
            cols = window if name == "maxLM" else slice(0, scale.shape[0])
            lm = np.square(observed[cols]).sum(axis=1) / scale[cols]
            crossings = t_interior[cols][lm > critical]
    return ScoreTestResult(
        statistic=statistic,
        p_value=p_value,
        p_value_se=p_value_se,
        functional=name,
        path=path,
        parm=parm_idx,
        labels=labels,
        critical_value=critical,
        crossings=crossings,
        n_sim=n_sim,
        seed=seed,
    )
