"""Score-based parameter-instability tests along an ordering variable.

The cumulative score process orders cluster-level scores by an auxiliary
variable, accumulates them, and decorrelates with the inverse square root
of the score outer-product matrix.  Under a stable model the process
behaves like a Brownian bridge in each coordinate, so functionals of the
path (double-max, Cramer-von Mises, max-LM) can be compared against
simulated bridge paths on the same time grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .derivatives import ScoreMatrix, estfun
from .estimation import FittedGlmm
from .exceptions import ConfigError, DegenerateError, SingularityError
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

# Rows of the simulated null, one per functional.
_NULL_ROWS = ("DM", "CvM", "maxLM", "maxLM-ordinal")

# Nulls kept by _bridge_null.  Calls that share a grid, dimension, cluster
# count, n_sim, seed and trimming window (the functionals of one test, or
# parm subsets of one size) reuse an entry of 4 * n_sim floats.
_NULL_CACHE_SIZE = 8


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
    p_value_se: float        # Monte-Carlo standard error of p_value
    functional: str
    path: FluctuationPath
    parm: tuple[int, ...]
    labels: tuple[str, ...]
    critical_value: float    # simulated 5% critical value of the functional
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
    """DM, CvM, maxLM and maxLM-ordinal of each path in a block.

    ``block`` has shape (n, m, d), one path per row over the interior grid
    points, and is overwritten.  ``scale`` is t(1 - t) at the first m - 1
    points, where t < 1.  Returns a (4, n) array in ``_NULL_ROWS`` order;
    the maxLM row is NaN when ``window`` is empty.
    """
    n = block.shape[0]
    flat = block.reshape(n, -1)
    out = np.empty((4, n))
    np.maximum(flat.max(axis=1), -flat.min(axis=1), out=out[0])
    sq = np.square(block, out=block).sum(axis=-1)
    np.divide(sq.sum(axis=-1), n_clusters, out=out[1])
    lm = np.divide(sq[:, :-1], scale, out=sq[:, :-1])
    if window.start < window.stop:
        lm[:, window].max(axis=1, out=out[2])
    else:
        out[2] = np.nan
    lm.max(axis=1, out=out[3])
    return out


@functools.lru_cache(maxsize=_NULL_CACHE_SIZE)
def _bridge_null(grid, dim, n_clusters, n_sim, seed, trim):
    """Every functional of ``n_sim`` Brownian bridges on one grid.

    ``grid`` is the interior time grid as the bytes of a float64 array.
    One pass draws the bridges chunk by chunk, each chunk small enough to
    stay in cache, and takes all four statistics from it.  Returns a
    read-only (4, n_sim) array in ``_NULL_ROWS`` order.
    """
    t_interior = np.frombuffer(grid)
    m = t_interior.shape[0]
    sqrt_dt = np.sqrt(np.diff(np.concatenate(([0.0], t_interior))))[:, None]
    scale = t_interior[:-1] * (1.0 - t_interior[:-1])
    window = _lm_window(t_interior, trim)
    rows = min(n_sim, max(1, _CHUNK_ELEMENTS // (m * dim)))
    draws = np.empty((rows, m, dim))
    pin = np.empty_like(draws)
    null = np.empty((4, n_sim))
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
        simulation.
    n_sim : int
        Number of simulated bridge paths, at least 1.
    trim : (float, float)
        maxLM trimming window on the time axis.
    parameterization : {"var", "theta", "sd"}
    scores : ScoreMatrix, optional
        Precomputed scores, bypassing :func:`estfun`.

    Returns
    -------
    ScoreTestResult
        Statistic, simulated p-value and its Monte-Carlo standard error
        ``sqrt(p (1 - p) / n_sim)`` (``min(3 / n_sim, 0.5)`` when no or
        every simulated statistic reaches the observed one, so the
        formula would read 0), the path for plotting, and the grid
        locations where the pointwise statistic exceeds the simulated 5%
        critical value (empty for CvM, which has no pointwise form).

    Notes
    -----
    One simulation yields the null of all four functionals, and the last
    few nulls are kept in memory.  Calls on the same grid with the same
    number of tested columns, cluster count, ``n_sim``, ``seed`` and
    ``trim`` share it: another functional, or another ``parm`` subset of
    the same size, costs no new draws.  A shared null is bit-identical to
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
    scale = t_interior[:-1] * (1.0 - t_interior[:-1])
    row = _NULL_ROWS.index(name)
    observed = path.values[1:]
    statistic = float(_statistics(observed[None].copy(), scale, window,
                                  n_clusters)[row, 0])

    sim = _bridge_null(t_interior.tobytes(), dim, n_clusters, n_sim, seed,
                       (float(trim[0]), float(trim[1])))[row]
    p_value = float(np.mean(sim >= statistic))
    critical = float(np.quantile(sim, 0.95))
    if name == "DM":
        crossings = t_interior[np.abs(observed).max(axis=1) > critical]
    elif name == "CvM":
        crossings = np.empty(0)
    else:
        # the pointwise LM statistic, only where the functional looks
        cols = window if name == "maxLM" else slice(0, scale.shape[0])
        lm = np.square(observed[cols]).sum(axis=1) / scale[cols]
        crossings = t_interior[cols][lm > critical]
    return ScoreTestResult(
        statistic=statistic,
        p_value=p_value,
        p_value_se=_p_value_se(p_value, n_sim),
        functional=name,
        path=path,
        parm=parm_idx,
        labels=labels,
        critical_value=critical,
        crossings=crossings,
        n_sim=n_sim,
        seed=seed,
    )
