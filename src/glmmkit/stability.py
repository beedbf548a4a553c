"""Score-based parameter-instability tests along an ordering variable.

The cumulative score process orders cluster-level scores by an auxiliary
variable, accumulates them, and decorrelates with the inverse square root
of the score outer-product matrix.  Under a stable model the process
behaves like a Brownian bridge in each coordinate, sampled at the grid of
the ordering.  Every functional's null on that grid is computed exactly
(see ``glmmkit._nulls``): the double max (DM) and the max-LM functionals
as the chance that the bridge, or its norm, stays inside a band, and
Cramer-von Mises as a weighted chi-square tail.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from ._nulls import (_DM_TOL, _LM_TOL, _TAIL_EPS, _critical_value,
                     _cvm_p_value, _dm_p_value, _lm_p_value)
from .derivatives import ScoreMatrix, estfun
from .estimation import FittedGlmm
from .exceptions import (ConfigError, DegenerateError, SingularityError,
                         _check_integer)

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
    """Outcome of a parameter-instability score test.

    ``critical_value`` (the functional's 5% critical value, exact on the
    test's grid) and ``crossings`` (the t at which the pointwise statistic
    exceeds it) are computed when first read, so a caller who reads only
    the p-value does not pay for the critical value.  ``n_sim`` echoes
    the argument of :func:`sctest`; every null is exact and none is
    simulated.
    """

    statistic: float
    p_value: float
    # absolute error bound of the exact p_value: dim * 1e-10 for DM, 1e-9
    # for CvM, 1e-10 for maxLM and maxLM-ordinal
    p_value_se: float
    functional: str
    path: FluctuationPath
    parm: tuple[int, ...]
    labels: tuple[str, ...]
    n_sim: int
    # the arguments of _nulls._critical_value, the divisor that puts its
    # value on the statistic's scale, and the pointwise statistic at its
    # grid times (both empty for CvM, which has no pointwise form)
    _critical_key: tuple = dataclasses.field(repr=False, compare=False)
    _critical_divisor: float = dataclasses.field(repr=False, compare=False)
    _pointwise: np.ndarray = dataclasses.field(repr=False, compare=False)
    _pointwise_t: np.ndarray = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def critical_value(self) -> float:
        return _critical_value(*self._critical_key) / self._critical_divisor

    @functools.cached_property
    def crossings(self) -> np.ndarray:
        return self._pointwise_t[self._pointwise > self.critical_value]


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
    try:
        perm = np.argsort(order_by, kind="stable")
    except TypeError as exc:
        raise ConfigError(f"ordering variable cannot be sorted: {exc}") from None
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
    seed : optional
        Accepted for compatibility and ignored: every null is exact, so
        nothing is drawn.
    n_sim : int
        A positive integer, reported as ``n_sim`` on the result and
        otherwise unused.
    trim : (float, float)
        maxLM trimming window on the time axis: two numbers ``lo < hi``
        in [0, 1], or a ``ConfigError``.
    parameterization : {"var", "theta", "sd"}
    scores : ScoreMatrix, optional
        Precomputed scores, bypassing :func:`estfun`.

    Returns
    -------
    ScoreTestResult
        Statistic, p-value and ``p_value_se``, the path for plotting, and
        the grid locations where the pointwise statistic exceeds the 5%
        critical value (empty for CvM, which has no pointwise form).  The
        p-value and critical value are exact on the test's grid, ties
        included, and ``p_value_se`` is the p-value's error bound:
        ``dim * 1e-10`` for DM, 1e-9 for CvM and 1e-10 for maxLM and
        maxLM-ordinal.  The critical value and crossings are computed
        when first read, and critical values are cached by grid, so calls
        on one grid (the same cluster count and ties, tested columns and
        trimming window) compute each functional's once.

    Notes
    -----
    Under the null the path is a Brownian bridge in ``dim`` independent
    coordinates, sampled at the grid; ``glmmkit._nulls`` computes each
    functional's null on it.
    """
    try:
        name = _FUNCTIONALS[str(functional).lower()]
    except KeyError:
        raise ConfigError(
            f"unknown functional {functional!r}; expected one of "
            "DM, CvM, maxLM, maxLMo"
        ) from None
    n_sim = _check_integer(n_sim, "sctest n_sim", 1)
    try:
        lo, hi = trim
        valid = bool(0.0 <= lo < hi <= 1.0)
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ConfigError(f"invalid trimming window {trim!r}")
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
    # all-zero scores are degenerate but well defined: the path never
    # leaves the origin, which the identity decorrelates as well as any
    full = cumulative_score_process(
        values, order_by, None if np.any(values) else np.eye(values.shape[1]))
    path = dataclasses.replace(full, values=full.values[:, list(parm_idx)])

    t_interior = path.t[1:]
    window = _lm_window(t_interior, trim)
    if name == "maxLM" and window.start == window.stop:
        raise DegenerateError(
            f"no ordering points fall inside the maxLM trimming "
            f"window [{trim[0]}, {trim[1]}]"
        )
    observed = path.values[1:]
    divisor = 1.0
    if name == "DM":
        pointwise = np.abs(observed).max(axis=1)
        statistic = float(pointwise.max())
        grid = path.counts / n_clusters
        pointwise_t = t_interior
        p_value = _dm_p_value(statistic, grid, dim)
        p_value_se = dim * _DM_TOL
    elif name == "CvM":
        statistic = float(np.square(observed).sum(axis=1).sum() / n_clusters)
        grid = path.counts / n_clusters
        pointwise = pointwise_t = np.empty(0)
        divisor = float(n_clusters)
        p_value = _cvm_p_value(statistic, grid, n_clusters, dim)
        p_value_se = _TAIL_EPS
    else:
        # the pointwise LM statistic, only where the functional looks
        cols = window if name == "maxLM" else slice(0, t_interior.size - 1)
        grid = pointwise_t = t_interior[cols]
        pointwise = np.square(observed[cols]).sum(axis=1) / (
            grid * (1.0 - grid))
        statistic = float(pointwise.max())
        p_value = _lm_p_value(statistic, grid, dim)
        p_value_se = _LM_TOL
    return ScoreTestResult(
        statistic=statistic,
        p_value=p_value,
        p_value_se=p_value_se,
        functional=name,
        path=path,
        parm=parm_idx,
        labels=labels,
        n_sim=n_sim,
        _critical_key=("maxLM" if name.startswith("maxLM") else name,
                       grid.tobytes(), dim),
        _critical_divisor=divisor,
        _pointwise=pointwise,
        _pointwise_t=pointwise_t.copy(),   # not a view of path.t
    )
