"""Score-based parameter-instability tests along an ordering variable.

The cumulative score process orders cluster-level scores by an auxiliary
variable, accumulates them, and decorrelates with the inverse square root
of the score outer-product matrix.  Under a stable model the process
behaves like a Brownian bridge in each coordinate, so functionals of the
path (double-max, Cramer-von Mises, max-LM) can be compared against
simulated bridge paths on the same time grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import ScoreMatrix, estfun
from .estimation import FittedGlmm
from .exceptions import ConfigError, DegenerateError, SingularityError

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

# grid points per simulation chunk, sized to keep the scratch array near
# 128 MB regardless of problem dimensions
_CHUNK_BUDGET = 2 ** 24


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


def _functional_grid(name, t_interior, trim):
    """Boolean mask over interior grid points the functional looks at."""
    if name == "maxLM":
        mask = (t_interior >= trim[0]) & (t_interior <= trim[1]) \
            & (t_interior < 1.0)
        if not mask.any():
            raise DegenerateError(
                f"no ordering points fall inside the maxLM trimming "
                f"window [{trim[0]}, {trim[1]}]"
            )
        return mask
    if name == "maxLM-ordinal":
        mask = t_interior < 1.0
        if not mask.any():
            raise DegenerateError(
                "maxLM-ordinal needs at least two distinct ordering values"
            )
        return mask
    return np.ones(t_interior.shape, dtype=bool)


def _apply_functional(name, path_block, t_interior, mask, n_clusters):
    """Evaluate a functional on one path (2-d) or a batch (3-d).

    ``path_block`` has shape (..., m, d) where m matches ``t_interior``.
    Returns the statistic(s) plus, for pointwise functionals on a single
    path, the per-grid-point values.
    """
    if name == "DM":
        pointwise = np.abs(path_block).max(axis=-1)
        return pointwise.max(axis=-1), pointwise
    sq = np.square(path_block).sum(axis=-1)
    if name == "CvM":
        return sq.sum(axis=-1) / n_clusters, None
    scale = t_interior * (1.0 - t_interior)
    pointwise = np.where(mask, np.divide(
        sq, scale, out=np.zeros_like(sq), where=scale > 0.0), 0.0)
    return pointwise.max(axis=-1), pointwise


def _simulate_bridge_stats(name, t_interior, mask, dim, n_clusters,
                           n_sim, rng):
    """Functional values of ``n_sim`` Brownian bridges on the same grid."""
    m = t_interior.shape[0]
    dt = np.diff(np.concatenate(([0.0], t_interior)))
    chunk = max(1, int(_CHUNK_BUDGET // max(m * dim, 1)))
    out = np.empty(n_sim)
    done = 0
    while done < n_sim:
        size = min(chunk, n_sim - done)
        incr = rng.standard_normal((size, m, dim))
        incr *= np.sqrt(dt)[None, :, None]
        walk = np.cumsum(incr, axis=1)
        bridge = walk - t_interior[None, :, None] * walk[:, -1:, :]
        stats, _ = _apply_functional(name, bridge, t_interior, mask,
                                     n_clusters)
        out[done:done + size] = stats
        done += size
    return out


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
        Required; drives the Brownian-bridge null simulation.
    n_sim : int
        Number of simulated bridge paths.
    trim : (float, float)
        maxLM trimming window on the time axis.
    parameterization : {"var", "theta", "sd"}
    scores : ScoreMatrix, optional
        Precomputed scores, bypassing :func:`estfun`.

    Returns
    -------
    ScoreTestResult
        Statistic, simulated p-value, the path for plotting, and the grid
        locations where the pointwise statistic exceeds the simulated 5%
        critical value (empty for CvM, which has no pointwise form).
    """
    try:
        name = _FUNCTIONALS[str(functional).lower()]
    except KeyError:
        raise ConfigError(
            f"unknown functional {functional!r}; expected one of "
            "DM, CvM, maxLM, maxLMo"
        ) from None
    if seed is None:
        raise ConfigError("sctest requires a seed for the p-value simulation")
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
    mask = _functional_grid(name, t_interior, trim)
    statistic, pointwise = _apply_functional(
        name, path.values[1:], t_interior, mask, n_clusters)
    statistic = float(statistic)

    rng = np.random.default_rng(seed)
    sim = _simulate_bridge_stats(name, t_interior, mask, dim, n_clusters,
                                 n_sim, rng)
    p_value = float(np.mean(sim >= statistic))
    critical = float(np.quantile(sim, 0.95))
    if pointwise is None:
        crossings = np.empty(0)
    else:
        over = np.asarray(pointwise > critical) & mask
        crossings = t_interior[over]
    return ScoreTestResult(
        statistic=statistic,
        p_value=p_value,
        functional=name,
        path=path,
        parm=parm_idx,
        labels=labels,
        critical_value=critical,
        crossings=crossings,
        n_sim=n_sim,
        seed=int(seed),
    )
