"""Clustered data container used by the likelihood and score machinery.

Observations are stored row-wise with dense fixed and random design
matrices.  Rows are grouped so that each cluster occupies a contiguous
block, which lets per-cluster reductions run as vectorized segment sums
(``np.add.reduceat``) instead of Python loops.  Cluster order follows first
appearance in the input; row order within a cluster is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import ShapeError

__all__ = ["GlmmData"]


@dataclass(frozen=True)
class GlmmData:
    """Immutable clustered dataset.

    Attributes
    ----------
    y : ndarray, shape (N,)
        Responses.
    X : ndarray, shape (N, p)
        Fixed-effect design, full column rank.
    Z : ndarray, shape (N, q)
        Random-effect design; each cluster contributes its own block of
        rows against a q-dimensional random effect.
    cluster_index : ndarray of int, shape (N,)
        Cluster codes 0..I-1, nondecreasing (rows are cluster-contiguous).
    offsets : ndarray of int, shape (I+1,)
        Row boundaries of the cluster blocks.
    cluster_ids : tuple
        Original cluster labels in code order.
    """

    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray
    cluster_index: np.ndarray
    offsets: np.ndarray
    cluster_ids: tuple
    x_names: tuple[str, ...]
    z_names: tuple[str, ...]

    @classmethod
    def from_arrays(cls, y, X, Z, cluster, x_names=None, z_names=None,
                    *, _coding=None) -> "GlmmData":
        """Build a :class:`GlmmData` from raw arrays.

        ``cluster`` may hold arbitrary hashable labels; clusters are coded
        in order of first appearance and rows are stably regrouped so each
        cluster is contiguous.  Shapes are validated and X is required to
        have full column rank.  ``_coding`` is the package-internal
        ``_codes_by_first_appearance(cluster)``, for a caller that needs
        the codes too.
        """
        y = np.asarray(y, dtype=float).ravel()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        n = y.size
        if X.shape[0] != n or Z.shape[0] != n:
            raise ShapeError(
                f"row mismatch: y has {n}, X has {X.shape[0]}, Z has {Z.shape[0]}"
            )
        cluster = np.asarray(cluster)
        if cluster.ravel().size != n:
            raise ShapeError("cluster vector length must match y")
        cluster = cluster.ravel()
        if not np.all(np.isfinite(y)):
            raise ShapeError("responses must be finite")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Z))):
            raise ShapeError("design matrices must be finite")
        if np.linalg.matrix_rank(X) < X.shape[1]:
            raise ShapeError("fixed-effect design X is rank deficient")

        ids, codes = _coding or _codes_by_first_appearance(cluster)
        order = np.argsort(codes, kind="stable")
        codes = codes[order]
        counts = np.bincount(codes, minlength=len(ids))
        offsets = np.concatenate([[0], np.cumsum(counts)])

        if x_names is None:
            x_names = tuple(f"x{j}" for j in range(X.shape[1]))
        if z_names is None:
            z_names = tuple(f"z{j}" for j in range(Z.shape[1]))
        if len(x_names) != X.shape[1] or len(z_names) != Z.shape[1]:
            raise ShapeError("design name lists must match column counts")

        data = cls(
            y=y[order],
            X=np.ascontiguousarray(X[order]),
            Z=np.ascontiguousarray(Z[order]),
            cluster_index=codes,
            offsets=offsets,
            cluster_ids=tuple(ids),
            x_names=tuple(str(s) for s in x_names),
            z_names=tuple(str(s) for s in z_names),
        )
        for arr in (data.y, data.X, data.Z, data.cluster_index, data.offsets):
            arr.setflags(write=False)
        return data

    # -- sizes ------------------------------------------------------------

    @property
    def n_obs(self) -> int:
        return self.y.size

    @property
    def n_clusters(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_fixed(self) -> int:
        return self.X.shape[1]

    @property
    def n_random(self) -> int:
        return self.Z.shape[1]

    @cached_property
    def distinct_design(self) -> tuple[list[int], np.ndarray]:
        """The distinct columns of the joint design [X Z]: their positions
        in it, and for each of its d columns the position among them of
        the column equal to it.  Equal columns, such as an intercept in
        both X and Z, count once."""
        rows = np.hstack([self.X, self.Z])
        first = [next(c for c in range(j + 1)
                      if np.array_equal(rows[:, c], rows[:, j]))
                 for j in range(rows.shape[1])]
        distinct = sorted(set(first))
        return distinct, np.array([distinct.index(c) for c in first])

    # -- per-cluster reductions -------------------------------------------

    def sum_by_cluster(self, values: np.ndarray, axis: int = 0) -> np.ndarray:
        """Segment-sum an array over cluster blocks along its row axis,
        ``axis`` (length N)."""
        return np.add.reduceat(values, self.offsets[:-1], axis=axis)


def _codes_by_first_appearance(values: np.ndarray) -> tuple[list, np.ndarray]:
    """Integer codes 0..I-1 assigned in order of first appearance.

    Equal labels share the first one's code and key (``1``, ``1.0`` and
    ``True`` are one cluster); a NaN matches only itself.
    """
    items = values.tolist()
    index = {v: code for code, v in enumerate(dict.fromkeys(items))}
    codes = np.fromiter(map(index.__getitem__, items), dtype=np.intp,
                        count=len(items))
    return list(index), codes
