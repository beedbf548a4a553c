"""Clustered data container: grouping, validation, reductions."""

import numpy as np
import pytest

from glmmkit import GlmmData, ShapeError
from glmmkit.design import _codes_by_first_appearance
from oracles import codes_by_first_appearance, grouping_permutation


def _interleaved():
    # clusters deliberately NOT contiguous in input order
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
    X = np.column_stack([np.ones(6), np.arange(6.0)])
    Z = np.ones((6, 1))
    cluster = np.array(["b", "a", "b", "a", "c", "b"])
    return y, X, Z, cluster


def test_from_arrays_regroups_contiguously():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    assert data.cluster_ids == ("b", "a", "c")
    np.testing.assert_array_equal(data.cluster_index, [0, 0, 0, 1, 1, 2])
    np.testing.assert_array_equal(data.offsets, [0, 3, 5, 6])
    # cluster "b" had input rows 0, 2, 5 in that order (stable)
    np.testing.assert_allclose(data.X[:3, 1], [0.0, 2.0, 5.0])
    np.testing.assert_allclose(data.y[:3], [1.0, 1.0, 0.0])


def test_grouping_permutation_matches_from_arrays():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    perm = grouping_permutation(cluster)
    np.testing.assert_allclose(data.y, y[perm])
    np.testing.assert_allclose(data.X, X[perm])


def test_sizes():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    assert data.n_obs == 6
    assert data.n_clusters == 3
    assert data.n_fixed == 2
    assert data.n_random == 1


def test_sum_by_cluster():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    np.testing.assert_allclose(data.sum_by_cluster(np.ones(6)), [3, 2, 1])
    np.testing.assert_allclose(data.sum_by_cluster(data.y), [2.0, 1.0, 0.0])


def test_arrays_are_read_only():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    with pytest.raises(ValueError):
        data.y[0] = 99.0


def test_shape_mismatch_raises():
    y, X, Z, cluster = _interleaved()
    with pytest.raises(ShapeError):
        GlmmData.from_arrays(y[:-1], X, Z, cluster)
    with pytest.raises(ShapeError):
        GlmmData.from_arrays(y, X, Z, cluster[:-1])


def test_rank_deficient_X_raises():
    y, X, Z, cluster = _interleaved()
    X_bad = np.column_stack([X, X[:, 0] + X[:, 1]])
    with pytest.raises(ShapeError):
        GlmmData.from_arrays(y, X_bad, Z, cluster)


def test_nonfinite_rejected():
    y, X, Z, cluster = _interleaved()
    y_bad = y.copy()
    y_bad[2] = np.nan
    with pytest.raises(ShapeError):
        GlmmData.from_arrays(y_bad, X, Z, cluster)


def test_default_names():
    y, X, Z, cluster = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, cluster)
    assert data.x_names == ("x0", "x1")
    assert data.z_names == ("z0",)


def test_integer_cluster_labels():
    y, X, Z, _ = _interleaved()
    data = GlmmData.from_arrays(y, X, Z, np.array([7, 3, 7, 3, 9, 7]))
    assert data.cluster_ids == (7, 3, 9)
    np.testing.assert_array_equal(data.cluster_index, [0, 0, 0, 1, 1, 2])


@pytest.mark.parametrize("labels", [
    np.array([1, 1.0, True, 2, 2.0, 1, False, 0], dtype=object),
    np.array(["b", "a", "b", "c", "a", "", "b"]),
    np.array([np.nan, 1.0, np.nan, 1.0, 2.0]),
    np.array([float("nan"), "x", 3, "x", 3.0], dtype=object),
    np.array([], dtype=object),
])
def test_cluster_coding_matches_the_per_row_loop(labels):
    ids, codes = _codes_by_first_appearance(labels)
    ref_ids, ref_codes = codes_by_first_appearance(labels)
    # type and repr too: which of 1, 1.0 and True became the key matters
    assert [(type(v), repr(v)) for v in ids] == \
        [(type(v), repr(v)) for v in ref_ids]
    assert codes.dtype == ref_codes.dtype
    np.testing.assert_array_equal(codes, ref_codes)

