"""Dataset and FeatureSubset construction invariants."""

import numpy as np
import pytest

from varsel import ConfigError, FeatureSubset, InvalidSubsetError, make_dataset
from varsel.data import Dataset, normalize_columns


class TestDataset:
    def test_requires_one_more_row_than_features(self):
        with pytest.raises(ConfigError, match="R\\+1"):
            make_dataset(np.ones((3, 3)), [1.0, 2.0, 3.0])

    def test_rejects_non_finite_entries(self):
        x = np.array([[1.0], [np.nan], [3.0]])
        with pytest.raises(ConfigError, match="non-finite"):
            make_dataset(x, [1.0, 2.0, 3.0])
        with pytest.raises(ConfigError, match="non-finite"):
            make_dataset(np.ones((3, 1)), [1.0, np.inf, 3.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ConfigError, match="unique"):
            make_dataset(np.ones((4, 2)) * [[1, 2]], [1, 2, 3, 4.0],
                         labels=("a", "a"))

    def test_rejects_length_mismatches(self):
        with pytest.raises(ConfigError):
            make_dataset(np.ones((4, 1)), [1.0, 2.0])
        with pytest.raises(ConfigError):
            make_dataset(np.ones((4, 1)), [1.0, 2.0, 3.0, 4.0], labels=("a", "b"))

    def test_arrays_are_immutable(self):
        ds = make_dataset(np.eye(4)[:, :2], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0
        with pytest.raises(ValueError):
            ds.target[0] = 9.0

    def test_label_lookup_is_one_based(self):
        ds = make_dataset(np.eye(4)[:, :2], [1.0, 2, 3, 4], labels=("a", "b"))
        assert ds.label_of(1) == "a" and ds.label_of(2) == "b"
        np.testing.assert_array_equal(ds.feature_column(2), ds.features[:, 1])
        with pytest.raises(InvalidSubsetError):
            ds.feature_column(3)


class TestFeatureSubset:
    def test_rejects_duplicates_and_non_positive(self):
        with pytest.raises(InvalidSubsetError):
            FeatureSubset((2, 2))
        with pytest.raises(InvalidSubsetError):
            FeatureSubset((0,))

    def test_replace_position_is_one_based(self):
        subset = FeatureSubset((5, 3, 8))
        assert subset.replace_position(2, 7).indices == (5, 7, 8)
        with pytest.raises(InvalidSubsetError):
            subset.replace_position(4, 1)

    def test_m_and_sorted(self):
        subset = FeatureSubset((9, 1, 4))
        assert subset.m == 3
        assert subset.sorted().indices == (1, 4, 9)
        assert FeatureSubset(()).m == 0


class TestNormalization:
    def test_zscore_centers_and_scales(self):
        x = np.array([[1.0, 5.0], [3.0, 5.0], [5.0, 5.0]])
        out = normalize_columns(x, "zscore")
        np.testing.assert_allclose(out[:, 0].mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out[:, 0].std(), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(out[:, 1], 0.0)  # constant column

    def test_zscore_maps_a_constant_with_rounding_residue_to_zero(self):
        # the std of 1213 copies of 0.1 is about 1.4e-17, not 0
        out = normalize_columns(np.full((1213, 1), 0.1), "zscore")
        np.testing.assert_array_equal(out, 0.0)

    def test_minmax_maps_to_unit_interval(self):
        x = np.array([[2.0], [4.0], [10.0]])
        out = normalize_columns(x, "minmax")
        assert out.min() == 0.0 and out.max() == 1.0

    def test_none_is_passthrough_copy(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = normalize_columns(x, "none")
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="normalization"):
            normalize_columns(np.ones((2, 1)), "sigmoid")
