"""Dataset and FeatureSubset construction invariants, and the seeded
generators of every stochastic stage."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varsel import (
    ConfigError,
    CostCache,
    FeatureSubset,
    InvalidSubsetError,
    RankingMethod,
    RunConfig,
    coefficient_pvalues,
    error_curve,
    make_dataset,
    neighbour_costs,
    rank_features,
)
from varsel import data
from varsel.data import Dataset, normalize_columns, run_rng, run_rngs


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

    def test_column_norms_are_those_of_gathered_rows(self):
        # the kernel gathers candidate columns as contiguous rows and reads
        # their |x|^2 from the table: the bits must be the rows' own einsum
        rng = np.random.default_rng(7)
        ds = make_dataset(rng.normal(size=(1213, 30)) * 10.0 ** rng.uniform(-6, 6, 30),
                          rng.normal(size=1213))
        norm2 = ds.column_norm2
        assert norm2 is ds.column_norm2
        assert not norm2.flags.writeable
        for _ in range(5):
            rows = rng.choice(30, size=int(rng.integers(1, 30)), replace=False)
            gathered = ds.features.T[rows]
            want = np.einsum("ij,ij->i", gathered, gathered)
            assert norm2[rows].tobytes() == want.tobytes()

    def test_columns_are_a_read_only_copy_of_the_transpose(self):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng.normal(size=(50, 7)), rng.normal(size=50))
        columns = ds.columns
        assert columns is ds.columns
        assert not columns.flags.writeable and columns.flags.c_contiguous
        assert not np.shares_memory(columns, ds.features)
        assert columns.shape == (7, 50)
        assert columns.tobytes() == np.ascontiguousarray(ds.features.T).tobytes()
        with pytest.raises(ValueError):
            columns[0, 0] = 1.0

    def test_only_the_candidate_kernel_builds_the_column_store(self):
        # the rank stage keeps its own transient copies of the columns, so
        # it never holds the store; a kernel call takes it
        rng = np.random.default_rng(9)
        ds = make_dataset(rng.normal(size=(40, 6)), rng.normal(size=40))
        for method in RankingMethod:
            order = rank_features(ds, method).order
        error_curve(ds, order)
        assert "columns" not in vars(ds)
        neighbour_costs(ds, (1,), [2, 3])
        assert "columns" in vars(ds)

    def test_label_lookup_is_one_based(self):
        ds = make_dataset(np.eye(4)[:, :2], [1.0, 2, 3, 4], labels=("a", "b"))
        assert ds.label_of(1) == "a" and ds.label_of(2) == "b"
        for outside in (0, 3):
            with pytest.raises(InvalidSubsetError):
                ds.label_of(outside)


class TestFeatureSubset:
    def test_rejects_duplicates_and_non_positive(self):
        with pytest.raises(InvalidSubsetError):
            FeatureSubset((2, 2))
        with pytest.raises(InvalidSubsetError):
            FeatureSubset((0,))

    def test_m_counts_indices_in_given_order(self):
        subset = FeatureSubset((9, 1, 4))
        assert subset.m == 3
        assert subset.indices == (9, 1, 4)
        assert FeatureSubset(()).m == 0

    @pytest.mark.parametrize("indices", [(1.5, 2), (1.0, 2.0), ("2", "3"), (2, None)])
    def test_rejects_indices_that_are_not_integers(self, indices):
        with pytest.raises(InvalidSubsetError, match="must be integers"):
            FeatureSubset(indices)

    def test_takes_numpy_integers_as_python_ints(self):
        subset = FeatureSubset((np.int64(2), np.int32(3), 1))
        assert subset.indices == (2, 3, 1)
        assert all(type(k) is int for k in subset.indices)


def table_for_indices():
    rng = np.random.default_rng(3)
    return make_dataset(rng.normal(size=(20, 4)), rng.normal(size=20))


@pytest.mark.parametrize("call", [
    pytest.param(lambda ds: CostCache(ds).cost((1.0, 2.0)), id="cache-cost"),
    pytest.param(lambda ds: CostCache(ds).cost(("2", "3")), id="cache-cost-strings"),
    pytest.param(lambda ds: CostCache(ds).neighbour_costs((1,), [2.0]),
                 id="cache-neighbours"),
    pytest.param(lambda ds: neighbour_costs(ds, (1,), [2.5]), id="kernel-candidate"),
    pytest.param(lambda ds: neighbour_costs(ds, (1.0,), [2]), id="kernel-fixed"),
    pytest.param(lambda ds: error_curve(ds, (1.0, 2, 3, 4)), id="error-curve"),
    pytest.param(lambda ds: coefficient_pvalues(ds, (1.5,)), id="pvalues"),
    pytest.param(lambda ds: RunConfig(dataset_path="t.csv", target_column="y",
                                      stages=("cv",), cv_subset=(1.5,)),
                 id="run-config"),
])
def test_entry_points_reject_indices_that_are_not_integers(call):
    with pytest.raises(InvalidSubsetError, match="must be integers"):
        call(table_for_indices())


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

    # a varying column whose range or sum of squares overflows, or whose sum
    # of squares underflows to 0: zscore used to give a silent all-zero
    # column (or an overflow warning), minmax a later error naming no column
    @pytest.mark.parametrize("mode,value", [
        ("zscore", 1.5e308), ("zscore", 1e200), ("zscore", 1e-200), ("minmax", 1.5e308)])
    def test_column_outside_the_double_range_is_named(self, mode, value):
        x = np.random.default_rng(3).normal(size=(6, 4))
        x[:, 1] = x[:, 3] = value * np.array([1, -1, 1, -1, 1, -1])
        with pytest.raises(ConfigError, match=r"normalize feature column\(s\) \[2, 4\]"):
            make_dataset(x, np.arange(6.0), normalize=mode)

    @pytest.mark.parametrize("mode", ["zscore", "minmax"])
    def test_constant_column_near_the_double_range_maps_to_zero(self, mode):
        x = np.column_stack([np.full(6, 1.5e308), np.arange(6.0)])
        ds = make_dataset(x, np.arange(6.0), normalize=mode)
        np.testing.assert_array_equal(ds.features[:, 0], 0.0)

    def test_none_is_passthrough_copy(self):
        x = np.array([[1.0], [2.0], [3.0]])
        out = normalize_columns(x, "none")
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="normalization"):
            normalize_columns(np.ones((2, 1)), "sigmoid")


class TestRunRng:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_rng(-1, 0)
        run_rng(0, 0)  # the smallest accepted seed

    # the one seed rule: Gibbs draws run_rng(seed), the bare seed sequence
    # (spawn key ()), and search restart i and CV split i run_rng(seed, i)
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_bare_seed_is_the_spawn_key_free_stream(self, seed):
        expected = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        np.testing.assert_array_equal(run_rng(seed).random(8), expected.random(8))

    @pytest.mark.parametrize("seed,index", [(0, 0), (1, 3), (7, 599), (2**40, 1)])
    def test_seed_and_index_is_the_spawned_stream(self, seed, index):
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
        np.testing.assert_array_equal(run_rng(seed, index).random(8),
                                      expected.random(8))

    def test_negative_seed_rejected_with_or_without_index(self):
        for key in ((), (0,), (5,)):
            with pytest.raises(ConfigError, match="seed must be >= 0"):
                run_rng(-1, *key)

    def test_raw_words_pinned(self):
        # literal PCG64 output: a numpy whose seed sequence or bit generator
        # draws other numbers fails here rather than in a report digest
        assert [int(v) for v in run_rng(1).bit_generator.random_raw(2)] == [
            9441442522235856127, 17532960557476522086]
        assert [int(v) for v in run_rng(1, 2).bit_generator.random_raw(2)] == [
            4301196022613586579, 867395562149415902]

    def test_the_bit_generator_is_named_pcg64(self):
        # run_rngs repeats PCG64's seeding, so the rule must not follow a
        # change of numpy's default bit generator
        for key in ((), (3,)):
            assert type(run_rng(1, *key).bit_generator) is np.random.PCG64


# the seeds and keys where the seed sequence's word split changes: one word
# up to 2^32 - 1, two from 2^32, three from 2^64
WORD_EDGES = (0, 2**32 - 1, 2**32, 2**64)


def streams(rngs):
    """The state and first two raw words of each generator, read before the
    next is drawn (``run_rngs`` yields one object, reseeded per key)."""
    return [(rng.bit_generator.state, rng.bit_generator.random_raw(2).tolist())
            for rng in rngs]


class TestRunRngs:
    # seeds of up to five words (four pad the pool, a fifth mixes in after
    # it), keys of up to three, in any mix within one pass, and passes of
    # one to four keys so that a call spans several
    @settings(max_examples=300, deadline=None)
    @given(seed=st.one_of(st.integers(0, 2**140 - 1), st.sampled_from(WORD_EDGES)),
           keys=st.lists(st.one_of(st.integers(0, 2**70 - 1),
                                   st.sampled_from(WORD_EDGES)), max_size=9),
           per_pass=st.integers(1, 4))
    def test_each_stream_is_that_of_run_rng(self, seed, keys, per_pass):
        with mock.patch.object(data, "RUN_RNGS_PASS", per_pass):
            got = streams(run_rngs(seed, keys))
        assert got == streams(run_rng(seed, key) for key in keys)

    def test_a_block_of_run_indices_at_an_offset(self):
        keys = range(1000, 1100)
        assert streams(run_rngs(7, keys)) == streams(run_rng(7, k) for k in keys)

    def test_no_keys_no_streams(self):
        assert list(run_rngs(1, [])) == []

    def test_one_generator_reseeded_per_key(self):
        rngs = run_rngs(1, range(3))
        first = next(rngs)
        draw = first.random()
        assert next(rngs) is first
        assert draw == run_rng(1, 0).random()

    def test_negative_seed_rejected_at_the_call(self):
        # before any key is reached: the seed's word split would not end
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            run_rngs(-1, range(3))

    def test_negative_key_rejected(self):
        rngs = run_rngs(1, [0, -1])
        with pytest.raises(ValueError, match="spawn keys must be >= 0"):
            next(rngs)
