"""Core immutable data containers: feature table and feature subsets, plus
the seeded generator of every stochastic stage (``run_rng``) and its bulk
form (``run_rngs``), which derives the generators of many spawn keys in one
vectorized pass and gives each one's state to a single reused generator.

Feature indices are 1-based everywhere in the public API, matching the
labeling used in reports (feature 113 is the 113th column of the table).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, InvalidSubsetError


@dataclass(frozen=True)
class Dataset:
    """An N x R feature table with one numeric target vector.

    Invariants enforced at construction: N >= R + 1 (one more row than
    features plus the intercept), all entries finite, unique labels.
    """

    features: np.ndarray
    target: np.ndarray
    labels: tuple[str, ...]
    target_label: str = "target"

    def __post_init__(self):
        # own private copies: they get frozen, and callers keep their arrays
        features = np.array(self.features, dtype=float)
        target = np.array(self.target, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "labels", tuple(self.labels))
        if features.ndim != 2:
            raise ConfigError("features must be a 2-D array")
        n, r = features.shape
        if target.shape != (n,):
            raise ConfigError(
                f"target length {target.shape} does not match {n} feature rows"
            )
        if len(self.labels) != r:
            raise ConfigError(f"{len(self.labels)} labels for {r} feature columns")
        if len(set(self.labels)) != r:
            raise ConfigError("feature labels must be unique")
        if n < r + 1:
            raise ConfigError(
                f"need at least R+1 rows: got N={n} rows for R={r} features"
            )
        if not np.isfinite(features).all() or not np.isfinite(target).all():
            raise ConfigError("non-finite entries in features or target")
        features.setflags(write=False)
        target.setflags(write=False)

    @cached_property
    def column_norm2(self) -> np.ndarray:
        """``|x|^2`` of every feature column, read-only, each summed as
        ``np.einsum`` sums one contiguous row: taken once per table."""
        columns = self.features.T.copy()
        norm2 = np.einsum("ij,ij->i", columns, columns)
        norm2.setflags(write=False)
        return norm2

    @cached_property
    def columns(self) -> np.ndarray:
        """``features.T`` as a read-only C-contiguous copy, one row per
        feature, so a gather of candidate columns reads whole rows rather
        than every R-th entry of the table: taken once per table.  The rank
        stage keeps its own transient copies and never builds it."""
        columns = self.features.T.copy()
        columns.setflags(write=False)
        return columns

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def label_of(self, index: int) -> str:
        if not 1 <= index <= self.n_features:
            raise InvalidSubsetError(
                f"feature index {index} outside [1, {self.n_features}]"
            )
        return self.labels[index - 1]


def feature_indices(values) -> tuple[int, ...]:
    """``values`` as a tuple of Python ints: Python and numpy integers are
    taken as they are, and anything else (a float, a string) raises
    ``InvalidSubsetError`` rather than being truncated or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise InvalidSubsetError(
            f"feature indices must be integers, got {values!r}") from None


@dataclass(frozen=True)
class FeatureSubset:
    """Ordered list of M distinct 1-based feature indices."""

    indices: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        indices = feature_indices(self.indices)
        object.__setattr__(self, "indices", indices)
        if len(set(indices)) != len(indices):
            raise InvalidSubsetError(f"duplicate indices in subset {indices}")
        if any(k < 1 for k in indices):
            raise InvalidSubsetError(f"indices must be >= 1, got {indices}")

    @property
    def m(self) -> int:
        return len(self.indices)

    def validate_against(self, dataset: Dataset) -> None:
        bad = [k for k in self.indices if k > dataset.n_features]
        if bad:
            raise InvalidSubsetError(
                f"indices {bad} outside [1, {dataset.n_features}]"
            )


def check_seed(seed: int) -> None:
    """The master seeds numpy's seed sequence takes: integers >= 0."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def run_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """The one generator rule of every stochastic stage, PCG64 seeded by
    numpy's seed sequence of the master seed at ``spawn_key``: Gibbs draws
    ``run_rng(seed)``, search restart i and CV split i ``run_rng(seed, i)``,
    so results never depend on execution order.  The bit generator is named,
    not numpy's default, because ``run_rngs`` repeats PCG64's seeding."""
    check_seed(seed)
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))


# The constants of numpy's ``SeedSequence`` (NEP 19) and of PCG64's seeding
# (O'Neill 2014), as ``run_rngs`` repeats them.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# Keys whose seed sequences ``run_rngs`` derives in one vectorized pass: a
# few hundred kilobytes of transients at most, whatever the number of keys.
RUN_RNGS_PASS = 1024


def _uint32_words(value: int) -> list[int]:
    """The little-endian uint32 words of an integer >= 0, ``[0]`` for 0, as
    the seed sequence splits its entropy and each spawn key."""
    if value < 0:
        raise ValueError(f"spawn keys must be >= 0, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _Hash:
    """The seed sequence's word hash, whose multiplier advances at each
    call.  Every step is taken mod 2^32, so it hashes a Python int or every
    entry of a uint32 array alike."""

    def __init__(self, constant: int, multiplier: int):
        self.constant, self.multiplier = constant, multiplier

    def __call__(self, value):
        value = value ^ self.constant
        self.constant = self.constant * self.multiplier & _MASK32
        value = value * self.constant & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    """The seed sequence's mix of two pool words, mod 2^32."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _mix_words(pool: list, words, hashmix: _Hash) -> None:
    """Mix ``words``, the entropy words past the pool's own, into ``pool``."""
    for word in words:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))


def _seed_pool(seed: int) -> tuple[list[int], int]:
    """The entropy pool of the seed sequence of ``seed`` at any spawn key,
    before the key's words are mixed in, and the hash constant then
    reached: the seed's words, zero-padded to the pool size (a spawn key is
    present), mixed as ``SeedSequence.mix_entropy`` mixes them.  Every key
    of ``run_rngs`` shares it."""
    words = _uint32_words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    hashmix = _Hash(_HASH_INIT_A, _HASH_MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if dst != src:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    _mix_words(pool, words[_POOL_SIZE:], hashmix)
    return pool, hashmix.constant


def _seed_states(seed_pool: tuple[list[int], int],
                 keys: list[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    of every key k of ``keys``, one row of four uint64 words each, from the
    seed's ``_seed_pool``.  The keys are grouped by their number of uint32
    words; each group mixes its key words into the pool, then takes the
    state hash, every step one uint32 operation over the whole group."""
    key_words = [_uint32_words(key) for key in keys]
    by_width: dict[int, list[int]] = {}
    for position, words in enumerate(key_words):
        by_width.setdefault(len(words), []).append(position)
    states = np.empty((len(keys), 4), dtype=np.uint64)
    pool_words, constant = seed_pool
    for positions in by_width.values():
        words = np.array([key_words[p] for p in positions], dtype=np.uint32)
        pool = [np.full(len(positions), word, dtype=np.uint32)
                for word in pool_words]
        _mix_words(pool, words.T, _Hash(constant, _HASH_MULT_A))
        state_hash = _Hash(_HASH_INIT_B, _HASH_MULT_B)
        state = np.empty((len(positions), 2 * _POOL_SIZE), dtype=np.uint32)
        for i in range(2 * _POOL_SIZE):
            state[:, i] = state_hash(pool[i % _POOL_SIZE])
        # native order, as generate_state views its words
        states[positions] = state.view(np.uint64)
    return states


def run_rngs(seed: int, keys: Iterable[int]) -> Iterator[np.random.Generator]:
    """The bulk form of ``run_rng``: for each key k of ``keys`` in order, a
    generator whose state is that of ``run_rng(seed, k)``.

    The seed is checked at the call, keys (>= 0) as they are reached.  The
    seed's part of the seed sequence is mixed once (``_seed_pool``); then
    up to ``RUN_RNGS_PASS`` keys at a time take the rest in one vectorized
    pass (``_seed_states``), and each key sets PCG64's seeding,
    ``state = (inc + initstate) * mult + inc`` mod 2^128, through the
    public ``state`` setter of one reused ``PCG64``.  So every item is the
    same ``Generator`` object, given a new state per key: draw from it
    before advancing the iterator, and keep no reference to it as a stream
    of its own."""
    check_seed(seed)
    return _reseeded(_seed_pool(seed), iter(keys))


def _reseeded(seed_pool: tuple[list[int], int],
              keys: Iterator[int]) -> Iterator[np.random.Generator]:
    """``run_rngs`` once its seed is checked and mixed."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    while chunk := list(islice(keys, RUN_RNGS_PASS)):
        for s0, s1, s2, s3 in _seed_states(seed_pool, chunk).tolist():
            inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                "has_uint32": 0, "uinteger": 0}
            yield rng


def constant_columns(values: np.ndarray) -> np.ndarray:
    """Mask of the constant columns, ``max == min``: a test on centered
    values or on the std misses a constant such as 0.1, whose centering
    leaves a rounding residue."""
    return values.max(axis=0) == values.min(axis=0)


def unit_centered_columns(values: np.ndarray) -> np.ndarray:
    """Columns centered and scaled to unit norm in one new array, so that a
    Pearson correlation is an inner product; constant columns come out as
    exact zeros (any other column keeps a nonzero entry after centering)."""
    out = values - values.mean(axis=0)
    constant = constant_columns(values)
    out[:, constant] = 0.0
    norms = np.sqrt(np.einsum("ij,ij->j", out, out))
    norms[constant] = 1.0
    out /= norms
    return out


def normalize_columns(values: np.ndarray, mode: str) -> np.ndarray:
    """Column-wise feature normalization used at ingestion.

    ``zscore`` centers and scales to unit (population) standard deviation,
    ``minmax`` maps the observed range onto [0, 1]; constant columns
    (``constant_columns``) map to zero in both modes.  A varying column
    whose shift or scale leaves the double range (a range or a sum of
    squares past 1.8e308, or a sum of squares that underflows to 0) is
    rejected by its 1-based position.
    """
    values = np.array(values, dtype=float)
    if mode == "none":
        return values
    with np.errstate(over="ignore"):
        if mode == "zscore":
            shift, scale = values.mean(axis=0), values.std(axis=0)
        elif mode == "minmax":
            shift, scale = values.min(axis=0), np.ptp(values, axis=0)
        else:
            raise ConfigError(f"unknown normalization mode {mode!r}")
    constant = constant_columns(values)
    bad = ~constant & ~(np.isfinite(shift) & np.isfinite(scale) & (scale > 0.0))
    if bad.any():
        raise ConfigError(
            f"cannot {mode}-normalize feature column(s) "
            f"{(np.flatnonzero(bad) + 1).tolist()}: shift or scale outside "
            f"the double range"
        )
    out = (values - shift) / np.where(constant, 1.0, scale)
    out[:, constant] = 0.0
    return out


def make_dataset(
    features: Sequence[Sequence[float]] | np.ndarray,
    target: Sequence[float] | np.ndarray,
    labels: Sequence[str] | None = None,
    target_label: str = "target",
    normalize: str = "none",
) -> Dataset:
    """Convenience constructor with optional normalization and default labels."""
    features = normalize_columns(np.asarray(features, dtype=float), normalize)
    if labels is None:
        labels = tuple(f"x{k}" for k in range(1, features.shape[1] + 1))
    return Dataset(features, np.asarray(target, dtype=float), tuple(labels),
                   target_label)
