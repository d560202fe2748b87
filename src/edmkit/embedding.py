"""Delay-coordinate state-space reconstruction and neighbour search.

A scalar series ``x`` with dimension ``E`` and delay ``tau`` is unfolded into
vectors ``<x(t), x(t - tau), ..., x(t - (E-1) tau)>``; multivariate layouts
concatenate the lag blocks of several series in a declared column order.
Faithful reconstruction classically requires the dimension to exceed twice
the (unobservable) attractor dimension, so that condition is documented here
rather than enforced; in practice the dimension is chosen by forecast skill.

Simplex projection, the S-map and cross mapping share one neighbour core.
``_distance_rows`` measures Euclidean or Manhattan distances from a block of
queries to the library.  A point is a candidate for a query when their time
gap exceeds a floor (``_floor``): ``r`` for an exclusion radius ``r > 0``,
which suppresses autocorrelation shortcuts; for radius 0, -1 (every point,
an exact self-match included) or 0 under cross mapping's leave-one-out.
``_candidates`` applies the rule as a mask, ``_prefix_limits`` as a prefix
length for a library of earlier times only.  ``_nearest`` keeps the ``k``
nearest candidates by (distance, time), exactly as a stable sort of all
distances orders them: ``_smallest_k`` sorts rows narrower than
``_PARTITION_WIDTH`` in full and partitions wider ones at the k-th smallest
value, keeping every value below it and the earliest values equal to it, so
only ``k`` survivors are sorted.  Kernel sums are ``timeseries._row_dot``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .timeseries import Dataset, TimeSeries

__all__ = [
    "EmbeddingError",
    "NeighborShortfallError",
    "EmbeddingSpec",
    "EmbeddingLibrary",
    "NeighborSet",
    "delay_embed",
    "multivariate_embed",
    "state_vector",
    "knn",
]


class EmbeddingError(RuntimeError):
    """The data cannot support the requested embedding."""


class NeighborShortfallError(RuntimeError):
    """Fewer admissible neighbours than the query requires."""


@dataclass(frozen=True)
class EmbeddingSpec:
    """Layout of a delay-coordinate embedding.

    Parameters
    ----------
    columns : ordered (series name, lag count) pairs
        Each pair contributes the block ``s(t), s(t-tau), ...`` to the
        vector; the total coordinate count is the embedding dimension.
    tau : int
        Delay between lags, in whole years.  Fractional delays are rejected.
    exclusion_radius : int or None
        Temporal exclusion window for neighbour search.  None means the
        default ``dimension * tau``; 0 disables exclusion.
    normalize : bool
        When True each series is z-scored (over its full extent) before
        coordinates are formed, so distances mix series of very different
        magnitudes evenly.  Default False: raw coordinates.
    """

    columns: tuple[tuple[str, int], ...]
    tau: int = 1
    exclusion_radius: int | None = None
    normalize: bool = False

    def __post_init__(self) -> None:
        cols = tuple((str(name), int(lags)) for name, lags in self.columns)
        if not cols:
            raise ValueError("embedding needs at least one (series, lags) column")
        for name, lags in cols:
            if lags < 1:
                raise ValueError(f"lag count for {name!r} must be >= 1, got {lags}")
        names = [name for name, _ in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"series may appear only once in an embedding: {names}")
        if not (self.tau >= 1 and self.tau % 1 == 0):  # also NaN, and ints beyond float
            raise ValueError(f"tau must be a whole positive number of years, got {self.tau}")
        if self.exclusion_radius is not None and int(self.exclusion_radius) < 0:
            raise ValueError(f"exclusion radius must be >= 0, got {self.exclusion_radius}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "tau", int(self.tau))
        if self.exclusion_radius is not None:
            object.__setattr__(self, "exclusion_radius", int(self.exclusion_radius))

    @staticmethod
    def univariate(name: str, dimension: int, tau: int = 1,
                   exclusion_radius: int | None = None,
                   normalize: bool = False) -> "EmbeddingSpec":
        if dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {dimension}")
        return EmbeddingSpec(((name, int(dimension)),), tau, exclusion_radius, normalize)

    @property
    def dimension(self) -> int:
        """Total coordinate count."""
        return sum(lags for _, lags in self.columns)

    @property
    def radius(self) -> int:
        """Effective exclusion radius (defaults to dimension * tau)."""
        if self.exclusion_radius is None:
            return self.dimension * self.tau
        return self.exclusion_radius

    @property
    def max_offset(self) -> int:
        """Largest backward index offset any coordinate reaches."""
        return max((lags - 1) * self.tau for _, lags in self.columns)

    def coordinate_labels(self) -> tuple[str, ...]:
        labels = []
        for name, lags in self.columns:
            for j in range(lags):
                labels.append(f"{name}(t)" if j == 0 else f"{name}(t-{j * self.tau})")
        return tuple(labels)


@dataclass(frozen=True)
class EmbeddingLibrary:
    """Delay vectors with their head times and forward targets.

    ``vectors[i]`` is the state at ``times[i]`` and ``targets[i]`` is the
    value of the target series at ``times[i] + tp``.  Every embedding builds
    its library in ascending time order, which the forecasting protocol
    relies on; ``knn`` accepts any order.  ``norms`` records any per-series
    (mean, std) applied to the coordinates so queries can be transformed
    identically.
    """

    spec: EmbeddingSpec
    target_name: str
    tp: int
    times: np.ndarray
    vectors: np.ndarray
    targets: np.ndarray
    norms: tuple[tuple[str, float, float], ...] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=int)
        vectors = np.asarray(self.vectors, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.spec.dimension:
            raise ValueError(f"vectors must be (n, {self.spec.dimension}), got {vectors.shape}")
        if times.shape != (vectors.shape[0],) or targets.shape != times.shape:
            raise ValueError("times, vectors, and targets must have matching lengths")
        for arr in (times, vectors, targets):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "targets", targets)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def target_times(self) -> np.ndarray:
        return self.times + self.tp

    def targets_through(self, last_target_year: int) -> "EmbeddingLibrary":
        """The sub-library whose targets fall at or before the given year."""
        count = int(np.searchsorted(self.times, last_target_year - self.tp, side="right"))
        return EmbeddingLibrary(
            spec=self.spec,
            target_name=self.target_name,
            tp=self.tp,
            times=self.times[:count],
            vectors=self.vectors[:count],
            targets=self.targets[:count],
            norms=self.norms,
        )


@dataclass(frozen=True)
class NeighborSet:
    """Library row indices and distances, ascending by (distance, time)."""

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=int)
        distances = np.asarray(self.distances, dtype=float)
        if indices.shape != distances.shape or indices.ndim != 1:
            raise ValueError("indices and distances must be matching 1-D arrays")
        for arr in (indices, distances):
            arr.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "distances", distances)

    def __len__(self) -> int:
        return self.indices.shape[0]


def _resolve_norms(data: Dataset, spec: EmbeddingSpec) -> tuple[tuple[str, float, float], ...] | None:
    if not spec.normalize:
        return None
    norms = []
    for name, _ in spec.columns:
        values = data[name].to_array()
        std = float(values.std())
        norms.append((name, float(values.mean()), std if std > 0.0 else 1.0))
    return tuple(norms)


def _layout(spec: EmbeddingSpec, norms: tuple[tuple[str, float, float], ...] | None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where each coordinate of a delay vector comes from, for ``_gather``.

    Returns ``(rows, cols, centre, scale)``: coordinate j of the state at row
    h of a (time, series) matrix whose columns follow the spec's order is
    ``(values[h - rows[j], cols[j]] - centre[j]) / scale[j]``.  A series
    without a norm keeps centre 0 and scale 1, which leave it unchanged.
    """
    shift = {name: (mean, std) for name, mean, std in norms or ()}
    coordinates = [(j * spec.tau, col, *shift.get(name, (0.0, 1.0)))
                   for col, (name, lags) in enumerate(spec.columns) for j in range(lags)]
    return tuple(np.array(part) for part in zip(*coordinates))


def _gather(values: np.ndarray, heads, layout) -> np.ndarray:
    """The delay vectors at the given head rows (one vector for a scalar head)."""
    rows, cols, centre, scale = layout
    return (values[np.asarray(heads)[..., None] - rows, cols] - centre) / scale


def _columns(data: Dataset, spec: EmbeddingSpec) -> np.ndarray:
    return np.column_stack([data[name].to_array() for name, _ in spec.columns])


def multivariate_embed(data: Dataset, spec: EmbeddingSpec, target: str, tp: int = 1,
                       norms: tuple[tuple[str, float, float], ...] | None = None,
                       ) -> EmbeddingLibrary:
    """Embed several series jointly; column blocks follow the spec's order.

    The target column supplies the forward value at ``t + tp``.  Every
    coordinate and every target must exist in the data; there is no padding.
    Pass ``norms`` to reuse a transform computed elsewhere (otherwise it is
    derived from this dataset when the spec asks for normalization).
    """
    if tp < 0:
        raise ValueError(f"prediction horizon must be >= 0, got {tp}")
    if target not in data:
        raise ValueError(f"unknown target series {target!r}; have {list(data.names)}")
    for name, _ in spec.columns:
        if name not in data:
            raise ValueError(f"unknown series {name!r} in embedding; have {list(data.names)}")

    first_idx = spec.max_offset
    last_idx = data.n_years - 1 - tp
    if last_idx < first_idx:
        raise EmbeddingError(
            f"series of length {data.n_years} too short for embedding "
            f"(needs more than {spec.max_offset + tp} points)"
        )
    if norms is None:
        norms = _resolve_norms(data, spec)

    head = np.arange(first_idx, last_idx + 1)
    vectors = _gather(_columns(data, spec), head, _layout(spec, norms))
    targets = data[target].to_array()[head + tp]
    times = data.start_year + head
    return EmbeddingLibrary(spec, target, tp, times, vectors, targets, norms)


def delay_embed(series: TimeSeries, spec: EmbeddingSpec, tp: int = 1) -> EmbeddingLibrary:
    """Embed a single series; the spec must name exactly that series."""
    if len(spec.columns) != 1 or spec.columns[0][0] != series.name:
        raise ValueError(
            f"delay_embed needs a univariate spec for {series.name!r}, got {spec.columns}"
        )
    return multivariate_embed(Dataset((series,)), spec, series.name, tp)


def _check_state_time(data: Dataset, spec: EmbeddingSpec, time_index: int) -> None:
    """Raise EmbeddingError unless the data cover the state at time_index."""
    if time_index - spec.max_offset < data.start_year or time_index > data.end_year:
        raise EmbeddingError(
            f"cannot form a state vector at {time_index}: needs data on "
            f"{time_index - spec.max_offset}..{time_index}, have "
            f"{data.start_year}..{data.end_year}"
        )


def state_vector(data: Dataset, spec: EmbeddingSpec, time_index: int,
                 norms: tuple[tuple[str, float, float], ...] | None = None) -> np.ndarray:
    """The delay vector at a single time, for use as a query point."""
    if norms is None:
        norms = _resolve_norms(data, spec)
    _check_state_time(data, spec, time_index)
    return _gather(_columns(data, spec), time_index - data.start_year, _layout(spec, norms))


def _distance_rows(vectors: np.ndarray, queries: np.ndarray, metric: str) -> np.ndarray:
    """The (queries x rows) distances from each query to each row of ``vectors``.

    Manhattan sums each difference row whole: summing one coordinate at a
    time rounds differently from E = 8 on, where numpy sums pairwise.
    """
    diffs = vectors - queries[:, None]
    if metric == "euclidean":
        return np.sqrt(np.einsum("qij,qij->qi", diffs, diffs))
    if metric == "manhattan":
        return np.abs(diffs).sum(axis=-1)
    raise ValueError(f"unknown metric {metric!r}; use 'euclidean' or 'manhattan'")


#: Row width from which ``_smallest_k`` partitions instead of sorting the
#: whole row; below it the full stable sort is the faster of the two.
_PARTITION_WIDTH = 1000


def _smallest_k(masked: np.ndarray, k: int) -> np.ndarray:
    """Columns of the ``k`` smallest values of each row, by (value, column).

    The result equals ``np.argsort(masked, axis=1, kind="stable")[:, :k]``,
    so ties go to the earlier column; ``k`` must not exceed the row width.
    """
    if masked.shape[1] < _PARTITION_WIDTH:
        return np.argsort(masked, axis=1, kind="stable")[:, :k]
    kth = np.partition(masked, k - 1, axis=1)[:, k - 1:k]
    if np.isnan(kth).any():  # NaN sorts last and equals nothing; leave it to the sort
        return np.argsort(masked, axis=1, kind="stable")[:, :k]
    keep = masked <= kth
    if np.count_nonzero(keep) > masked.shape[0] * k:
        # a row holds more values equal to its k-th than places remain after
        # the smaller ones: keep the earliest of those ties
        ties = masked == kth
        room = k - np.count_nonzero(masked < kth, axis=1)[:, None]
        keep &= ~ties | (np.cumsum(ties, axis=1) <= room)
    rows = np.arange(masked.shape[0])[:, None]
    columns = np.nonzero(keep)[1].reshape(masked.shape[0], k)
    return columns[rows, np.argsort(masked[rows, columns], axis=1, kind="stable")]


def _check_radius(exclusion_radius) -> int:
    """An exclusion radius passed per call, as an int; negative ones are rejected by name."""
    if exclusion_radius < 0:
        raise ValueError(f"exclusion_radius must be >= 0, got {exclusion_radius}")
    return int(exclusion_radius)


def _floor(radius: int, leave_one_out: bool = False) -> int:
    """The candidacy floor of the module docstring: r > 0 gives r, 0 gives -1 or 0 (leave-one-out)."""
    if radius > 0:
        return radius
    return 0 if leave_one_out else -1


def _candidates(times: np.ndarray, query_times, floor: int) -> np.ndarray:
    """Candidacy of each library time (last axis) for each query time, under ``floor``."""
    return np.abs(times - np.asarray(query_times)[..., None]) > floor


def _prefix_limits(times: np.ndarray, query_times: np.ndarray, radius: int) -> np.ndarray:
    """How many leading rows of ascending ``times`` lie more than ``radius`` before each query.

    Query times ascend too.  No row lies further back than the last query's
    offset from ``times[0]``; capped there, a radius beyond int64 subtracts
    without overflow.
    """
    reach = min(radius, int(query_times[-1]) - int(times[0]))
    return np.searchsorted(times, query_times - reach)


def _nearest(distances: np.ndarray, keep: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of each row's ``k`` nearest kept distances, by (distance, column), and those."""
    masked = np.where(keep, distances, np.inf)
    chosen = _smallest_k(masked, k)
    return chosen, np.take_along_axis(masked, chosen, axis=1)


def _shortfall(k: int, admissible: int, size: int, radius: int) -> NeighborShortfallError:
    return NeighborShortfallError(
        f"need k={k} neighbours but only {admissible} admissible "
        f"points remain (library size {size}, exclusion radius {radius})"
    )


def knn(library: EmbeddingLibrary, query: tuple[int, Sequence[float]], k: int,
        metric: str = "euclidean", exclusion_radius: int | None = None) -> NeighborSet:
    """The k nearest library points to a query, after temporal exclusion.

    Parameters
    ----------
    query : (time_index, vector)
        The query's own time index drives the exclusion window.
    exclusion_radius : optional override of the library spec's radius
        (library subsampling schemes need radius 0 regardless of the spec).

    Raises NeighborShortfallError, naming the shortfall, when fewer than
    ``k`` admissible candidates remain.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_time, query_vector = query
    radius = library.spec.radius if exclusion_radius is None else _check_radius(exclusion_radius)
    dists = _distance_rows(library.vectors, np.asarray(query_vector, dtype=float)[None], metric)[0]
    candidates = np.flatnonzero(_candidates(library.times, query_time, _floor(radius)))
    if candidates.shape[0] < k:
        raise _shortfall(k, candidates.shape[0], len(library), radius)
    times = library.times
    if (times[1:] < times[:-1]).any():  # a library built by hand need not ascend in time
        candidates = candidates[np.argsort(times[candidates], kind="stable")]
    # in time order, the stable selection breaks distance ties toward the earlier time
    chosen = candidates[_smallest_k(dists[candidates][None, :], k)[0]]
    return NeighborSet(indices=chosen, distances=dists[chosen])
