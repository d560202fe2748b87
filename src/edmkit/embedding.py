"""Delay-coordinate state-space reconstruction and neighbour search.

A scalar series ``x`` with dimension ``E`` and delay ``tau`` is unfolded into
vectors ``<x(t), x(t - tau), ..., x(t - (E-1) tau)>``; multivariate layouts
concatenate the lag blocks of several series in a declared column order.
Every caller counts a record's states with ``_embeddable``: ``length -
max_offset - tp`` of them, where ``tp`` is how far ahead each state's
target lies, and an ``EmbeddingError`` (a ``ValueError``) when none is
left.  Faithful reconstruction classically requires the dimension to
exceed twice the (unobservable) attractor dimension, so that condition is
documented here rather than enforced; in practice the dimension is chosen
by forecast skill.

Simplex projection, the S-map and cross mapping share one neighbour core.
``_distance_rows`` returns Euclidean or Manhattan distances from a block of
queries to the library as a new array, adding one coordinate plane at a
time in coordinate order for both metrics and every dimension.
One-step forecasting and cross mapping size their query blocks by one
rule, ``_block_rows``: as many rows as keep rows x library states x
dimension within ``_BLOCK_ELEMENTS`` coordinate differences, at least one.
Every state and query coordinate lies within +-1e100 where it enters
(``timeseries._BOUND``; ``EmbeddingLibrary``, ``_candidate_rows`` and the
iterative loop, ``forecast._lockstep``, name any other value), so no
distance among them overflows or is NaN.  A point is a candidate for a
query when their time gap exceeds a floor (``_floor``): ``r`` for an
exclusion radius ``r > 0``, which suppresses autocorrelation shortcuts; for
radius 0, -1 (every point, an exact self-match included) or 0 under cross
mapping's leave-one-out.
``_candidates`` applies the rule as a mask, ``_candidate_rows`` as one
query's candidate rows in ascending time (the one road of ``knn``,
``simplex_predict`` and ``smap_predict``), and ``_exclude_band`` as inf
written in place into a block of distances among consecutive times.
``_check_admissible`` names a shortfall wherever a forecast library is cut.
``_nearest`` has one input, distances in which every non-candidate already
holds inf, and keeps the ``k`` nearest by (distance, column), exactly as a
stable sort of the row orders them; cross mapping ranks each row once in
that order.  ``_smallest_k`` has one selection rule: it sorts a row whole
only when it must order the whole row, and otherwise partitions it at the
k-th smallest value, keeping every value below it and the earliest values
equal to it, whose columns one flat index pass finds, so only ``k``
survivors are sorted.  Kernel sums are ``timeseries._row_dot``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .timeseries import Dataset, TimeSeries, _flag, _frozen, _refused, _whole_number, _within

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


class EmbeddingError(ValueError):
    """The data cannot support the requested embedding: an input error."""


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
        cols = tuple((str(name), _whole_number(f"lag count for {name!r}", lags))
                     for name, lags in self.columns)
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
        radius = _whole_number("exclusion_radius", self.exclusion_radius)
        if radius is not None and radius < 0:
            raise ValueError(f"exclusion radius must be >= 0, got {self.exclusion_radius}")
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "tau", int(self.tau))
        object.__setattr__(self, "exclusion_radius", radius)
        object.__setattr__(self, "normalize", _flag("normalize", self.normalize))

    @staticmethod
    def univariate(name: str, dimension: int, tau: int = 1,
                   exclusion_radius: int | None = None,
                   normalize: bool = False) -> "EmbeddingSpec":
        if dimension < 1:
            raise ValueError(f"embedding dimension must be >= 1, got {dimension}")
        return EmbeddingSpec(((name, _whole_number("dimension", dimension)),), tau,
                             exclusion_radius, normalize)

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
    relies on; single queries take any order.  ``norms`` records any per-series
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
        for name, dtype in (("times", int), ("vectors", float), ("targets", float)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        times, vectors = self.times, self.vectors
        if vectors.ndim != 2 or vectors.shape[1] != self.spec.dimension:
            raise ValueError(f"vectors must be (n, {self.spec.dimension}), got {vectors.shape}")
        if times.shape != (vectors.shape[0],) or self.targets.shape != times.shape:
            raise ValueError("times, vectors, and targets must have matching lengths")
        bad = np.argwhere(~_within(vectors))
        if bad.size:
            row, c = bad[0]
            raise ValueError(f"library state at {int(times[row])} has a "
                             f"{_refused(vectors[row, c])} in coordinate "
                             f"{self.spec.coordinate_labels()[c]!r}")
        bad = np.flatnonzero(~_within(self.targets))
        if bad.size:
            raise ValueError(f"library target {self.target_name!r} has a "
                             f"{_refused(self.targets[bad[0]])} for the state at "
                             f"{int(times[bad[0]])}")

    def __len__(self) -> int:
        return self.times.shape[0]

    def targets_through(self, last_target_year: int) -> "EmbeddingLibrary":
        """The sub-library whose targets fall at or before the given year, in storage order."""
        keep = self.times <= last_target_year - self.tp
        return replace(self, times=self.times[keep], vectors=self.vectors[keep],
                       targets=self.targets[keep])


@dataclass(frozen=True)
class NeighborSet:
    """Library row indices and distances, ascending by (distance, time)."""

    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", _frozen(self.indices, int))
        object.__setattr__(self, "distances", _frozen(self.distances))
        if self.indices.shape != self.distances.shape or self.indices.ndim != 1:
            raise ValueError("indices and distances must be matching 1-D arrays")

    def __len__(self) -> int:
        return self.indices.shape[0]


def _resolve_norms(data: Dataset, spec: EmbeddingSpec) -> tuple[tuple[str, float, float], ...] | None:
    if not spec.normalize:
        return None
    norms = []
    for name, _ in spec.columns:
        values = data[name].to_array()
        mean, std = float(values.mean()), float(values.std())
        norms.append((name, mean, std if std > 0.0 else 1.0))
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


def _embeddable(length: int, spec: EmbeddingSpec, tp: int = 0) -> int:
    """How many states ``length`` values hold, each with a value ``tp`` ahead; an error if none."""
    count = length - spec.max_offset - tp
    if count < 1:
        raise EmbeddingError(f"series of length {length} too short for embedding "
                             f"(needs more than {spec.max_offset + tp} points)")
    return count


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

    count = _embeddable(data.n_years, spec, tp)
    if norms is None:
        norms = _resolve_norms(data, spec)

    head = np.arange(spec.max_offset, spec.max_offset + count)
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


#: Most coordinate differences one block of queries may hold (query rows x
#: library rows x dimension); its distances and the scratch plane of
#: ``_distance_rows`` each hold 1/dimension of that.
_BLOCK_ELEMENTS = 1 << 16


def _block_rows(rows: int, dimension: int) -> int:
    """Query rows per block against ``rows`` states: within ``_BLOCK_ELEMENTS``, at least one."""
    return max(1, _BLOCK_ELEMENTS // (rows * dimension))


def _distance_rows(vectors: np.ndarray, queries: np.ndarray, metric: str) -> np.ndarray:
    """The (queries x rows) distances from each query to each row of ``vectors``.

    The first coordinate plane, ``|v[..., 0] - q[:, 0]|`` or its square,
    starts a new result, each later plane is added in coordinate order
    through one scratch plane, and Euclidean takes the square root in place
    at the end.  ``vectors`` may carry a leading query axis, one library per
    query.
    """
    _check_metric(metric)
    term = np.abs if metric == "manhattan" else np.square
    out = np.subtract(vectors[..., 0], queries[:, :1])
    term(out, out=out)
    plane = np.empty_like(out)
    for c in range(1, vectors.shape[-1]):
        out += term(np.subtract(vectors[..., c], queries[:, c:c + 1], out=plane), out=plane)
    return np.sqrt(out, out=out) if metric == "euclidean" else out


def _check_metric(metric: str) -> None:
    if metric not in ("euclidean", "manhattan"):
        raise ValueError(f"unknown metric {metric!r}; use 'euclidean' or 'manhattan'")


def _smallest_k(masked: np.ndarray, k: int) -> np.ndarray:
    """Columns of the ``k`` smallest values of each row, by (value, column).

    The result equals ``np.argsort(masked, axis=1, kind="stable")[:, :k]``,
    so ties go to the earlier column; ``k`` must not exceed the row width.
    A row is sorted whole only when ``k`` is its width; otherwise it is
    partitioned at its k-th value and only its ``k`` survivors are sorted.
    """
    if k == masked.shape[1]:  # the whole order: nothing to partition off
        return np.argsort(masked, axis=1, kind="stable")
    kth = np.partition(masked, k - 1, axis=1)[:, k - 1:k]
    keep = masked <= kth
    if np.count_nonzero(keep) > masked.shape[0] * k:
        # a row holds more values equal to its k-th than places remain after
        # the smaller ones: keep the earliest of those ties
        ties = masked == kth
        room = k - np.count_nonzero(masked < kth, axis=1)[:, None]
        keep &= ~ties | (np.cumsum(ties, axis=1) <= room)
    rows = np.arange(masked.shape[0])[:, None]
    columns = (np.flatnonzero(keep) % masked.shape[1]).reshape(masked.shape[0], k)
    return columns[rows, np.argsort(masked[rows, columns], axis=1, kind="stable")]


def _check_radius(exclusion_radius) -> int:
    """An exclusion radius passed per call, as an int; a fraction or a negative is named."""
    radius = _whole_number("exclusion_radius", exclusion_radius)
    if radius < 0:
        raise ValueError(f"exclusion_radius must be >= 0, got {exclusion_radius}")
    return radius


def _floor(radius: int, leave_one_out: bool = False) -> int:
    """The candidacy floor of the module docstring: r > 0 gives r, 0 gives -1 or 0 (leave-one-out)."""
    if radius > 0:
        return radius
    return 0 if leave_one_out else -1


def _candidates(times: np.ndarray, query_times, floor: int) -> np.ndarray:
    """Candidacy of each library time (last axis) for each query time, under ``floor``."""
    return np.abs(times - np.asarray(query_times)[..., None]) > floor


def _exclude_band(block: np.ndarray, first: int, floor: int) -> None:
    """Write inf, in place, where ``_candidates`` is False for a block of query rows.

    Row i of ``block`` holds the distances from library row ``first + i`` to
    every library row, and library times are consecutive, so the columns
    that are no candidates are those within ``floor`` of ``first + i``.
    """
    if floor < 0:
        return
    for i, row in enumerate(block, start=first):
        row[max(i - floor, 0):i + floor + 1] = np.inf


def _check_admissible(need: tuple[int, str], admissible: int, size: int, radius: int) -> None:
    """Raise if fewer than ``need[0]`` rows are admissible; ``need[1]`` words the need."""
    if admissible < need[0]:
        raise NeighborShortfallError(f"need {need[1]} but only {admissible} admissible points "
                                     f"remain (library size {size}, exclusion radius {radius})")


def _candidate_rows(library: EmbeddingLibrary, query: tuple[int, Sequence[float]],
                    need: tuple[int, str], exclusion_radius: int | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """One query's checked vector and its candidate rows in ascending time, at least ``need[0]``."""
    radius = library.spec.radius if exclusion_radius is None else _check_radius(exclusion_radius)
    vector = np.asarray(query[1], dtype=float)
    if vector.shape != (library.spec.dimension,):
        raise ValueError(f"query vector has shape {vector.shape}, the library's states have "
                         f"{library.spec.dimension} coordinates")
    bad = vector[~_within(vector)]
    if bad.size:
        raise ValueError(f"query vector has a {_refused(bad[0], 'coordinate')}")
    times = library.times
    rows = np.flatnonzero(_candidates(times, query[0], _floor(radius)))
    if (times[1:] < times[:-1]).any():  # a library built by hand need not ascend in time
        rows = rows[np.argsort(times[rows], kind="stable")]
    _check_admissible(need, rows.size, len(library), radius)
    return vector, rows


def _nearest(distances: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns of each row's ``k`` nearest distances, by (distance, column), and those.

    Every column that is no candidate must already hold inf.
    """
    chosen = _smallest_k(distances, k)
    return chosen, np.take_along_axis(distances, chosen, axis=1)


def knn(library: EmbeddingLibrary, query: tuple[int, Sequence[float]], k: int,
        metric: str = "euclidean", exclusion_radius: int | None = None) -> NeighborSet:
    """The k nearest library points to a query, after temporal exclusion.

    Parameters
    ----------
    query : (time_index, vector)
        The query's own time index drives the exclusion window.
    exclusion_radius : optional override of the library spec's radius.

    Raises NeighborShortfallError, naming the shortfall, when fewer than
    ``k`` admissible candidates remain.
    """
    k = _whole_number("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_metric(metric)
    vector, rows = _candidate_rows(library, query, (k, f"k={k} neighbours"), exclusion_radius)
    distances = _distance_rows(library.vectors[rows], vector[None], metric)
    # rows ascend in time, so the stable selection breaks distance ties toward the earlier time
    columns, nearest = _nearest(distances, k)
    return NeighborSet(indices=rows[columns[0]], distances=nearest[0])
