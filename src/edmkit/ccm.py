"""Convergent cross mapping: causality detection via cross-map skill.

To test whether series A drives series B, the *effect* series B is delay
embedded and each of its manifold states estimates the contemporaneous value
of A as the kernel-weighted average of A at the nearest neighbour times
(Manhattan distance, ``dimension + 1`` neighbours, weights
``exp(-d_j / d_1)``; when ``d_1 = 0`` the zero-distance neighbours share the
whole weight, unlike simplex, which keeps the others in the average).  If A truly forces B, then B's history carries A's
signature, and the Pearson correlation between estimated and actual A rises
toward a positive plateau as the library grows.  Sweeping the library size
with seeded random subsamples produces that convergence curve for both
directions at once.

By default each query's own time index is left out of the neighbour pool,
otherwise every in-library query would trivially reconstruct itself and the
null behaviour of unrelated series would be destroyed.  The degenerate
self-mapping identity (a manifold predicting its own observable exactly) is
still available by disabling leave-one-out.

Every (size, sample j) cell draws its library from the stream of
``default_rng((seed, size, j))``, so sweep results do not depend on the order
cells are evaluated in.  The draws depend only on the config's value and the
record length, so the module keeps its last grid, keyed by both: one
``lru_cache`` entry of read-only arrays.
One driver serves a single cross map and a whole sweep direction: its query
rows are walked once, in blocks whose distances serve every cell.  A block is
one (rows x n) array of Manhattan distances (see
``embedding._distance_rows``), into which each query's exclusion window is
written as inf, so a column that is no candidate sorts after every
candidate; only the columns some cell uses are kept.  Each block row is
sorted once by (distance, column) with ``embedding._smallest_k``, and an
int32 array holds every column's place in that order.  A cell's neighbours
for a row are the columns of the k smallest ranks among its library, found
by sorting those ranks, so they come in the order a stable sort of the
cell's own distances gives them, and a column drawn twice stays beside its
twin.  Blocks hold ``embedding._block_rows`` query rows, and the samples
of one library size are ranked together, in batches that gather no more
ranks than a block holds coordinate differences (``step x n x dimension``),
so a short record ranks a size in one or two batches.  A cell that holds
each column exactly once (the whole library, or the one cell of a
subsampled cross map) needs no ranks: its neighbours are the first k
places of the order, and when every cell is like that each row's order
stops at k columns and no ranks are built.  Every cell is read through
one gather: a batch reads its neighbours' distances and values by flat
offset (its places plus each row's start), one ``np.take`` each.  A row
whose k-th gathered distance is inf keeps too few admissible neighbours: its
batch is not estimated, and the lowest such cell's first such row is named.
One row-wise Pearson correlation then scores every cell.  Memory is
O(block x n + cells x n), never n x n.
CCM runs single-threaded: the ``threads`` argument of ``convergence_sweep``
is accepted and ignored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .embedding import (EmbeddingLibrary, EmbeddingSpec, _block_rows, _check_radius,
                        _distance_rows, _embeddable, _exclude_band, _floor,
                        _smallest_k, multivariate_embed)
from .timeseries import (Dataset, TimeSeries, _cell, _flag, _frozen, _jsonable,
                         _require_finite, _rho_rows, _row_dot, _whole_number, _write_csv,
                         _write_json)

__all__ = [
    "CcmConfig",
    "CcmDirection",
    "CcmResult",
    "cross_map",
    "convergence_sweep",
]


@dataclass(frozen=True)
class CcmConfig:
    """Sweep settings for convergent cross mapping.

    ``library_sizes`` must be increasing, at least ``dimension + 2`` each,
    and no larger than the number of embeddable points.  ``method`` selects
    random-index subsampling (default) or contiguous blocks.

    Cell ``(size, j)`` draws its library from ``default_rng((seed, size, j))``.
    """

    dimension: int
    library_sizes: tuple[int, ...]
    tau: int = 1
    samples_per_size: int = 20
    seed: int = 0
    replacement: bool = False
    method: str = "random"
    exclusion_radius: int = 0
    convergence_margin: float = 0.05
    plateau_tolerance: float = 0.02

    def __post_init__(self) -> None:
        _require_finite(convergence_margin=self.convergence_margin,
                        plateau_tolerance=self.plateau_tolerance)
        for name in ("dimension", "tau", "samples_per_size", "seed"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        sizes = tuple(_whole_number("library_sizes", s) for s in self.library_sizes)
        if not sizes:
            raise ValueError("library_sizes is empty")
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"library_sizes must be strictly increasing: {sizes}")
        if sizes[0] < self.dimension + 2:
            raise ValueError(
                f"smallest library size {sizes[0]} below dimension+2 = {self.dimension + 2}"
            )
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be >= 1")
        if self.seed < 0:  # numpy seeds with the seed's unsigned 32-bit words
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "replacement", _flag("replacement", self.replacement))
        object.__setattr__(self, "exclusion_radius", _check_radius(self.exclusion_radius))
        if self.method not in ("random", "contiguous"):
            raise ValueError(f"unknown subsampling method {self.method!r}")
        object.__setattr__(self, "library_sizes", sizes)


def _check_aligned(cause: TimeSeries, effect: TimeSeries) -> None:
    if cause.start_year != effect.start_year or len(cause) != len(effect):
        raise ValueError(
            f"series must be aligned: {cause.name!r} {cause.start_year}..{cause.end_year}, "
            f"{effect.name!r} {effect.start_year}..{effect.end_year}"
        )
    if cause.name == effect.name and cause != effect:  # ``_embed`` reads the cause by name
        raise ValueError(f"two different series share the name {cause.name!r}; "
                         f"cross mapping needs distinct names")


def _embed(cause: TimeSeries, effect: TimeSeries, dimension: int, tau: int) -> EmbeddingLibrary:
    """The effect's delay vectors, each paired with the contemporaneous cause value."""
    spec = EmbeddingSpec.univariate(effect.name, dimension, tau, exclusion_radius=0)
    members = (effect,) if cause.name == effect.name else (effect, cause)
    return multivariate_embed(Dataset(members), spec, cause.name, tp=0)


def _estimates(distances: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Kernel estimates from each row's ``k`` nearest distances, ascending, and their values.

    Both are (rows x k) and the result has one estimate per row.
    """
    nearest = distances[:, :1]
    exact = nearest == 0.0
    weights = np.where(exact, distances == 0.0,
                       np.exp(-distances / np.where(exact, 1.0, nearest)))
    weights /= weights.sum(axis=1, keepdims=True)
    return _row_dot(weights, values)


def _select(rank: np.ndarray, batch: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` smallest ranks among each cell's library columns, for every query row.

    ``rank`` is (rows x columns) and ``batch`` (cells x size); the result is
    (rows x cells x k).  A column drawn twice keeps both copies, side by side.
    """
    ranks = np.take(rank, batch, axis=1)
    ranks.sort(axis=-1)
    return ranks[..., :k]


def _cross_map_cells(library: EmbeddingLibrary, groups: list[np.ndarray], exclusion_radius: int,
                     leave_one_out: bool = True,
                     estimates: np.ndarray | None = None) -> np.ndarray:
    """Cross-map skill of each cell, a sorted row of library indices.

    ``groups`` holds one (cells x size) array per library size; the result
    has one skill per cell, in group order.  Every embeddable state is a
    query, estimated from the ``dimension + 1`` nearest admissible points of
    the cell's library in the row blocks and size batches of the module
    docstring.  Every cell is read through one flat-offset gather and one
    ``_estimates`` call: a cell holding each used column once takes the
    first k places of the order, any other the k smallest ranks of
    ``_select``.  The estimates fill ``estimates`` when given, else a new
    (cells x n) array.  A ValueError names the first query of the lowest
    cell that keeps fewer than ``dimension + 1`` admissible neighbours (a
    column drawn twice counts twice).
    """
    vectors, targets = library.vectors, library.targets
    n, dimension = vectors.shape
    k = dimension + 1
    floor = min(_floor(exclusion_radius, leave_one_out), n)  # no gap reaches n; int64 holds n

    step = _block_rows(n, dimension)
    budget = step * n * dimension  # a batch gathers no more ranks than a block's differences
    present = np.zeros(n, dtype=bool)
    for libraries in groups:
        present[libraries] = True
    used = np.flatnonzero(present)
    column = np.cumsum(present) - 1  # each library index's column among the used ones
    # (estimate rows, library columns); None for cells holding each used column
    # exactly once, whose neighbours are the first k places of the order
    batches = []
    first = 0
    for libraries in groups:
        count, size = libraries.shape
        cells = np.arange(first, first + count)
        first += count
        whole = (libraries == used).all(axis=1) if size == used.size else np.zeros(count, bool)
        if whole.any():
            batches.append((cells[whole], None))
        cells, libraries = cells[~whole], column[libraries[~whole]]
        per_batch = max(1, budget // (min(step, n) * size))
        for lo in range(0, cells.size, per_batch):
            batches.append((cells[lo:lo + per_batch], libraries[lo:lo + per_batch]))
    ranked = any(batch is not None for _, batch in batches)
    prefix = used.size if ranked else k  # ranks need every column's place

    if estimates is None:
        estimates = np.empty((first, n), dtype=float)
    values = targets[used]
    # each row's start in the flat near and picked; int32 like the ranks, since a
    # block holds fewer than max(n, embedding._BLOCK_ELEMENTS) distances
    offsets = np.arange(0, min(step, n) * prefix, prefix, dtype=np.int32)[:, None, None]
    leading = offsets + np.arange(k, dtype=np.int32)  # the first k places of each row
    shortfall = None  # (cell, row, admissible count) of the lowest cell found short
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = _distance_rows(vectors, vectors[start:stop], "manhattan")
        _exclude_band(block, start, floor)
        if used.size < n:
            block = np.take(block, used, axis=1)
        order = _smallest_k(block, prefix)
        if ranked:
            rank = np.empty(block.shape, dtype=np.int32)  # each column's place in its row's order
            rank[np.arange(stop - start)[:, None], order] = np.arange(used.size, dtype=np.int32)
        near, picked = np.take_along_axis(block, order, axis=1), values[order]
        starts, first_k = offsets[:stop - start], leading[:stop - start]
        for cells, batch in batches:
            flat = first_k if batch is None else _select(rank, batch, k) + starts
            distances = np.take(near, flat)  # (rows x cells x k); one column for whole cells
            short = distances[..., -1] == np.inf
            if short.any():
                at = int(np.argmax(short.any(axis=0)))  # cells ascend within a batch
                row = int(np.argmax(short[:, at]))
                found = (cells[at], start + row, int(np.isfinite(distances[row, at]).sum()))
                shortfall = found if shortfall is None else min(shortfall, found)
                continue
            estimates[cells, start:stop] = _estimates(
                distances.reshape(-1, k), np.take(picked, flat).reshape(-1, k)
            ).reshape(stop - start, -1).T
    if shortfall is not None:
        _, row, admissible = shortfall
        raise ValueError(f"cross-map query at {int(library.times[row])} has only {admissible} "
                         f"admissible neighbours, needs {k}")
    return _rho_rows(targets, estimates)


def cross_map(cause: TimeSeries, effect: TimeSeries, dimension: int, tau: int = 1,
              library_indices=None, exclusion_radius: int = 0,
              leave_one_out: bool = True) -> float:
    """Cross-map skill: how well the effect's manifold recovers the cause.

    The effect series is embedded with the given dimension and delay; for
    every reconstructable time, the cause value is estimated from the
    ``dimension + 1`` nearest manifold points drawn from ``library_indices``
    (all points when None).  Returns the Pearson correlation between
    estimates and actual cause values (the undefined-skill marker when the
    estimate has zero variance).

    An exact zero-distance match takes the whole kernel weight, which is the
    continuous limit of the exponential kernel; with ``leave_one_out`` off
    and a full library this makes a series reconstruct itself exactly.
    """
    _check_aligned(cause, effect)
    radius = _check_radius(exclusion_radius)
    library = _embed(cause, effect, dimension, tau)

    n = len(library)
    if library_indices is None:
        indices = np.arange(n)
    else:
        if np.asarray(library_indices).dtype == bool:  # a mask would be read as indices 0 and 1
            raise ValueError("library_indices is a boolean mask; pass the indices it selects, "
                             "np.flatnonzero(mask)")
        values = np.asarray(library_indices, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("library_indices must be a non-empty 1-D index collection")
        fractions = values[np.modf(values)[0] != 0.0]  # also NaN; ±inf is out of range
        if fractions.size:
            raise ValueError(f"library indices must be whole numbers, got {fractions[0]}")
        if values.min() < 0 or values.max() >= n:
            raise ValueError(f"library indices out of range 0..{n - 1}")
        indices = np.sort(values.astype(int))
    if indices.size < dimension + 2:
        raise ValueError(
            f"cross-map library needs at least dimension+2 = {dimension + 2} points, "
            f"have {indices.size}"
        )
    return float(_cross_map_cells(library, [indices[None]], radius, leave_one_out)[0])


@dataclass(frozen=True)
class CcmDirection:
    """One cross-map direction: rho versus library size, plus a verdict.

    ``samples[i, j]`` is the skill of sample j at ``library_sizes[i]``;
    ``spread`` is the population standard deviation (ddof=0) per size.
    """

    cause: str
    effect: str
    library_sizes: tuple[int, ...]
    mean_rho: tuple[float, ...]
    spread: tuple[float, ...]
    samples: np.ndarray
    verdict: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _frozen(self.samples))

    @property
    def label(self) -> str:
        return f"{self.cause}|M({self.effect})"

    @property
    def final_mean_rho(self) -> float:
        return self.mean_rho[-1]


@dataclass(frozen=True)
class CcmResult:
    """Both cross-map directions of a series pair on identical grids and seeds."""

    a_from_b: CcmDirection
    b_from_a: CcmDirection
    insufficient_grid: bool
    seed: int

    @property
    def directions(self) -> tuple[CcmDirection, CcmDirection]:
        return (self.a_from_b, self.b_from_a)

    def to_csv(self, path) -> None:
        """Write every sample as (direction, library_size, sample, rho)."""
        _write_csv(path, ["direction", "library_size", "sample", "rho"],
                   ([direction.label, size, j, _cell(value)]
                    for direction in self.directions
                    for size, samples in zip(direction.library_sizes, direction.samples)
                    for j, value in enumerate(samples)))

    def summary(self) -> dict:
        def describe(direction: CcmDirection) -> dict:
            return {
                "cause": direction.cause,
                "effect": direction.effect,
                "library_sizes": list(direction.library_sizes),
                "mean_rho": [_jsonable(v) for v in direction.mean_rho],
                "spread": [_jsonable(v) for v in direction.spread],
                "final_mean_rho": _jsonable(direction.final_mean_rho),
                "verdict": direction.verdict,
            }

        return {
            "directions": [describe(d) for d in self.directions],
            "insufficient_grid": self.insufficient_grid,
            "seed": self.seed,
        }

    def to_json(self, path) -> None:
        _write_json(path, self.summary())


def _verdict(means: np.ndarray, cfg: CcmConfig) -> str:
    final = means[-1]
    if np.isnan(final):
        return "non-convergent"
    if final <= 0.0:
        return "negative"
    if means.size < 2:
        return "non-convergent"
    rising = final - means[0] > cfg.convergence_margin
    plateau = abs(means[-1] - means[-2]) < cfg.plateau_tolerance
    return "convergent-positive" if rising and plateau else "non-convergent"


def _draw_indices(rng: np.random.Generator, n: int, size: int, cfg: CcmConfig) -> np.ndarray:
    if cfg.method == "contiguous":
        start = int(rng.integers(0, n - size + 1))
        return np.arange(start, start + size)
    return rng.choice(n, size=size, replace=cfg.replacement)


@functools.lru_cache(maxsize=1)
def _drawn_groups(cfg: CcmConfig, n: int) -> tuple[np.ndarray, ...]:
    """The sorted, read-only (samples x size) libraries of every size, drawn from ``n`` points.

    Cell ``(size, j)`` is drawn from ``default_rng((cfg.seed, size, j))``.  The
    draws depend only on the config's value and ``n``, so the last grid is kept.
    """
    groups = []
    for size in cfg.library_sizes:
        libraries = [_draw_indices(np.random.default_rng((cfg.seed, size, j)), n, size, cfg)
                     for j in range(cfg.samples_per_size)]
        groups.append(_frozen(np.sort(libraries, axis=1), dtype=None))
    return tuple(groups)


def convergence_sweep(a: TimeSeries, b: TimeSeries, cfg: CcmConfig,
                      threads: int = 1) -> CcmResult:
    """Sweep cross-map skill over library sizes in both directions.

    A direction is "convergent-positive" when its mean curve rises by more
    than the margin from first to final size, ends positive, and its last
    two grid points agree within the plateau tolerance.  A single-size grid
    cannot exhibit convergence, so the result is flagged insufficient.

    Both directions fill one (cells x n) estimates array, allocated before
    any cell is drawn.  Cell ``(size, j)`` is drawn from ``default_rng((seed,
    size, j))``, and the module keeps its last grid, keyed by the config's
    value and the record length (``samples_per_size x sum(library_sizes)``
    int64, about 100 KB on the paper's grid): sweeping the three pairs of
    one record with equal configs draws the grid once.  A shortfall fails
    the first direction.  ``threads`` is accepted and ignored.
    """
    _check_aligned(a, b)
    n = _embeddable(len(a), EmbeddingSpec.univariate(b.name, cfg.dimension, cfg.tau))
    sizes = cfg.library_sizes
    if sizes[-1] > n:
        raise ValueError(f"largest library size {sizes[-1]} exceeds embeddable points {n}")

    try:  # a grid too large for memory is named before any cell is drawn
        estimates = np.empty((len(sizes) * cfg.samples_per_size, n), dtype=float)
    except (MemoryError, ValueError):
        raise ValueError(f"samples_per_size={cfg.samples_per_size} asks for more cross-map "
                         f"estimates than memory holds ({len(sizes)} sizes x {n} points)") from None
    libraries = (_embed(a, b, cfg.dimension, cfg.tau), _embed(b, a, cfg.dimension, cfg.tau))
    groups = _drawn_groups(cfg, n)

    def direction(cause: TimeSeries, effect: TimeSeries,
                  library: EmbeddingLibrary) -> CcmDirection:
        samples = _cross_map_cells(library, groups, cfg.exclusion_radius,
                                   estimates=estimates).reshape(len(sizes), -1)
        means = samples.mean(axis=1)
        return CcmDirection(
            cause=cause.name,
            effect=effect.name,
            library_sizes=sizes,
            mean_rho=tuple(float(v) for v in means),
            spread=tuple(float(v) for v in samples.std(axis=1)),
            samples=samples,
            verdict=_verdict(means, cfg),
        )

    try:  # the directions share draws and times, so a shortfall fails the first
        a_from_b = direction(a, b, libraries[0])
    except ValueError as error:
        if not (cfg.replacement and cfg.method == "random"):  # contiguous draws never repeat
            raise
        raise ValueError(f"{error}; drawn with replacement (replacement, --replacement), "
                         f"a library can hold excluded points more than once") from None
    return CcmResult(
        a_from_b=a_from_b,
        b_from_a=direction(b, a, libraries[1]),
        insufficient_grid=len(sizes) < 2,
        seed=cfg.seed,
    )
