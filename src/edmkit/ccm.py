"""Convergent cross mapping: causality detection via cross-map skill.

To test whether series A drives series B, the *effect* series B is delay
embedded and each of its manifold states estimates the contemporaneous value
of A as the kernel-weighted average of A at the nearest neighbour times
(Manhattan distance, ``dimension + 1`` neighbours, weights
``exp(-d_j / d_1)``).  If A truly forces B, then B's history carries A's
signature, and the Pearson correlation between estimated and actual A rises
toward a positive plateau as the library grows.  Sweeping the library size
with seeded random subsamples produces that convergence curve for both
directions at once.

By default each query's own time index is left out of the neighbour pool,
otherwise every in-library query would trivially reconstruct itself and the
null behaviour of unrelated series would be destroyed.  The degenerate
self-mapping identity (a manifold predicting its own observable exactly) is
still available by disabling leave-one-out.

Every (size, sample) cell derives its RNG stream from (seed, size, sample
index), so sweep results do not depend on the order cells are evaluated in.
One driver serves a single cross map and a whole sweep direction: its query
rows are walked once, in blocks whose distances to all n embeddable states
serve every cell.  Within a block the samples of one library size are
estimated together, in batches that gather no more distances than the block
holds; a cell that is the whole library uses the block as it is.  One
row-wise Pearson correlation then scores every cell.  Memory is
O(block x n + cells x n), never n x n.
CCM runs single-threaded: the ``threads`` argument of ``convergence_sweep``
is accepted and ignored.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .embedding import (EmbeddingLibrary, EmbeddingSpec, _candidates, _check_radius,
                        _distance_rows, _floor, _nearest, multivariate_embed)
from .timeseries import (Dataset, TimeSeries, _cell, _jsonable, _require_finite, _rho_rows,
                         _row_dot)

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
        sizes = tuple(int(s) for s in self.library_sizes)
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
        _check_radius(self.exclusion_radius)
        if self.method not in ("random", "contiguous"):
            raise ValueError(f"unknown subsampling method {self.method!r}")
        object.__setattr__(self, "library_sizes", sizes)


#: Most coordinate differences computed in one block; bounds the per-block
#: temporary of (rows x n x dimension) differences.
_BLOCK_ELEMENTS = 1 << 16


def _check_aligned(cause: TimeSeries, effect: TimeSeries) -> None:
    if cause.start_year != effect.start_year or len(cause) != len(effect):
        raise ValueError(
            f"series must be aligned: {cause.name!r} {cause.start_year}..{cause.end_year}, "
            f"{effect.name!r} {effect.start_year}..{effect.end_year}"
        )


def _embed(cause: TimeSeries, effect: TimeSeries, dimension: int, tau: int) -> EmbeddingLibrary:
    """The effect's delay vectors, each paired with the contemporaneous cause value."""
    spec = EmbeddingSpec.univariate(effect.name, dimension, tau, exclusion_radius=0)
    members = (effect,) if cause.name == effect.name else (effect, cause)
    return multivariate_embed(Dataset(members), spec, cause.name, tp=0)


def _estimates(distances: np.ndarray, keep: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """Kernel estimates from the ``k`` nearest kept columns, for every row and cell.

    ``distances`` and ``keep`` are (rows x cells x width), ``values`` is
    (cells x width) and the result (rows x cells).  Each cell's columns must
    ascend in time so that the selection, which orders neighbours by
    (distance, column), breaks ties toward the earlier time.
    """
    rows, cells, width = distances.shape
    chosen, d = _nearest(distances.reshape(-1, width), keep.reshape(-1, width), k)
    nearest = d[:, :1]
    exact = nearest == 0.0
    weights = np.where(exact, d == 0.0, np.exp(-d / np.where(exact, 1.0, nearest)))
    weights /= weights.sum(axis=1, keepdims=True)
    picked = values[np.arange(cells)[:, None], chosen.reshape(rows, cells, k)].reshape(-1, k)
    return _row_dot(weights, picked).reshape(rows, cells)


def _check_admissible(libraries: np.ndarray, times: np.ndarray, floor: int, k: int) -> None:
    """Raise if a query keeps fewer than ``k`` neighbours in one of these libraries.

    ``libraries`` is (cells x size); library entries whose time is within
    ``floor`` of the query's are dropped.  The message names the first
    failing cell's first failing query.
    """
    cells, size = libraries.shape
    n = times.shape[0]
    # entries per (cell, row); times are consecutive, so the entries a query
    # drops are those on rows q - floor .. q + floor, a window of the cumsum
    counts = np.bincount((libraries + n * np.arange(cells)[:, None]).ravel(),
                         minlength=cells * n).reshape(cells, n)
    below = np.zeros((cells, n + 1), dtype=counts.dtype)
    np.cumsum(counts, axis=1, out=below[:, 1:])
    rows = np.arange(n)
    dropped = below[:, np.minimum(rows + floor + 1, n)] - below[:, np.maximum(rows - floor, 0)]
    admissible = size - dropped
    short = admissible < k
    if short.any():
        cell = int(np.argmax(short.any(axis=1)))
        q = int(np.argmax(short[cell]))
        raise ValueError(
            f"cross-map query at {int(times[q])} has only {int(admissible[cell, q])} "
            f"admissible neighbours, needs {k}"
        )


def _cross_map_cells(library: EmbeddingLibrary, groups: list[np.ndarray], exclusion_radius: int,
                     leave_one_out: bool = True, estimates: np.ndarray | None = None
                     ) -> np.ndarray:
    """Cross-map skill of each cell, a sorted row of library indices.

    ``groups`` holds one (cells x size) array per library size; the result
    has one skill per cell, in group order.  Every embeddable state is a
    query, estimated from the ``dimension + 1`` nearest admissible points of
    the cell's library in the row blocks and size batches of the module
    docstring; the estimates fill ``estimates`` when given, else a new
    (cells x n) array.  Admissibility is checked for every cell before any
    distance is computed; a shortfall names the first failing cell's first
    failing query.
    """
    times, vectors, targets = library.times, library.vectors, library.targets
    n, dimension = vectors.shape
    k = dimension + 1
    floor = min(_floor(exclusion_radius, leave_one_out), n)  # no gap reaches n; int64 holds n
    if floor >= 0:
        for libraries in groups:
            _check_admissible(libraries, times, floor, k)

    step = max(1, _BLOCK_ELEMENTS // (n * dimension))
    budget = _BLOCK_ELEMENTS // dimension  # the most distances a block holds
    batches = []  # (estimate rows, library indices or None for the whole library, values)
    first = 0
    for libraries in groups:
        count, size = libraries.shape
        cells = np.arange(first, first + count)
        first += count
        whole = ((libraries == np.arange(n)).all(axis=1) if size == n
                 else np.zeros(count, dtype=bool))
        if whole.any():
            batches.append((cells[whole], None, targets[None]))
        per_batch = max(1, budget // (min(step, n) * size))
        cells, libraries = cells[~whole], libraries[~whole]
        for lo in range(0, cells.size, per_batch):
            batch = libraries[lo:lo + per_batch]
            batches.append((cells[lo:lo + per_batch], batch, targets[batch]))

    if estimates is None:
        estimates = np.empty((first, n), dtype=float)
    for start in range(0, n, step):
        stop = min(start + step, n)
        block = _distance_rows(vectors, vectors[start:stop], "manhattan")
        keep = _candidates(times, times[start:stop], floor)
        for cells, batch, values in batches:
            if batch is None:
                found = _estimates(block[:, None], keep[:, None], values, k)
            else:
                found = _estimates(np.take(block, batch, axis=1), np.take(keep, batch, axis=1),
                                   values, k)
            estimates[cells, start:stop] = found.T
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
        indices = np.asarray(library_indices, dtype=int)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("library_indices must be a non-empty 1-D index collection")
        if indices.min() < 0 or indices.max() >= n:
            raise ValueError(f"library indices out of range 0..{n - 1}")
        indices = np.sort(indices)
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
        samples = np.asarray(self.samples, dtype=float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

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
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["direction", "library_size", "sample", "rho"])
            for direction in self.directions:
                for size, samples in zip(direction.library_sizes, direction.samples):
                    for j, value in enumerate(samples):
                        writer.writerow([direction.label, size, j, _cell(value)])

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
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle, indent=2, sort_keys=True)
            handle.write("\n")


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


def convergence_sweep(a: TimeSeries, b: TimeSeries, cfg: CcmConfig,
                      threads: int = 1) -> CcmResult:
    """Sweep cross-map skill over library sizes in both directions.

    A direction is "convergent-positive" when its mean curve rises by more
    than the margin from first to final size, ends positive, and its last
    two grid points agree within the plateau tolerance.  A single-size grid
    cannot exhibit convergence, so the result is flagged insufficient.

    Both directions fill one (cells x n) estimates array, allocated before
    any cell is drawn.  ``threads`` is accepted and ignored.
    """
    _check_aligned(a, b)
    n = len(a) - (cfg.dimension - 1) * cfg.tau
    sizes = cfg.library_sizes
    if sizes[-1] > n:
        raise ValueError(f"largest library size {sizes[-1]} exceeds embeddable points {n}")

    try:  # a grid too large for memory is named before any cell is drawn
        estimates = np.empty((len(sizes) * cfg.samples_per_size, n), dtype=float)
    except (MemoryError, ValueError):
        raise ValueError(f"samples_per_size={cfg.samples_per_size} asks for more cross-map "
                         f"estimates than memory holds ({len(sizes)} sizes x {n} points)") from None
    groups = [np.sort([_draw_indices(np.random.default_rng((cfg.seed, size, j)), n, size, cfg)
                       for j in range(cfg.samples_per_size)], axis=1)
              for size in sizes]

    def direction(cause: TimeSeries, effect: TimeSeries) -> CcmDirection:
        library = _embed(cause, effect, cfg.dimension, cfg.tau)
        try:
            samples = _cross_map_cells(library, groups, cfg.exclusion_radius,
                                       estimates=estimates).reshape(len(sizes), -1)
        except ValueError as error:  # the admissibility pre-check
            if not cfg.replacement:
                raise
            raise ValueError(f"{error}; drawn with replacement (replacement, --replacement), "
                             f"a library can hold excluded points more than once") from None
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

    return CcmResult(
        a_from_b=direction(a, b),
        b_from_a=direction(b, a),
        insufficient_grid=len(sizes) < 2,
        seed=cfg.seed,
    )
