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
A sweep embeds each direction once and measures all pairwise distances
once; every cell then reads the columns of its library from that matrix.
CCM runs single-threaded: the ``threads`` argument of ``convergence_sweep``
is accepted and ignored.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .embedding import EmbeddingLibrary, EmbeddingSpec, _smallest_k, multivariate_embed
from .timeseries import Dataset, TimeSeries, _cell, _jsonable, _require_finite, pearson_rho

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
        if self.exclusion_radius < 0:
            raise ValueError(f"exclusion_radius must be >= 0, got {self.exclusion_radius}")
        if self.method not in ("random", "contiguous"):
            raise ValueError(f"unknown subsampling method {self.method!r}")
        object.__setattr__(self, "library_sizes", sizes)


#: Most distances computed in one block; bounds the per-block temporary of
#: (rows x library x dimension) coordinate differences.
_BLOCK_ELEMENTS = 4096


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


def _distance_blocks(queries: np.ndarray, lib_vectors: np.ndarray):
    """Manhattan distances from every query state to every library state.

    Yields ``(rows, block)`` in ascending row order, where ``block[q, c]`` is
    the distance from ``queries[rows[q]]`` to ``lib_vectors[c]`` and each
    block holds at most ``_BLOCK_ELEMENTS`` distances (at least one row).
    """
    step = max(1, _BLOCK_ELEMENTS // len(lib_vectors))
    for start in range(0, len(queries), step):
        stop = min(start + step, len(queries))
        block = np.abs(queries[start:stop, None, :] - lib_vectors[None, :, :]).sum(axis=2)
        yield np.arange(start, stop), block


def _estimates(distances: np.ndarray, rows: np.ndarray, lib: np.ndarray, times: np.ndarray,
               targets: np.ndarray, k: int, leave_one_out: bool,
               exclusion_radius: int) -> np.ndarray:
    """Kernel estimates of ``targets`` at the query ``rows`` from library ``lib``.

    ``distances[q, c]`` is the distance from query ``rows[q]`` to library
    point ``lib[c]``; ``lib`` must be sorted ascending so that the selection,
    which orders neighbours by (distance, column), breaks distance ties toward
    the earlier time.  Candidates excluded by leave-one-out or the exclusion
    radius are set to infinite distance.
    """
    # a radius r > 0 drops every time gap up to r; otherwise leave-one-out
    # drops only the query's own time (gap 0)
    if exclusion_radius > 0:
        floor = exclusion_radius
    else:
        floor = 0 if leave_one_out else -1
    keep = np.abs(times[rows, None] - times[None, lib]) > floor
    admissible = keep.sum(axis=1)
    short = np.flatnonzero(admissible < k)
    if short.size:
        q = short[0]
        raise ValueError(
            f"cross-map query at {int(times[rows[q]])} has only {int(admissible[q])} "
            f"admissible neighbours, needs {k}"
        )
    masked = np.where(keep, distances, np.inf)
    chosen = _smallest_k(masked, k)
    d = np.take_along_axis(masked, chosen, axis=1)
    nearest = d[:, :1]
    exact = nearest == 0.0
    weights = np.where(exact, d == 0.0, np.exp(-d / np.where(exact, 1.0, nearest)))
    weights /= weights.sum(axis=1, keepdims=True)
    # a stacked matmul rounds each row like a 1-D ``weights @ values``; an
    # elementwise product summed along the row does not
    return (weights[:, None, :] @ targets[lib][chosen][:, :, None])[:, 0, 0]


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
    if exclusion_radius < 0:
        raise ValueError(f"exclusion_radius must be >= 0, got {exclusion_radius}")
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

    estimates = np.empty(n, dtype=float)
    for rows, block in _distance_blocks(library.vectors, library.vectors[indices]):
        estimates[rows] = _estimates(block, rows, indices, library.times, library.targets,
                                     dimension + 1, leave_one_out, exclusion_radius)
    return pearson_rho(library.targets, estimates)


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

    Each direction holds one n x n float64 distance matrix (n embeddable
    points) while its cells run.  ``threads`` is accepted and ignored.
    """
    _check_aligned(a, b)
    n = len(a) - (cfg.dimension - 1) * cfg.tau
    sizes = cfg.library_sizes
    if sizes[-1] > n:
        raise ValueError(f"largest library size {sizes[-1]} exceeds embeddable points {n}")

    libraries = [
        [np.sort(_draw_indices(np.random.default_rng((cfg.seed, size, j)), n, size, cfg))
         for j in range(cfg.samples_per_size)]
        for size in sizes
    ]
    rows = np.arange(n)

    def skills(cause: TimeSeries, effect: TimeSeries) -> np.ndarray:
        library = _embed(cause, effect, cfg.dimension, cfg.tau)
        distances = np.empty((n, n), dtype=float)
        for block_rows, block in _distance_blocks(library.vectors, library.vectors):
            distances[block_rows] = block
        samples = np.empty((len(sizes), cfg.samples_per_size), dtype=float)
        for i, draws in enumerate(libraries):
            for j, lib in enumerate(draws):
                estimates = _estimates(
                    distances[:, lib], rows, lib, library.times, library.targets,
                    cfg.dimension + 1, True, cfg.exclusion_radius,
                )
                samples[i, j] = pearson_rho(library.targets, estimates)
        return samples

    def direction(cause: str, effect: str, samples: np.ndarray) -> CcmDirection:
        means = samples.mean(axis=1)
        spreads = samples.std(axis=1)
        return CcmDirection(
            cause=cause,
            effect=effect,
            library_sizes=sizes,
            mean_rho=tuple(float(v) for v in means),
            spread=tuple(float(v) for v in spreads),
            samples=samples,
            verdict=_verdict(means, cfg),
        )

    return CcmResult(
        a_from_b=direction(a.name, b.name, skills(a, b)),
        b_from_a=direction(b.name, a.name, skills(b, a)),
        insufficient_grid=len(sizes) < 2,
        seed=cfg.seed,
    )
