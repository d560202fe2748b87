"""Simplex projection: forecasting by distance-weighted nearest neighbours.

The forecast for a query state is the weighted average of the forward values
of its k nearest library points, with raw weights ``exp(-d_j / d_1)`` so the
nearest neighbour always contributes ``e**-1`` when ``d_1 > 0``.  By default
``k = dimension + 1``, the bounding simplex of the reconstructed space.

An exact match (``d_1 = 0``) would make the weight ratio singular, so
zero-distance neighbours take raw weight 1 while positive-distance
neighbours are scaled by the smallest positive distance; if every neighbour
sits at distance 0 the weights are uniform.

The one-step evaluation and the iterative extrapolation are the shared
protocol of ``edmkit.forecast``; this module supplies its predictor.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .embedding import (EmbeddingLibrary, EmbeddingSpec, _distance_rows, _nearest, _shortfall,
                        knn)
# ForecastResult and extension_names are re-exported for existing callers
from .forecast import (
    ForecastResult,
    best_row,
    extension_names,
    one_step_eval,
    run_iterative,
    write_skill_table,
)
from .timeseries import Dataset, _row_dot

__all__ = [
    "SimplexConfig",
    "ForecastResult",
    "DimensionSearchResult",
    "simplex_predict",
    "skill_eval",
    "embed_dimension_search",
    "iterative_forecast",
]


@dataclass(frozen=True)
class SimplexConfig:
    """Simplex settings: embedding layout plus neighbour count.

    ``k`` of None means the bounding-simplex default ``dimension + 1``.
    Only one-step horizons are supported; longer ranges are reached by
    iterating one-step forecasts.
    """

    spec: EmbeddingSpec
    _: KW_ONLY
    k: int | None = None

    def __post_init__(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def effective_k(self) -> int:
        return self.spec.dimension + 1 if self.k is None else self.k


def simplex_weights(distances: np.ndarray) -> np.ndarray:
    """Normalised exponential weights over sorted neighbour distances.

    A 2-D array holds one neighbour set per row and gets one weight row each.
    """
    distances = np.asarray(distances, dtype=float)
    positive = distances > 0.0
    # the smallest positive distance equals d_1 whenever d_1 > 0; with none
    # positive every raw weight is 1
    scale = np.where(positive, distances, np.inf).min(axis=-1, keepdims=True)
    raw = np.where(positive, np.exp(-distances / scale), 1.0)
    return raw / raw.sum(axis=-1, keepdims=True)


def simplex_predict(library: EmbeddingLibrary, query: tuple[int, Sequence[float]],
                    cfg: SimplexConfig) -> tuple[float, float]:
    """One simplex forecast: returns (prediction, weighted target variance)."""
    neighbours = knn(library, query, cfg.effective_k)
    weights = simplex_weights(neighbours.distances)
    targets = library.targets[neighbours.indices]
    prediction = float(weights @ targets)
    variance = float(weights @ (targets - prediction) ** 2)
    return prediction, variance


def _predictor(cfg: SimplexConfig) -> Callable:
    """The protocol's predictor (see ``edmkit.forecast``): kernel averages of the k nearest."""
    k = cfg.effective_k

    def predict(vectors, forward, queries, limits, sizes, radius):
        short = np.flatnonzero(limits < k)
        if short.size:
            raise _shortfall(k, int(limits[short[0]]), int(sizes[short[0]]), radius)
        width = int(limits.max())
        indices, distances = _nearest(_distance_rows(vectors[:width], queries, "euclidean"),
                                      np.arange(width) < limits[:, None], k)
        weights = simplex_weights(distances)
        # (columns, queries, k), each neighbour set contiguous for ``_row_dot``
        targets = np.take(forward.T, indices, axis=1)
        predictions = _row_dot(weights, targets)
        variances = _row_dot(weights, (targets - predictions[..., None]) ** 2)
        return predictions.T, variances.T, None

    return predict


def skill_eval(data: Dataset, target: str, cfg: SimplexConfig, train_end: int,
               eval_start: int | None = None, eval_end: int | None = None) -> ForecastResult:
    """Expanding-window one-step simplex evaluation over a year range.

    Each year is predicted from a library containing only earlier-targeted
    points, then scored against the observations with Pearson rho and RMSE.
    """
    return one_step_eval(data, target, cfg.spec, train_end, eval_start, eval_end, _predictor(cfg))


@dataclass(frozen=True)
class DimensionSearchResult:
    """Skill table over candidate embedding dimensions plus the winner."""

    rows: tuple[tuple[int, float, float], ...]  # (dimension, rho, rmse)
    best_dimension: int

    def to_csv(self, path) -> None:
        write_skill_table(path, ("E", "rho", "rmse"), self.rows, str)


def embed_dimension_search(data: Dataset, target: str, dimensions: Iterable[int],
                           train_end: int, tau: int = 1,
                           eval_start: int | None = None, eval_end: int | None = None,
                           exclusion_radius: int | None = None,
                           threads: int = 1) -> DimensionSearchResult:
    """Evaluate one-step skill per embedding dimension and pick the argmax.

    Each dimension runs with its simplex default ``k = dimension + 1``.
    Ties in rho break toward the smallest dimension; dimensions whose skill
    is undefined never win.  Dimensions are evaluated in turn; ``threads``
    is accepted and ignored.
    """
    dims = sorted(set(int(d) for d in dimensions))
    if not dims:
        raise ValueError("no embedding dimensions to search")

    def evaluate(dimension: int) -> tuple[int, float, float]:
        spec = EmbeddingSpec.univariate(target, dimension, tau, exclusion_radius)
        result = skill_eval(data, target, SimplexConfig(spec), train_end, eval_start, eval_end)
        return dimension, result.rho, result.rmse

    rows = tuple(evaluate(d) for d in dims)
    return DimensionSearchResult(rows=rows, best_dimension=best_row(rows, "embedding dimension")[0])


def iterative_forecast(data: Dataset, target: str, cfg: SimplexConfig, horizon_end: int,
                       self_condition: bool = True,
                       exclusion_radius: int = 0) -> ForecastResult:
    """Extrapolate one year at a time until horizon_end.

    Multivariate specs extend every input series jointly: all series share
    the neighbour weights from the common manifold, each averaging its own
    forward values.  The band accumulates the per-step weighted neighbour
    variance along the horizon (so it can only widen).

    The temporal exclusion window defaults to 0 inside the generative loop:
    recent states (including the forecast's own appended values) are the
    only analogues of the advancing edge, and the window's anti-shortcut
    purpose applies to held-out scoring, not open-ended continuation.
    """
    return run_iterative(data, cfg.spec, target, horizon_end, _predictor(cfg), self_condition,
                         exclusion_radius=exclusion_radius)
