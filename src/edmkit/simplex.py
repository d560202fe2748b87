"""Simplex projection: forecasting by distance-weighted nearest neighbours.

The forecast for a query state is the weighted average of the forward values
of its k nearest library points, with raw weights ``exp(-d_j / d_1)`` so the
nearest neighbour always contributes ``e**-1`` when ``d_1 > 0``.  By default
``k = dimension + 1``, the bounding simplex of the reconstructed space.

An exact match (``d_1 = 0``) would make the weight ratio singular, so
zero-distance neighbours take raw weight 1 while positive-distance
neighbours are scaled by the smallest positive distance; if every neighbour
sits at distance 0 the weights are uniform.

The one-step evaluation (``skill_eval``) and the iterative extrapolation
(``iterative_forecast``) are the shared protocol of ``edmkit.forecast``,
re-exported here; ``SimplexConfig._predict`` is the predictor they call,
and ``simplex_predict`` calls it on one query's candidate rows.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingLibrary, EmbeddingSpec, _candidate_rows, _distance_rows, _nearest
# ForecastResult and the two forecasting entry points are re-exported for existing callers
from .forecast import ForecastResult, best_row, iterative_forecast, skill_eval, write_skill_table
from .timeseries import Dataset, _row_dot, _whole_number

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
        object.__setattr__(self, "k", _whole_number("k", self.k))
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def effective_k(self) -> int:
        return self.spec.dimension + 1 if self.k is None else self.k

    @property
    def _needs(self) -> tuple[int, str]:
        return self.effective_k, f"k={self.effective_k} neighbours"

    def _predict(self, vectors, forward, queries, limits):
        """The protocol's predictor (see ``edmkit.forecast``): kernel averages of the k nearest.

        ``vectors`` and ``forward`` may carry a leading query axis.
        """
        distances = _distance_rows(vectors[..., :max(limits), :], queries, "euclidean")
        for row, limit in zip(distances, limits):
            row[limit:] = np.inf  # the rows past a query's own prefix are no candidates
        indices, distances = _nearest(distances, self.effective_k)
        weights = simplex_weights(distances)
        if forward.ndim == 3:  # one library per query: index the (query, row) pairs
            indices = indices + forward.shape[1] * np.arange(len(indices))[:, None]
            forward = forward.reshape(-1, forward.shape[-1])
        # (columns, queries, k), each neighbour set contiguous for ``_row_dot``
        targets = np.take(forward.T, indices, axis=1)
        predictions = _row_dot(weights, targets)
        variances = _row_dot(weights, (targets - predictions[..., None]) ** 2)
        return predictions.T, variances.T, None


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
    vector, rows = _candidate_rows(library, query, cfg._needs)
    predictions, variances, _ = cfg._predict(
        library.vectors[rows], library.targets[rows, None], vector[None], [rows.size])
    return float(predictions[0, 0]), float(variances[0, 0])


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
    dims = sorted(set(_whole_number("dimension", d) for d in dimensions))
    if not dims:
        raise ValueError("no embedding dimensions to search")

    def evaluate(dimension: int) -> tuple[int, float, float]:
        spec = EmbeddingSpec.univariate(target, dimension, tau, exclusion_radius)
        result = skill_eval(data, target, SimplexConfig(spec), train_end, eval_start, eval_end)
        return dimension, result.rho, result.rmse

    rows = tuple(evaluate(d) for d in dims)
    return DimensionSearchResult(rows=rows, best_dimension=best_row(rows, "embedding dimension")[0])
