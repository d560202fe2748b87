"""S-map forecasting: sequential locally weighted global linear regression.

Unlike simplex projection, which consults only the nearest neighbours, the
S-map fits a weighted linear model over the entire admissible library at
every step.  Point j receives weight ``exp(-theta * d_j / d_mean)`` where
``d_mean`` is the mean query distance over the admissible library, so theta
controls how sharply the fit localises: theta 0 is a plain global linear
autoregression, larger theta leans on states near the query.  If skill peaks
at theta > 0 the dynamics are state dependent, which is the operational test
for nonlinearity.

The fitted coefficients double as local Jacobian estimates: the slope on
each embedding coordinate estimates the partial derivative of the target
with respect to that coordinate at the query state, so coefficient tracks
expose how strongly (and with what sign) the inputs interact over time.

The least-squares core uses singular-value semantics: singular values below
1e-10 of the largest are treated as zero and the minimum-norm solution is
returned, so near-duplicate library rows (common in short yearly records)
degrade gracefully instead of crashing.  An optional ridge term penalises
the slopes (never the intercept).

The one-step evaluation (``skill_eval``, also ``edmkit.smap_skill_eval``)
and the iterative extrapolation (``smap_iterative_forecast``) are the shared
protocol of ``edmkit.forecast``, re-exported here; ``SMapConfig._predict``
is the predictor they call.

Every S-map fit goes through one routine, ``_fit``, which has a theta axis:
the protocol's predictor, ``smap_predict`` (through it, on one query's
candidate rows in ascending time) and ``theta_search`` all call it.
Per query it computes the distances and their mean once, the weights of
every theta in one exponential, and writes the weighted design and each
series' right-hand side into buffers allocated once per call, so a theta
search fits each query once for the whole grid.  Each (theta, series) pair
still gets its own one-column least-squares solve, which keeps every output
bit for bit what a separate fit per theta and series gives.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingLibrary, EmbeddingSpec, _candidate_rows, _distance_rows
from .forecast import ForecastResult, _one_step_queries, best_row, skill_eval, write_skill_table
from .forecast import iterative_forecast as smap_iterative_forecast
from .timeseries import (Dataset, TimeSeries, _frozen, _require_finite, _write_csv, pearson_rho,
                         rmse)

__all__ = [
    "DEFAULT_THETA_GRID",
    "SMapConfig",
    "SMapStep",
    "ThetaSearchResult",
    "smap_predict",
    "skill_eval",
    "theta_search",
    "smap_iterative_forecast",
    "interaction_series",
    "coefficients_to_csv",
]

#: Default localisation grid for theta searches.
DEFAULT_THETA_GRID = (0.0, 0.1, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0)

_SV_CUTOFF = 1e-10


@dataclass(frozen=True)
class SMapConfig:
    """S-map settings: embedding layout, localisation, optional ridge."""

    spec: EmbeddingSpec
    theta: float
    _: KW_ONLY
    ridge: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(theta=self.theta, ridge=self.ridge)
        if self.theta < 0:
            raise ValueError(f"theta must be >= 0, got {self.theta}")
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")

    @property
    def _needs(self) -> tuple[int, str]:
        return self.spec.dimension + 2, f"dimension+2 = {self.spec.dimension + 2} points"

    def _predict(self, vectors, forward, queries, limits):
        """The protocol's predictor (see ``edmkit.forecast``): one local fit per query.

        Every call returns new arrays, so callers may keep views into them.
        """
        predictions, variances, coefficients = _fit(
            vectors, forward, queries, limits, np.array([self.theta]), self.ridge)
        return predictions[0], variances[0], coefficients[0]


@dataclass(frozen=True)
class SMapStep:
    """One local regression: prediction, coefficient row, residual variance.

    ``coefficients[0]`` is the intercept; ``coefficients[1:]`` hold one slope
    per embedding coordinate, which estimate the partial derivatives of the
    target with respect to each coordinate at this state.
    """

    time: int
    prediction: float
    coefficients: np.ndarray
    variance: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", _frozen(self.coefficients))


def smap_weights(distances: np.ndarray, theta: float | np.ndarray) -> np.ndarray:
    """Exponential localisation weights over all admissible distances.

    ``theta`` is one value, or a 1-D grid that gives one weight row per
    theta.  Theta 0 and a mean distance of 0 give weights of exactly 1.0.
    """
    distances = np.asarray(distances, dtype=float)
    thetas = np.asarray(theta, dtype=float)
    mean_distance = distances.sum() / distances.size if distances.size else 0.0
    if mean_distance == 0.0:
        return np.ones(thetas.shape + distances.shape)
    weights = np.exp(-thetas[..., None] * distances / mean_distance)
    weights[thetas == 0.0] = 1.0  # even where a distance overflowed
    return weights


def _fit(vectors: np.ndarray, forward: np.ndarray, queries: np.ndarray, limits,
         thetas: np.ndarray, ridge: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S-map fits at each query state for every theta, one per forward column.

    Query ``q`` fits over the first ``limits[q]`` rows of ``vectors`` and
    ``forward`` (values aligned with those rows); ``limits`` is any sequence
    of ints, each at least ``dimension + 2``, which the callers check where
    they cut the library.  The design's intercept column is ``sqrt(w)`` and
    its ridge penalty rows come last.  Returns (thetas, queries, columns)
    predictions and variances and (thetas, queries, columns, dimension + 1)
    coefficients, all new arrays.
    """
    dim = vectors.shape[1]
    counts = np.asarray(limits).tolist()
    n_thetas, columns = thetas.shape[0], forward.shape[1]
    extra = dim if ridge > 0.0 else 0  # the ridge rows take target 0
    design = np.empty((n_thetas, max(counts) + extra, dim + 1))
    rhs = np.empty((n_thetas, columns, max(counts) + extra))
    predictions = np.empty((n_thetas, len(counts), columns))
    variances = np.empty_like(predictions)
    coefficients = np.empty((*predictions.shape, dim + 1))
    if extra:
        penalty = np.zeros((dim, dim + 1))
        penalty[:, 1:] = math.sqrt(ridge) * np.eye(dim)
    for q, (query, count) in enumerate(zip(queries, counts)):
        library, targets = vectors[:count], forward[:count].T
        weights = smap_weights(_distance_rows(library, query[None], "euclidean")[0], thetas)
        sqrt_w = np.sqrt(weights)
        a = design[:, :count + extra]
        a[:, :count, 0] = sqrt_w
        np.multiply(library, sqrt_w[:, :, None], out=a[:, :count, 1:])
        b = rhs[:, :, :count + extra]
        np.multiply(targets, sqrt_w[:, None], out=b[:, :, :count])
        if extra:
            a[:, count:] = penalty
            b[:, :, count:] = 0.0
        for t in range(n_thetas):
            w, a_t, b_t = weights[t], a[t], b[t]
            total = w.sum()
            for c in range(columns):
                coef = np.linalg.lstsq(a_t, b_t[c], rcond=_SV_CUTOFF)[0]
                intercept, slopes = coef[0], coef[1:]
                residuals = targets[c] - (intercept + library @ slopes)
                predictions[t, q, c] = intercept + query @ slopes
                variances[t, q, c] = (w * residuals**2).sum() / total
                coefficients[t, q, c] = coef
    return predictions, variances, coefficients


def smap_predict(library: EmbeddingLibrary, query: tuple[int, Sequence[float]],
                 cfg: SMapConfig, exclusion_radius: int | None = None) -> SMapStep:
    """One S-map step at the query state.

    All library points outside the exclusion window join the fit, in time
    order; the regression needs at least ``dimension + 2`` of them.
    ``exclusion_radius`` overrides the library spec's window per call.
    The fit solves weighted least squares through the square-root-weight
    design matrix.
    """
    vector, rows = _candidate_rows(library, query, cfg._needs, exclusion_radius)
    predictions, variances, coefficients = cfg._predict(
        library.vectors[rows], library.targets[rows, None], vector[None], [rows.size])
    return SMapStep(time=int(query[0]), prediction=float(predictions[0, 0]),
                    coefficients=coefficients[0, 0], variance=float(variances[0, 0]))


@dataclass(frozen=True)
class ThetaSearchResult:
    """Skill table over the theta grid, the winner, and the linearity verdict.

    The verdict is "nonlinear" exactly when the best theta is positive:
    beating the theta 0 autoregression means the dynamics are state
    dependent.
    """

    rows: tuple[tuple[float, float, float], ...]  # (theta, rho, rmse)
    best_theta: float
    best_rho: float
    verdict: str

    def to_csv(self, path) -> None:
        write_skill_table(path, ("theta", "rho", "rmse"), self.rows,
                          lambda theta: repr(float(theta)))


def theta_search(data: Dataset, target: str, spec: EmbeddingSpec,
                 theta_grid: Iterable[float] = DEFAULT_THETA_GRID, *,
                 train_end: int, eval_start: int | None = None, eval_end: int | None = None,
                 ridge: float = 0.0, threads: int = 1) -> ThetaSearchResult:
    """Grid-search theta by expanding-window skill; ties go to the smaller theta.

    Every theta (and the ridge) is checked as ``SMapConfig`` checks it before
    any fit.  The one-step queries of ``skill_eval`` are built once, and each
    query's fit serves the whole grid: its distances, weights and design are
    shared by every theta.  Each theta's predictions are scored as
    ``skill_eval`` scores them.  ``threads`` is accepted and ignored.
    """
    thetas = [float(t) for t in theta_grid]
    configs = [SMapConfig(spec, theta, ridge=ridge) for theta in thetas]
    grid = sorted(set(thetas))
    if not grid:
        raise ValueError("theta grid is empty")
    full, _, queries, limits = _one_step_queries(data, target, configs[0], train_end,
                                                 eval_start, eval_end)
    predicted, _, _ = _fit(full.vectors, full.targets[:, None], full.vectors[queries], limits,
                           np.array(grid), ridge)
    observed = full.targets[queries]
    rows = tuple((theta, pearson_rho(observed, values[:, 0]), rmse(observed, values[:, 0]))
                 for theta, values in zip(grid, predicted))
    best_theta, best_rho, _ = best_row(rows, "theta")
    verdict = "nonlinear" if best_theta > 0 else "linear"
    return ThetaSearchResult(rows=rows, best_theta=best_theta, best_rho=best_rho, verdict=verdict)


def interaction_series(forecast: ForecastResult, coordinate: str) -> TimeSeries:
    """The per-year slope of one embedding coordinate as a time series.

    ``coordinate`` is a coordinate label such as ``"total(t-1)"``; a bare
    series name selects its lag-0 coordinate.  The slope track estimates the
    partial derivative of the forecast target with respect to that
    coordinate, step by step.
    """
    if forecast.coefficients is None or forecast.coefficient_labels is None:
        raise ValueError("forecast carries no coefficient rows")
    labels = forecast.coefficient_labels
    name = coordinate if coordinate in labels else f"{coordinate}(t)"
    if name not in labels or name == "intercept":
        available = [label for label in labels if label != "intercept"]
        raise ValueError(f"unknown coordinate {coordinate!r}; available: {available}")
    column = labels.index(name)
    return TimeSeries(
        name=f"d({forecast.target})/d({name})",
        start_year=int(forecast.times[0]),
        values=tuple(float(v) for v in forecast.coefficients[:, column]),
    )


def coefficients_to_csv(forecast: ForecastResult, path) -> None:
    """Write the coefficient track as (year, intercept, one column per coordinate)."""
    if forecast.coefficients is None or forecast.coefficient_labels is None:
        raise ValueError("forecast carries no coefficient rows")
    _write_csv(path, ["year", *forecast.coefficient_labels],
               ([int(year), *(repr(float(v)) for v in row)]
                for year, row in zip(forecast.times, forecast.coefficients)))
