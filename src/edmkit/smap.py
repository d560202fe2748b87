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
"""

from __future__ import annotations

import csv
import math
from dataclasses import KW_ONLY, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .embedding import (
    EmbeddingLibrary,
    EmbeddingSpec,
    NeighborShortfallError,
    _candidates,
    _check_radius,
    _distance_rows,
    _floor,
)
from .forecast import (
    ForecastResult,
    best_row,
    one_step_eval,
    run_iterative,
    write_skill_table,
)
from .timeseries import Dataset, TimeSeries, _require_finite

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
        coefficients = np.asarray(self.coefficients, dtype=float)
        coefficients.setflags(write=False)
        object.__setattr__(self, "coefficients", coefficients)


def smap_weights(distances: np.ndarray, theta: float) -> np.ndarray:
    """Exponential localisation weights over all admissible distances."""
    distances = np.asarray(distances, dtype=float)
    mean_distance = float(distances.mean()) if distances.size else 0.0
    if mean_distance == 0.0 or theta == 0.0:
        return np.ones_like(distances)
    return np.exp(-theta * distances / mean_distance)


def _fit(vectors: np.ndarray, forward: np.ndarray, query: np.ndarray,
         cfg: SMapConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S-map fits at one query state over every library row, one per forward column.

    The distances, weights and square-root-weighted design are computed
    once and shared; each column of ``forward`` (values aligned with the
    library rows) gets its own least-squares solve.  Returns the
    predictions, the variances and the (columns, dimension + 1) coefficients.
    """
    count, dim = vectors.shape
    distances = _distance_rows(vectors, query[None], "euclidean")[0]
    weights = smap_weights(distances, cfg.theta)
    sqrt_w = np.sqrt(weights)[:, None]
    design = np.concatenate([np.ones((count, 1)), vectors], axis=1) * sqrt_w
    if cfg.ridge > 0.0:
        penalty = np.zeros((dim, dim + 1))
        penalty[:, 1:] = math.sqrt(cfg.ridge) * np.eye(dim)
        design = np.concatenate([design, penalty], axis=0)
    fits = []
    for targets in forward.T:  # the ridge rows, if any, take target 0
        rhs = np.concatenate([targets * sqrt_w[:, 0], np.zeros(design.shape[0] - count)])
        coefficients, *_ = np.linalg.lstsq(design, rhs, rcond=_SV_CUTOFF)
        residuals = targets - (coefficients[0] + vectors @ coefficients[1:])
        fits.append((coefficients[0] + query @ coefficients[1:],
                     (weights * residuals**2).sum() / weights.sum(), coefficients))
    return tuple(np.array(part) for part in zip(*fits))


def _predictor(cfg: SMapConfig) -> Callable:
    """The protocol's predictor (see ``edmkit.forecast``): one local fit per query."""
    dim = cfg.spec.dimension

    def predict(vectors, forward, queries, limits, sizes, radius):
        fits = []
        for query, limit, size in zip(queries, limits, sizes):
            if limit < dim + 2:
                raise NeighborShortfallError(
                    f"S-map needs at least dimension+2 = {dim + 2} admissible points, "
                    f"have {limit} (library size {size}, exclusion radius {radius})"
                )
            fits.append(_fit(vectors[:limit], forward[:limit], query, cfg))
        return tuple(np.array(part) for part in zip(*fits))

    return predict


def smap_predict(library: EmbeddingLibrary, query: tuple[int, Sequence[float]],
                 cfg: SMapConfig, exclusion_radius: int | None = None) -> SMapStep:
    """One S-map step at the query state.

    All library points surviving the exclusion window join the fit; at least
    ``dimension + 2`` of them are required for the regression to be posed.
    ``exclusion_radius`` overrides the library spec's window per call.
    The fit solves weighted least squares through the square-root-weight
    design matrix.
    """
    radius = library.spec.radius if exclusion_radius is None else _check_radius(exclusion_radius)
    keep = _candidates(library.times, query[0], _floor(radius))
    predictions, variances, coefficients = _predictor(cfg)(
        library.vectors[keep], library.targets[keep, None], np.asarray(query[1], dtype=float)[None],
        [int(keep.sum())], [len(library)], radius)
    return SMapStep(time=int(query[0]), prediction=float(predictions[0, 0]),
                    coefficients=coefficients[0, 0], variance=float(variances[0, 0]))


def skill_eval(data: Dataset, target: str, cfg: SMapConfig, train_end: int,
               eval_start: int | None = None, eval_end: int | None = None) -> ForecastResult:
    """Expanding-window one-step S-map evaluation (same protocol as simplex).

    The returned result carries the per-step coefficient rows so interaction
    strengths can be read off the evaluation period as well.
    """
    return one_step_eval(data, target, cfg.spec, train_end, eval_start, eval_end, _predictor(cfg))


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

    Thetas are evaluated in turn; ``threads`` is accepted and ignored.
    """
    grid = sorted(set(float(t) for t in theta_grid))
    if not grid:
        raise ValueError("theta grid is empty")

    def evaluate(theta: float) -> tuple[float, float, float]:
        cfg = SMapConfig(spec, theta, ridge=ridge)
        result = skill_eval(data, target, cfg, train_end, eval_start, eval_end)
        return theta, result.rho, result.rmse

    rows = tuple(evaluate(t) for t in grid)
    best_theta, best_rho, _ = best_row(rows, "theta")
    verdict = "nonlinear" if best_theta > 0 else "linear"
    return ThetaSearchResult(rows=rows, best_theta=best_theta, best_rho=best_rho, verdict=verdict)


def smap_iterative_forecast(data: Dataset, target: str, cfg: SMapConfig, horizon_end: int,
                            self_condition: bool = True,
                            adjust=None, exclusion_radius: int = 0) -> ForecastResult:
    """Iterative S-map extrapolation to horizon_end, one year per step.

    Multivariate layouts advance every input series jointly: each series gets
    its own locally weighted regression per year, all conditioned on the same
    extended state, so the joint trajectory stays coherent.  The result keeps
    the target's coefficient row per step; the band accumulates the target's
    residual variance along the horizon.  ``adjust`` (if given) maps each
    year's predicted values before they join the library, which is how policy
    interventions are injected mid-forecast.

    Inside the generative loop the temporal exclusion window defaults to 0:
    the freshest states (including values the forecast itself appended) are
    the only analogues of the advancing edge, and the window's purpose,
    blocking autocorrelation shortcuts when scoring against held-out
    observations, does not apply to open-ended continuation.
    """
    return run_iterative(data, cfg.spec, target, horizon_end, _predictor(cfg), self_condition,
                         adjust, exclusion_radius)


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["year", *forecast.coefficient_labels])
        for i, year in enumerate(forecast.times):
            writer.writerow([int(year), *(repr(float(v)) for v in forecast.coefficients[i])])
