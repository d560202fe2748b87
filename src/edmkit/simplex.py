"""Simplex projection: forecasting by distance-weighted nearest neighbours.

The forecast for a query state is the weighted average of the forward values
of its k nearest library points, with raw weights ``exp(-d_j / d_1)`` so the
nearest neighbour always contributes ``e**-1`` when ``d_1 > 0``.  By default
``k = dimension + 1``, the bounding simplex of the reconstructed space.

An exact match (``d_1 = 0``) would make the weight ratio singular, so
zero-distance neighbours take raw weight 1 while positive-distance
neighbours are scaled by the smallest positive distance; if every neighbour
sits at distance 0 the weights are uniform.

Two evaluation modes are provided: an expanding-window one-step-ahead skill
evaluation against held-out history, and an iterative extrapolation that by
default appends its own predictions to the library ("self conditioning") so
the reconstruction can extend past the observed record.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .embedding import (
    EmbeddingLibrary,
    EmbeddingSpec,
    knn,
    multivariate_embed,
    state_vector,
)
from .timeseries import UNDEFINED_SKILL, Dataset, pearson_rho, rmse

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
    tp: int = 1
    k: int | None = None

    def __post_init__(self) -> None:
        if self.tp != 1:
            raise ValueError("only one-step horizons are supported; iterate for longer ranges")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

    @property
    def effective_k(self) -> int:
        return self.spec.dimension + 1 if self.k is None else self.k


@dataclass(frozen=True)
class ForecastResult:
    """Per-step predictions with skill metrics and a 95% band.

    ``predicted`` may contain NaN where no prediction exists; metrics are
    computed only over steps with both a prediction and an observation.
    ``band_halfwidth`` is ``1.96 * sqrt(variance)``, where the variance is
    per-step for one-step evaluations and accumulated across steps for
    iterative extrapolations.  S-map forecasts also carry the local
    regression coefficients for each step (intercept first).
    """

    target: str
    times: np.ndarray
    predicted: np.ndarray
    observed: np.ndarray | None
    rho: float
    rmse: float
    band_halfwidth: np.ndarray
    step_variance: np.ndarray
    coefficients: np.ndarray | None = None
    coefficient_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=int)
        predicted = np.asarray(self.predicted, dtype=float)
        band = np.asarray(self.band_halfwidth, dtype=float)
        step_var = np.asarray(self.step_variance, dtype=float)
        n = times.shape[0]
        if predicted.shape != (n,) or band.shape != (n,) or step_var.shape != (n,):
            raise ValueError("times, predicted, band_halfwidth, step_variance must match")
        observed = self.observed
        if observed is not None:
            observed = np.asarray(observed, dtype=float)
            if observed.shape != (n,):
                raise ValueError("observed must match times")
            observed.setflags(write=False)
        coefficients = self.coefficients
        if coefficients is not None:
            coefficients = np.asarray(coefficients, dtype=float)
            if coefficients.shape[0] != n:
                raise ValueError("coefficients must have one row per step")
            coefficients.setflags(write=False)
        for arr in (times, predicted, band, step_var):
            arr.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "band_halfwidth", band)
        object.__setattr__(self, "step_variance", step_var)
        object.__setattr__(self, "coefficients", coefficients)

    def value_at(self, year: int) -> float:
        where = np.nonzero(self.times == year)[0]
        if where.size == 0:
            raise ValueError(f"no forecast step for year {year}")
        return float(self.predicted[where[0]])

    def to_csv(self, path) -> None:
        """Write rows of (year, predicted, observed, band_lo, band_hi)."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["year", "predicted", "observed", "band_lo", "band_hi"])
            for i, year in enumerate(self.times):
                pred = self.predicted[i]
                obs = self.observed[i] if self.observed is not None else math.nan
                half = self.band_halfwidth[i]
                writer.writerow([
                    int(year),
                    _cell(pred),
                    _cell(obs),
                    _cell(pred - half),
                    _cell(pred + half),
                ])

    def as_dict(self) -> dict:
        return {
            "target": self.target,
            "rho": None if math.isnan(self.rho) else self.rho,
            "rmse": None if math.isnan(self.rmse) else self.rmse,
            "rows": [
                {
                    "year": int(self.times[i]),
                    "predicted": _jsonable(self.predicted[i]),
                    "observed": _jsonable(self.observed[i]) if self.observed is not None else None,
                    "band_halfwidth": _jsonable(self.band_halfwidth[i]),
                }
                for i in range(self.times.shape[0])
            ],
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")


def _cell(v: float) -> str:
    return "" if math.isnan(v) else repr(float(v))


def _jsonable(v: float):
    return None if math.isnan(v) else float(v)


def simplex_weights(distances: np.ndarray) -> np.ndarray:
    """Normalised exponential weights over sorted neighbour distances."""
    distances = np.asarray(distances, dtype=float)
    positive = distances[distances > 0.0]
    if positive.size == 0:
        raw = np.ones_like(distances)
    else:
        scale = float(positive.min())  # equals d_1 whenever d_1 > 0
        raw = np.where(distances > 0.0, np.exp(-distances / scale), 1.0)
    return raw / raw.sum()


def simplex_predict(library: EmbeddingLibrary, query: tuple[int, Sequence[float]],
                    cfg: SimplexConfig) -> tuple[float, float]:
    """One simplex forecast: returns (prediction, weighted target variance)."""
    neighbours = knn(library, query, cfg.effective_k)
    weights = simplex_weights(neighbours.distances)
    targets = library.targets[neighbours.indices]
    prediction = float(weights @ targets)
    variance = float(weights @ (targets - prediction) ** 2)
    return prediction, variance


def _resolve_eval_years(data: Dataset, train_end: int,
                        eval_start: int | None, eval_end: int | None) -> range:
    start = train_end + 1 if eval_start is None else eval_start
    end = data.end_year if eval_end is None else eval_end
    if start <= train_end:
        raise ValueError(f"evaluation must start after train_end={train_end}, got {start}")
    if end < start:
        raise ValueError(f"empty evaluation range {start}..{end}")
    if start <= data.start_year or end > data.end_year:
        raise ValueError(
            f"evaluation range {start}..{end} outside data {data.start_year}..{data.end_year}"
        )
    return range(start, end + 1)


def one_step_eval(data: Dataset, spec: EmbeddingSpec, target: str, eval_years: Iterable[int],
                  predict_one: Callable[[EmbeddingLibrary, tuple[int, np.ndarray]], tuple[float, float]],
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expanding-window one-step protocol shared by the forecasting methods.

    For each evaluation year t the library holds every embeddable point whose
    target falls at or before t-1, and the query is the state at t-1; the
    model never sees the value it is asked to predict.
    """
    full = multivariate_embed(data, spec, target, tp=1)
    years = np.asarray(list(eval_years), dtype=int)
    predicted = np.empty(years.shape[0], dtype=float)
    variance = np.empty(years.shape[0], dtype=float)
    for i, t in enumerate(years):
        library = full.targets_through(int(t) - 1)
        query_time = int(t) - 1
        query = (query_time, state_vector(data, spec, query_time, norms=full.norms))
        predicted[i], variance[i] = predict_one(library, query)
    return years, predicted, variance


def skill_eval(data: Dataset, target: str, cfg: SimplexConfig, train_end: int,
               eval_start: int | None = None, eval_end: int | None = None) -> ForecastResult:
    """Expanding-window one-step simplex evaluation over a year range.

    Each year is predicted from a library containing only earlier-targeted
    points, then scored against the observations with Pearson rho and RMSE.
    """
    years = _resolve_eval_years(data, train_end, eval_start, eval_end)
    times, predicted, variance = one_step_eval(
        data, cfg.spec, target, years,
        lambda library, query: simplex_predict(library, query, cfg),
    )
    observed = np.array([data[target].value_at(int(t)) for t in times], dtype=float)
    return ForecastResult(
        target=target,
        times=times,
        predicted=predicted,
        observed=observed,
        rho=pearson_rho(observed, predicted),
        rmse=rmse(observed, predicted),
        band_halfwidth=1.96 * np.sqrt(variance),
        step_variance=variance,
    )


@dataclass(frozen=True)
class DimensionSearchResult:
    """Skill table over candidate embedding dimensions plus the winner."""

    rows: tuple[tuple[int, float, float], ...]  # (dimension, rho, rmse)
    best_dimension: int

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["E", "rho", "rmse"])
            for dimension, rho_value, rmse_value in self.rows:
                writer.writerow([dimension, _cell(rho_value), _cell(rmse_value)])


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

    best: tuple[int, float] | None = None
    for dimension, rho_value, _ in rows:
        if math.isnan(rho_value):
            continue
        if best is None or rho_value > best[1]:
            best = (dimension, rho_value)
    if best is None:
        raise RuntimeError("no embedding dimension produced a defined skill")
    return DimensionSearchResult(rows=rows, best_dimension=best[0])


def extension_names(spec: EmbeddingSpec, target: str) -> tuple[str, ...]:
    """Series an iterative forecast must extend: every input, plus the target."""
    names = [name for name, _ in spec.columns]
    if target not in names:
        names.append(target)
    return tuple(names)


def run_iterative(data: Dataset, spec: EmbeddingSpec, target: str, horizon_end: int,
                  predict_step: Callable, self_condition: bool = True,
                  adjust: Callable[[int, dict[str, float]], dict[str, float]] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Year-at-a-time extrapolation loop shared by simplex and S-map.

    The loop allocates once: a float64 buffer with one row per year for
    every extended series, and the delay vectors for every row, transformed
    with norms frozen from the observed data.  Each forecast year writes
    one row of each.  ``predict_step(library, targets, query)`` gets the
    target's ``EmbeddingLibrary`` over a prefix of those vectors, the
    forward values of every extended series at each library point (one
    column per series, in ``extension_names`` order) and the latest state
    as ``(last_year, vector)``; it returns ``(values, variances, record)``
    with one value and one variance per column and a per-step record that
    is collected as is.  With self conditioning (the default) each
    prediction is appended as if observed, so the library grows along the
    forecast; without it the library stays capped at the observed record
    while query states are still formed from the extended series.
    ``adjust`` is applied to each year's predictions before they are
    appended, which lets policy engines inject interventions the later
    steps can see.  A non-finite value that a later step would use raises
    ValueError naming its series and year.
    """
    if horizon_end <= data.end_year:
        raise ValueError(
            f"horizon {horizon_end} must lie beyond the observed record ({data.end_year})"
        )
    names = extension_names(spec, target)
    n_obs = data.n_years
    steps = horizon_end - data.end_year
    values = np.empty((n_obs + steps, len(names)), dtype=float)
    for col, name in enumerate(names):
        values[:n_obs, col] = data[name].to_array()
    norms = multivariate_embed(data, spec, target, tp=1).norms  # frozen from observed data

    # coordinate j of the state at row h is
    # (values[h - lag_rows[j], lag_cols[j]] - centre[j]) / scale[j]
    lag_rows = np.array([j * spec.tau for _, lags in spec.columns for j in range(lags)])
    lag_cols = np.array([c for c, (_, lags) in enumerate(spec.columns) for _ in range(lags)])
    centre = np.array([norms[c][1] if norms else 0.0 for c in lag_cols])
    scale = np.array([norms[c][2] if norms else 1.0 for c in lag_cols])
    first = spec.max_offset
    times = data.start_year + np.arange(first, n_obs + steps)
    states = np.empty((times.shape[0], spec.dimension), dtype=float)
    heads = np.arange(first, n_obs)[:, None]
    states[:n_obs - first] = (values[heads - lag_rows, lag_cols] - centre) / scale
    target_col = names.index(target)

    forecast_years = np.arange(data.end_year + 1, horizon_end + 1)
    variances = np.empty(steps, dtype=float)
    records: list = []
    for i, year in enumerate(forecast_years):
        last = n_obs + i - 1  # row of the latest known year
        cap = last if self_condition else n_obs - 1  # row of the last library target
        forward = values[first + 1:cap + 1]
        library = EmbeddingLibrary(spec, target, 1, times[:cap - first], states[:cap - first],
                                   forward[:, target_col], norms)
        query = (int(year) - 1, states[last - first].copy())
        step_values, step_vars, record = predict_step(library, forward, query)
        if adjust is not None:
            adjusted = adjust(int(year), dict(zip(names, step_values)))
            step_values = [adjusted[name] for name in names]
        row = last + 1
        values[row] = step_values
        variances[i] = step_vars[target_col]
        records.append(record)
        if i + 1 < steps:
            bad = np.flatnonzero(~np.isfinite(values[row]))
            if bad.size:
                raise ValueError(
                    f"series {names[bad[0]]!r} has a non-finite value "
                    f"{float(values[row, bad[0]])!r} in year {int(year)}"
                )
            states[row - first] = (values[row - lag_rows, lag_cols] - centre) / scale
    return forecast_years, values[n_obs:, target_col].copy(), variances, records


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

    def step(library: EmbeddingLibrary, targets: np.ndarray, query):
        neighbours = knn(library, query, cfg.effective_k, exclusion_radius=exclusion_radius)
        weights = simplex_weights(neighbours.distances)
        values: list[float] = []
        step_vars: list[float] = []
        for column in targets.T:
            chosen = column[neighbours.indices]
            value = float(weights @ chosen)
            values.append(value)
            step_vars.append(float(weights @ (chosen - value) ** 2))
        return values, step_vars, None

    years, predictions, variances, _ = run_iterative(
        data, cfg.spec, target, horizon_end, step, self_condition
    )
    return ForecastResult(
        target=target,
        times=years,
        predicted=predictions,
        observed=None,
        rho=UNDEFINED_SKILL,
        rmse=UNDEFINED_SKILL,
        band_halfwidth=1.96 * np.sqrt(np.cumsum(variances)),
        step_variance=variances,
    )
