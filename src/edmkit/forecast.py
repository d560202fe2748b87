"""The forecasting protocol shared by simplex projection and the S-map.

The two methods differ only in how they predict from reconstructed states;
everything around that prediction lives here, together with the result type
and the skill-table helpers of the parameter searches.

Two evaluation modes are provided: an expanding-window one-step-ahead skill
evaluation against held-out history, and an iterative extrapolation that by
default appends its own predictions to the library ("self conditioning") so
the reconstruction can extend past the observed record.

Both modes call one predictor per method, ``predict(vectors, forward,
queries, limits, sizes, radius)``.  ``vectors`` holds library states in
ascending time and ``forward`` the next value of each predicted series
after each state.  Query ``q`` may use only the first ``limits[q]`` rows,
``searchsorted(times, query_time - radius)``, which is exactly its
admissible library because every library time precedes the query's.
``sizes[q]`` (its library size before the exclusion window) and ``radius``
only name a shortfall.  It returns (queries, columns) predictions and
variances, and None or (queries, columns, dimension + 1) coefficients.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .embedding import (EmbeddingSpec, _check_radius, _check_state_time, _gather, _layout,
                        _prefix_limits, multivariate_embed)
from .timeseries import UNDEFINED_SKILL, Dataset, _cell, _jsonable, pearson_rho, rmse

__all__ = [
    "ForecastResult",
    "one_step_eval",
    "run_iterative",
    "extension_names",
    "best_row",
    "write_skill_table",
]


#: Most coordinate differences one block of one-step queries may hold
#: (query rows x library rows x dimension), about 0.4 MB of float64.
_BLOCK_ELEMENTS = 48_000


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
            "rho": _jsonable(self.rho),
            "rmse": _jsonable(self.rmse),
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


def _result(target: str, spec: EmbeddingSpec, times: np.ndarray, predicted: np.ndarray,
            variance: np.ndarray, band_variance: np.ndarray, coefficients: np.ndarray | None,
            observed: np.ndarray | None = None) -> ForecastResult:
    """A result scored against ``observed`` (unscored without), band from ``band_variance``."""
    scored = observed is not None
    return ForecastResult(
        target=target,
        times=times,
        predicted=predicted,
        observed=observed,
        rho=pearson_rho(observed, predicted) if scored else UNDEFINED_SKILL,
        rmse=rmse(observed, predicted) if scored else UNDEFINED_SKILL,
        band_halfwidth=1.96 * np.sqrt(band_variance),
        step_variance=variance,
        coefficients=coefficients,
        coefficient_labels=None if coefficients is None
        else ("intercept", *spec.coordinate_labels()),
    )


def one_step_eval(data: Dataset, target: str, spec: EmbeddingSpec, train_end: int,
                  eval_start: int | None, eval_end: int | None,
                  predict: Callable) -> ForecastResult:
    """Expanding-window one-step evaluation, scored with Pearson rho and RMSE.

    The evaluation years run from ``eval_start`` (default ``train_end + 1``)
    through ``eval_end`` (default the last observed year).  Year t is
    predicted from the state at t-1, row ``r`` of the full library, using the
    rows below ``r`` outside the spec's exclusion window, so the model never
    sees the value it is asked to predict.  Queries go to ``predict`` in
    blocks of ascending rows whose rows times library size times dimension
    stay within ``_BLOCK_ELEMENTS``.
    """
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
    full = multivariate_embed(data, spec, target, tp=1)
    _check_state_time(data, spec, start - 1)
    times = np.arange(start, end + 1)
    rows = times - 1 - int(full.times[0])  # row of each query state
    limits = _prefix_limits(full.times, full.times[rows], spec.radius)
    step = max(1, _BLOCK_ELEMENTS // (len(full) * spec.dimension))
    blocks = [predict(full.vectors, full.targets[:, None], full.vectors[rows[lo:lo + step]],
                      limits[lo:lo + step], rows[lo:lo + step], spec.radius)
              for lo in range(0, rows.shape[0], step)]
    predicted, variance, coefficients = (
        None if parts[0] is None else np.concatenate(parts)[:, 0] for parts in zip(*blocks))
    return _result(target, spec, times, predicted, variance, variance, coefficients,
                   observed=full.targets[rows])


def extension_names(spec: EmbeddingSpec, target: str) -> tuple[str, ...]:
    """Series an iterative forecast must extend: every input, plus the target."""
    names = [name for name, _ in spec.columns]
    if target not in names:
        names.append(target)
    return tuple(names)


def run_iterative(data: Dataset, spec: EmbeddingSpec, target: str, horizon_end: int,
                  predict: Callable, self_condition: bool = True,
                  adjust: Callable[[int, dict[str, float]], dict[str, float]] | None = None,
                  exclusion_radius: int = 0) -> ForecastResult:
    """Year-at-a-time extrapolation to ``horizon_end``.

    The loop allocates once: a float64 buffer with one row per year for
    every extended series (``extension_names``, one forward column each),
    and the delay vectors for every row, transformed with norms frozen from
    the observed data.  Each year ``predict`` gets a prefix of those vectors
    as the library and the latest state as its one query, under
    ``exclusion_radius``, and the year writes one row of each.  With self
    conditioning (the default) each prediction is appended as if observed,
    so the library grows along the forecast; without it the library stays
    capped at the observed record while query states are still formed from
    the extended series.  ``adjust`` is applied to each year's predictions
    before they are appended, which lets policy engines inject
    interventions the later steps can see.  A non-finite value that a later
    step would use raises ValueError naming its series and year.  The band
    accumulates the target's step variance along the horizon; coefficient
    rows, where ``predict`` returns them, are the target's.
    """
    if horizon_end <= data.end_year:
        raise ValueError(
            f"horizon {horizon_end} must lie beyond the observed record ({data.end_year})"
        )
    radius = _check_radius(exclusion_radius)
    names = extension_names(spec, target)
    n_obs = data.n_years
    steps = horizon_end - data.end_year
    norms = multivariate_embed(data, spec, target, tp=1).norms  # frozen from observed data
    first = spec.max_offset
    try:  # every array that grows with the horizon, so one too long for memory is named
        values = np.empty((n_obs + steps, len(names)), dtype=float)
        states = np.empty((n_obs + steps - first, spec.dimension), dtype=float)
        variances = np.empty(steps, dtype=float)
    except (MemoryError, ValueError):
        raise ValueError(f"horizon {horizon_end} lies too far past the record "
                         f"({data.end_year}) to fit in memory") from None
    values[:n_obs] = np.column_stack([data[name].to_array() for name in names])
    layout = _layout(spec, norms)  # the spec's series lead ``names``, in spec order
    times = data.start_year + np.arange(first, n_obs + steps)
    states[:n_obs - first] = _gather(values, np.arange(first, n_obs), layout)
    target_col = names.index(target)

    forecast_years = np.arange(data.end_year + 1, horizon_end + 1)
    coefficients: list = []
    for i, year in enumerate(forecast_years):
        query = n_obs + i - 1 - first  # state row of the latest known year
        size = query if self_condition else n_obs - 1 - first  # library rows
        limits = _prefix_limits(times[:size], times[query:query + 1], radius)
        step_values, step_vars, step_coefs = predict(
            states[:size], values[first + 1:first + 1 + size], states[query:query + 1],
            limits, (size,), radius)
        step_values = step_values[0].tolist()
        if adjust is not None:
            adjusted = adjust(int(year), dict(zip(names, step_values)))
            step_values = [adjusted[name] for name in names]
        row = first + query + 1
        values[row] = step_values
        variances[i] = step_vars[0, target_col]
        if step_coefs is not None:
            coefficients.append(step_coefs[0, target_col])
        if i + 1 < steps:
            bad = np.flatnonzero(~np.isfinite(values[row]))
            if bad.size:
                raise ValueError(
                    f"series {names[bad[0]]!r} has a non-finite value "
                    f"{float(values[row, bad[0]])!r} in year {int(year)}"
                )
            states[row - first] = _gather(values, row, layout)
    return _result(target, spec, forecast_years, values[n_obs:, target_col].copy(), variances,
                   np.cumsum(variances), np.vstack(coefficients) if coefficients else None)


def best_row(rows: Sequence[tuple[float, float, float]], what: str) -> tuple[float, float, float]:
    """The (parameter, rho, rmse) row with the highest rho.

    Rows must be in ascending parameter order: ties go to the smallest
    parameter, and a row whose rho is undefined never wins.
    """
    best = None
    for row in rows:
        if not math.isnan(row[1]) and (best is None or row[1] > best[1]):
            best = row
    if best is None:
        raise RuntimeError(f"no {what} produced a defined skill")
    return best


def write_skill_table(path, header: Sequence[str], rows: Sequence[tuple[float, float, float]],
                      fmt: Callable[[float], str]) -> None:
    """Write (parameter, rho, rmse) rows; ``fmt`` renders the parameter."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for parameter, rho_value, rmse_value in rows:
            writer.writerow([fmt(parameter), _cell(rho_value), _cell(rmse_value)])
