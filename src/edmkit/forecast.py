"""The forecasting protocol shared by simplex projection and the S-map.

The two methods differ only in how one query state is predicted; everything
around that prediction lives here, together with the result type and the
skill-table helpers of the parameter searches.

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
from typing import Callable, Sequence

import numpy as np

from .embedding import (EmbeddingLibrary, EmbeddingSpec, _check_state_time, _gather, _layout,
                        multivariate_embed)
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


def _result(target: str, times: np.ndarray, predicted: np.ndarray, variance: np.ndarray,
            band_variance: np.ndarray, records: list, labels: tuple[str, ...] | None,
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
        coefficients=None if labels is None else np.vstack(records),
        coefficient_labels=labels,
    )


def one_step_eval(data: Dataset, target: str, spec: EmbeddingSpec, train_end: int,
                  eval_start: int | None, eval_end: int | None,
                  predict_rows: Callable[[EmbeddingLibrary, np.ndarray], tuple],
                  labels: tuple[str, ...] | None = None) -> ForecastResult:
    """Expanding-window one-step evaluation, scored with Pearson rho and RMSE.

    The evaluation years run from ``eval_start`` (default ``train_end + 1``)
    through ``eval_end`` (default the last observed year).  For each year t
    the library holds every embeddable point whose target falls at or before
    t-1, and the query is the state at t-1.  Both come from the full
    library: the query is its row ``r`` and the library is the prefix of
    rows below ``r`` (``full.targets_through(t - 1)``), so the model never
    sees the value it is asked to predict.  The queries go to the predictor
    in blocks of ascending rows, each block sized so that its rows times the
    library size times the dimension stay within ``_BLOCK_ELEMENTS``:
    ``predict_rows(full, rows)`` returns ``(predictions, variances,
    records)`` with one entry per row; with ``labels`` the records are the
    result's coefficient rows.
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
    predicted = np.empty(times.shape[0], dtype=float)
    variance = np.empty(times.shape[0], dtype=float)
    records: list = []
    step = max(1, _BLOCK_ELEMENTS // (len(full) * spec.dimension))
    for lo in range(0, rows.shape[0], step):
        block = slice(lo, lo + step)
        predicted[block], variance[block], block_records = predict_rows(full, rows[block])
        records.extend(block_records)
    return _result(target, times, predicted, variance, variance, records, labels,
                   observed=full.targets[rows])


def extension_names(spec: EmbeddingSpec, target: str) -> tuple[str, ...]:
    """Series an iterative forecast must extend: every input, plus the target."""
    names = [name for name, _ in spec.columns]
    if target not in names:
        names.append(target)
    return tuple(names)


def run_iterative(data: Dataset, spec: EmbeddingSpec, target: str, horizon_end: int,
                  predict_step: Callable, self_condition: bool = True,
                  adjust: Callable[[int, dict[str, float]], dict[str, float]] | None = None,
                  labels: tuple[str, ...] | None = None) -> ForecastResult:
    """Year-at-a-time extrapolation to ``horizon_end``.

    The loop allocates once: a float64 buffer with one row per year for
    every extended series, and the delay vectors for every row, transformed
    with norms frozen from the observed data.  Each forecast year writes
    one row of each.  ``predict_step(library, targets, query)`` gets the
    target's ``EmbeddingLibrary`` over a prefix of those vectors, the
    forward values of every extended series at each library point (one
    column per series, in ``extension_names`` order) and the latest state
    as ``(last_year, vector)``; it returns ``(values, variances, record)``
    with one value and one variance per column and a per-step record; with
    ``labels`` the records are the result's coefficient rows.  With self
    conditioning (the default) each prediction is appended as if observed,
    so the library grows along the forecast; without it the library stays
    capped at the observed record while query states are still formed from
    the extended series.  ``adjust`` is applied to each year's predictions
    before they are appended, which lets policy engines inject
    interventions the later steps can see.  A non-finite value that a later
    step would use raises ValueError naming its series and year.  The band
    accumulates the target's step variance along the horizon.
    """
    if horizon_end <= data.end_year:
        raise ValueError(
            f"horizon {horizon_end} must lie beyond the observed record ({data.end_year})"
        )
    names = extension_names(spec, target)
    n_obs = data.n_years
    steps = horizon_end - data.end_year
    values = np.empty((n_obs + steps, len(names)), dtype=float)
    values[:n_obs] = np.column_stack([data[name].to_array() for name in names])
    norms = multivariate_embed(data, spec, target, tp=1).norms  # frozen from observed data
    layout = _layout(spec, norms)  # the spec's series lead ``names``, in spec order
    first = spec.max_offset
    times = data.start_year + np.arange(first, n_obs + steps)
    states = np.empty((times.shape[0], spec.dimension), dtype=float)
    states[:n_obs - first] = _gather(values, np.arange(first, n_obs), layout)
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
            states[row - first] = _gather(values, row, layout)
    return _result(target, forecast_years, values[n_obs:, target_col].copy(), variances,
                   np.cumsum(variances), records, labels)


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
