"""The forecasting protocol shared by simplex projection and the S-map.

The two methods differ only in how they predict from reconstructed states;
everything around that prediction lives here, together with the result type
and the skill-table helpers of the parameter searches.

There is one pair of entry points, each taking a method's config
(``SimplexConfig`` or ``SMapConfig``): ``skill_eval``, an expanding-window
one-step-ahead skill evaluation against held-out history, and
``iterative_forecast``, an extrapolation that by default appends its own
predictions to the library ("self conditioning") so the reconstruction can
extend past the observed record.

Each config supplies its predictor, ``cfg._predict(vectors, forward,
queries, limits)``, and both loops call it the same way.  ``vectors`` holds
library states in ascending time and ``forward`` the next value of each
predicted series after each state; both may carry a leading query axis,
(queries, rows, dimension) and (queries, rows, series), which gives each
query its own library.  Query ``q`` may use only the first
``limits[q]`` rows, where ``limits`` is any sequence of ints: its library
holds consecutive years before the query's, so for the query state at row
``r`` that is the row offset ``max(r - radius, 0)``, capped at the
library's size.  It returns (queries, columns) predictions and variances,
and None or (queries, columns, dimension + 1) coefficients.  It only
predicts: ``cfg._needs`` states the rows it needs and how a shortfall words
them, and each loop checks its first query, which has the fewest rows.

A single one-step routine, ``_one_step``, serves ``skill_eval`` (with
``cfg._predict``) and ``smap.theta_search`` (with the S-map fit over its
theta grid), one block of queries at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .embedding import (EmbeddingSpec, _block_rows, _check_admissible, _check_radius,
                        _check_state_time, _gather, _layout, multivariate_embed)
from .timeseries import (UNDEFINED_SKILL, Dataset, _cell, _frozen, _jsonable, _refused,
                         _whole_number, _within, _write_csv, _write_json, pearson_rho, rmse)

if TYPE_CHECKING:
    from .simplex import SimplexConfig
    from .smap import SMapConfig

__all__ = [
    "ForecastResult",
    "skill_eval",
    "iterative_forecast",
    "extension_names",
    "best_row",
    "write_skill_table",
]


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
        object.__setattr__(self, "times", _frozen(self.times, int))
        for name in ("predicted", "band_halfwidth", "step_variance"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        for name in ("observed", "coefficients"):
            value = getattr(self, name)
            object.__setattr__(self, name, None if value is None else _frozen(value))
        n = self.times.shape[0]
        if any(getattr(self, name).shape != (n,)
               for name in ("predicted", "band_halfwidth", "step_variance")):
            raise ValueError("times, predicted, band_halfwidth, step_variance must match")
        if self.observed is not None and self.observed.shape != (n,):
            raise ValueError("observed must match times")
        if self.coefficients is not None and (self.coefficients.ndim != 2
                                              or self.coefficients.shape[0] != n):
            raise ValueError(f"coefficients must be a 2-D array with one row per step, "
                             f"got shape {self.coefficients.shape}")

    def value_at(self, year: int) -> float:
        where = np.nonzero(self.times == year)[0]
        if where.size == 0:
            raise ValueError(f"no forecast step for year {year}")
        return float(self.predicted[where[0]])

    def to_csv(self, path) -> None:
        """Write rows of (year, predicted, observed, band_lo, band_hi)."""
        observed = np.full(len(self.times), math.nan) if self.observed is None else self.observed
        _write_csv(path, ["year", "predicted", "observed", "band_lo", "band_hi"],
                   ([int(year), _cell(pred), _cell(obs), _cell(pred - half), _cell(pred + half)]
                    for year, pred, obs, half in zip(self.times, self.predicted, observed,
                                                     self.band_halfwidth)))

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
        _write_json(path, self.as_dict())


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


def _one_step(data: Dataset, target: str, cfg: SimplexConfig | SMapConfig, train_end: int,
              eval_start: int | None, eval_end: int | None, predict: Callable):
    """Run the one-step evaluation: (library, years, query rows, ``predict``'s blocks).

    Checks the evaluation range, embeds the full library and finds the library
    row of each query state and its admissible prefix, of which the first,
    the shortest, is checked against ``cfg._needs``.  ``predict(vectors,
    forward, queries, limits)`` gets blocks of ascending rows, as many per
    block as ``embedding._block_rows`` allows against the full library.
    """
    spec = cfg.spec
    train_end, eval_start, eval_end = (_whole_number(name, year) for name, year in (
        ("train_end", train_end), ("eval_start", eval_start), ("eval_end", eval_end)))
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
    # a radius past the library's length admits nothing; capped there, it fits int64
    limits = np.maximum(rows - min(spec.radius, len(full)), 0)
    _check_admissible(cfg._needs, int(limits[0]), int(rows[0]), spec.radius)
    step = _block_rows(len(full), spec.dimension)
    blocks = [predict(full.vectors, full.targets[:, None], full.vectors[rows[lo:lo + step]],
                      limits[lo:lo + step]) for lo in range(0, rows.shape[0], step)]
    return full, times, rows, blocks


def skill_eval(data: Dataset, target: str, cfg: SimplexConfig | SMapConfig, train_end: int,
               eval_start: int | None = None, eval_end: int | None = None) -> ForecastResult:
    """Expanding-window one-step evaluation, scored with Pearson rho and RMSE.

    The evaluation years run from ``eval_start`` (default ``train_end + 1``)
    through ``eval_end`` (default the last observed year).  Year t is
    predicted from the state at t-1, row ``r`` of the full library, using the
    rows below ``r`` outside the spec's exclusion window, so the model never
    sees the value it is asked to predict.  Queries go to ``cfg._predict`` in
    ``_one_step``'s blocks.  An S-map result carries the per-step coefficient
    rows, so interaction strengths can be read off the evaluation period.
    """
    full, times, rows, blocks = _one_step(data, target, cfg, train_end, eval_start, eval_end,
                                          cfg._predict)
    predicted, variance, coefficients = (
        None if parts[0] is None else np.concatenate(parts)[:, 0] for parts in zip(*blocks))
    return _result(target, cfg.spec, times, predicted, variance, variance, coefficients,
                   observed=full.targets[rows])


def extension_names(spec: EmbeddingSpec, target: str) -> tuple[str, ...]:
    """Series an iterative forecast must extend: every input, plus the target."""
    names = [name for name, _ in spec.columns]
    if target not in names:
        names.append(target)
    return tuple(names)


def iterative_forecast(data: Dataset, target: str, cfg: SimplexConfig | SMapConfig,
                       horizon_end: int, self_condition: bool = True,
                       adjust: Callable[[int, dict[str, float]], dict[str, float]] | None = None,
                       exclusion_radius: int = 0) -> ForecastResult:
    """Year-at-a-time extrapolation to ``horizon_end``.

    Multivariate specs extend every input series jointly
    (``extension_names``): all series are predicted from the same extended
    state, simplex averaging each series' own forward values under shared
    neighbour weights and the S-map fitting each its own local regression,
    so the joint trajectory stays coherent.  The loop allocates once: a
    float64 buffer with one row per year for every extended series, and the
    delay vectors for every row, transformed with norms frozen from the
    observed data.  Each year ``cfg._predict`` gets a prefix of those
    vectors as the library and the latest state as its one query, under
    ``exclusion_radius``, and the year writes one row of each.  With self
    conditioning (the default) each prediction is appended as if observed,
    so the library grows along the forecast; without it the library stays
    capped at the observed record while query states are still formed from
    the extended series.  ``adjust`` (if given) maps each year's predicted
    values before they join the library, which is how policy interventions
    are injected mid-forecast where later steps can see them.  A value that a
    later step would use and that is non-finite or beyond +-1e100
    (``timeseries._BOUND``), or z-scored past it under ``normalize=True``,
    raises ValueError naming its series (or coordinate) and year.
    The band accumulates the target's step variance along the horizon, so it
    can only widen; an S-map result keeps the target's coefficient row per
    step.  This is ``_lockstep`` for one record.

    Inside the generative loop the temporal exclusion window defaults to 0:
    the freshest states (including values the forecast itself appended) are
    the only analogues of the advancing edge, and the window's purpose,
    blocking autocorrelation shortcuts when scoring against held-out
    observations, does not apply to open-ended continuation.
    """
    return _lockstep([data], target, cfg, horizon_end, [adjust], self_condition,
                     exclusion_radius)[0]


def _lockstep(records: Sequence[Dataset], target: str, cfg: SimplexConfig | SMapConfig,
              horizon_end: int,
              adjusts: Sequence[Callable[[int, dict[str, float]], dict[str, float]] | None],
              self_condition: bool = True, exclusion_radius: int = 0,
              labels: Sequence[str] | None = None) -> list[ForecastResult]:
    """``iterative_forecast`` of several records, one ``cfg._predict`` call per year.

    The records span the same years.  Each keeps its own norms, buffers and
    ``adjust``, and gives ``cfg._predict`` its own library along a leading
    query axis, so each year's call predicts every record at once.  A value
    past the bound also names its record's label (``labels``).
    """
    spec = cfg.spec
    data = records[0]
    horizon_end = _whole_number("horizon_end", horizon_end)
    if horizon_end <= data.end_year:
        raise ValueError(
            f"horizon {horizon_end} must lie beyond the observed record ({data.end_year})"
        )
    radius = _check_radius(exclusion_radius)
    names = extension_names(spec, target)
    batch, n_obs = len(records), data.n_years
    steps = horizon_end - data.end_year
    # norms frozen from each record's observed data; the spec's series lead ``names``
    layouts = [_layout(spec, multivariate_embed(record, spec, target, tp=1).norms)
               for record in records]
    first = spec.max_offset
    try:  # every array that grows with the horizon, so one too long for memory is named
        values = np.empty((batch, n_obs + steps, len(names)), dtype=float)
        states = np.empty((batch, n_obs + steps - first, spec.dimension), dtype=float)
        variances = np.empty((batch, steps), dtype=float)
    except (MemoryError, ValueError):
        raise ValueError(f"horizon {horizon_end} lies too far past the record "
                         f"({data.end_year}) to fit in memory") from None
    for record, layout, buffer, vectors in zip(records, layouts, values, states):
        buffer[:n_obs] = np.column_stack([record[name].to_array() for name in names])
        vectors[:n_obs - first] = _gather(buffer, np.arange(first, n_obs), layout)
    target_col = names.index(target)
    observed = n_obs - 1 - first  # year 0's library and query row; no later year has less
    _check_admissible(cfg._needs, max(observed - radius, 0), observed, radius)

    def check(part, kind, named, year):  # the first entry of a (records, named) row past the bound
        within = _within(part)
        if not within.all():
            b, col = divmod(int(np.flatnonzero(~within)[0]), len(named))
            where = "" if labels is None else f"{labels[b]}: "
            raise ValueError(f"{where}{kind} {named[col]!r} has a {_refused(part[b, col])} "
                             f"in year {year}")

    forecast_years = np.arange(data.end_year + 1, horizon_end + 1)
    coefficients: list = []
    lead = 0 if batch == 1 else slice(None)  # one record's library costs less as 2-D arrays
    coordinates = spec.coordinate_labels()
    for i, year in enumerate(forecast_years.tolist()):
        query = observed + i  # state row of the latest known year
        size = query if self_condition else observed  # library rows
        limit = min(size, max(query - radius, 0))  # rows more than radius years back
        step_values, step_vars, step_coefs = cfg._predict(
            states[lead, :size], values[lead, first + 1:first + 1 + size], states[:, query],
            [limit] * batch)
        row = first + query + 1
        values[:, row] = step_values
        for b, adjust in enumerate(adjusts):
            if adjust is not None:
                adjusted = adjust(year, dict(zip(names, step_values[b].tolist())))
                values[b, row] = [adjusted[name] for name in names]
        variances[:, i] = step_vars[:, target_col]
        if step_coefs is not None:
            coefficients.append(step_coefs[:, target_col])
        if i + 1 < steps:
            check(values[:, row], "series", names, year)
            for vectors, buffer, layout in zip(states, values, layouts):
                vectors[row - first] = _gather(buffer, row, layout)
            if spec.normalize:  # a raw coordinate is a value checked above; a z-score need not be
                check(states[:, row - first], "z-scored coordinate", coordinates, year)
    tracks = np.stack(coefficients, axis=1) if coefficients else [None] * batch
    return [_result(target, spec, forecast_years, values[b, n_obs:, target_col], variances[b],
                    np.cumsum(variances[b]), tracks[b]) for b in range(batch)]


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
    _write_csv(path, header, ([fmt(parameter), _cell(rho_value), _cell(rmse_value)]
                              for parameter, rho_value, rmse_value in rows))
