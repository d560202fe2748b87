"""Yearly time-series containers, CSV ingestion, and forecast-skill metrics.

Every container is immutable after construction and every function is pure,
so all of them are safe to share across threads.  Time is a contiguous
integer year index; the sampling interval is fixed to one year and gaps are
rejected outright at load time.

Missing predictions (for example the warm-up years a delay embedding cannot
cover) are represented by NaN and are dropped before any metric is computed,
never imputed.  A metric that has no defined value, because fewer than two
valid pairs remain or one side has zero variance, is reported as the
explicit ``UNDEFINED_SKILL`` marker rather than silently coerced to 0.

Each series converts its values to a float64 array once, at construction.
``TimeSeries.to_array`` hands out that one array, shared and read-only: a
caller that needs to write must copy it first.  Containers take their arrays
through ``_frozen``, and every output file is written by ``_write_csv`` or
``_write_json``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "UNDEFINED_SKILL",
    "skill_defined",
    "TimeSeries",
    "Dataset",
    "load_csv",
    "align",
    "pearson_rho",
    "rmse",
]

#: Reported value of a skill metric that is undefined (too few valid pairs,
#: or zero variance in one of the sequences).  NaN so that it propagates and
#: can never be mistaken for "zero skill".
UNDEFINED_SKILL = float("nan")

#: The largest magnitude a value may have where it enters.  Within it every
#: distance, normalization, S-map norm and skill sum over N states of E
#: coordinates stays below about 4e200 * N * E, far from float64's 1.8e308.
_BOUND = 1e100


def skill_defined(value: float) -> bool:
    """True when a metric carries an actual value rather than the undefined marker."""
    return not math.isnan(value)


def _within(values):
    """True where a value lies within +-``_BOUND``: False for NaN and infinity too."""
    return np.abs(values) <= _BOUND


def _refused(value: float, noun: str = "value", shown: str | None = None) -> str:
    """How a value outside ``_within`` reads: ``shown`` (default its repr) and why."""
    value = float(value)
    shown = repr(value) if shown is None else shown
    return (f"{noun} {shown} beyond the magnitude bound {_BOUND:g}" if math.isfinite(value)
            else f"non-finite {noun} {shown}")


@dataclass(frozen=True)
class TimeSeries:
    """A named sequence of yearly observations on a contiguous year index.

    ``values[i]`` is the observation for year ``start_year + i``.  The series
    must be non-empty and every entry must lie within +-1e100 (``_BOUND``),
    which rules out NaN and infinity too.
    """

    name: str
    start_year: int
    values: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("time series needs a non-empty name")
        # int() of None still refuses a missing year
        object.__setattr__(self, "start_year", int(_whole_number("start_year", self.start_year)))
        array = np.fromiter(self.values, dtype=float)
        if not array.size:
            raise ValueError(f"series {self.name!r} is empty")
        bad = np.flatnonzero(~_within(array))
        if bad.size:
            raise ValueError(f"series {self.name!r} has a {_refused(array[bad[0]])} "
                             f"in year {self.start_year + int(bad[0])}")
        array.setflags(write=False)
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.values) - 1

    @property
    def years(self) -> range:
        return range(self.start_year, self.end_year + 1)

    def value_at(self, year: int) -> float:
        if not self.start_year <= year <= self.end_year:
            raise ValueError(
                f"year {year} outside series {self.name!r} "
                f"({self.start_year}..{self.end_year})"
            )
        return self.values[year - self.start_year]

    def window(self, first_year: int, last_year: int) -> "TimeSeries":
        """The sub-series covering ``first_year..last_year`` inclusive."""
        if first_year < self.start_year or last_year > self.end_year or first_year > last_year:
            raise ValueError(
                f"window {first_year}..{last_year} outside series "
                f"{self.name!r} ({self.start_year}..{self.end_year})"
            )
        lo = first_year - self.start_year
        hi = last_year - self.start_year + 1
        return TimeSeries(self.name, first_year, self.values[lo:hi])

    def to_array(self) -> np.ndarray:
        """The values as one read-only float64 array, the same object on every call."""
        return self._array


@dataclass(frozen=True)
class Dataset:
    """A bundle of time series sharing one aligned year range and unique names."""

    series: tuple[TimeSeries, ...]
    _by_name: dict[str, TimeSeries] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        members = tuple(self.series)
        if not members:
            raise ValueError("dataset needs at least one series")
        first = members[0]
        for s in members[1:]:
            if s.start_year != first.start_year or len(s) != len(first):
                raise ValueError(
                    f"series {s.name!r} ({s.start_year}, n={len(s)}) is not aligned "
                    f"with {first.name!r} ({first.start_year}, n={len(first)})"
                )
        by_name = {s.name: s for s in members}
        if len(by_name) != len(members):
            raise ValueError(f"duplicate series names: {sorted(s.name for s in members)}")
        object.__setattr__(self, "series", members)
        object.__setattr__(self, "_by_name", by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> TimeSeries:
        series = self._by_name.get(name)
        if series is None:
            raise KeyError(f"unknown series {name!r}; have {list(self.names)}")
        return series

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.series)

    @property
    def start_year(self) -> int:
        return self.series[0].start_year

    @property
    def end_year(self) -> int:
        return self.series[0].end_year

    @property
    def n_years(self) -> int:
        return len(self.series[0])

    @property
    def years(self) -> range:
        return self.series[0].years

    @staticmethod
    def from_columns(start_year: int, columns: Mapping[str, Sequence[float]]) -> "Dataset":
        return Dataset(tuple(TimeSeries(n, start_year, v) for n, v in columns.items()))

    def with_values(self, replacements: Mapping[str, Sequence[float]]) -> "Dataset":
        """A copy where the named series carry new values on the same year range."""
        new = {name: TimeSeries(name, self[name].start_year, values)
               for name, values in replacements.items()}
        for name, series in new.items():
            if len(series) != self.n_years:
                raise ValueError(f"replacement for {name!r} has {len(series)} values, the dataset "
                                 f"covers {self.n_years} years ({self.start_year}..{self.end_year})")
        return Dataset(tuple(new.get(s.name, s) for s in self.series))

    def restrict(self, first_year: int, last_year: int) -> "Dataset":
        return Dataset(tuple(s.window(first_year, last_year) for s in self.series))

    def to_csv(self, path, year_column: str = "year") -> None:
        """Write the dataset as UTF-8 CSV; values round-trip exactly through load_csv."""
        _write_csv(path, [year_column, *self.names],
                   ([year, *map(_format_value, row)]
                    for year, *row in zip(self.years, *(s.values for s in self.series))))


def _format_value(v: float) -> str:
    # Integral counts stay integers (-0.0 as "-0"); everything else uses the
    # shortest decimal that round-trips the float64 exactly.
    if v == int(v) and abs(v) < 2**53:
        return f"{v:.0f}"
    return repr(v)


def _cell(v: float) -> str:
    # a CSV cell: NaN (undefined) is an empty cell, everything else round-trips
    return "" if math.isnan(v) else repr(float(v))


def _jsonable(v: float):
    # a JSON value: NaN (undefined) is null
    return None if math.isnan(v) else float(v)


def _frozen(value, dtype=float) -> np.ndarray:
    """``value`` as a read-only array: a writeable one is copied first, a read-only one reused."""
    array = np.asarray(value, dtype=dtype)
    if array.flags.writeable:
        array = array.copy()
        array.setflags(write=False)
    return array


def _write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as UTF-8 CSV in the csv module's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, value) -> None:
    """Write ``value`` as UTF-8 JSON, indented by 2 with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(value, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _require_finite(**fields) -> None:
    # NaN passes every ``x < 0`` range check, so configs reject it by name first
    for name, value in fields.items():
        try:
            finite = value is None or math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"{name} is too large, got an integer of "
                             f"{value.bit_length()} bits") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _whole_number(name: str, value):
    """``value`` as an int (None kept); a fraction or a non-number is rejected by name."""
    if value is None:
        return None
    try:
        fraction = value % 1 != 0  # also NaN and ±inf
    except TypeError:  # a string, say, which int() would parse
        fraction = True
    if fraction:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _flag(name: str, value) -> bool:
    """``value`` as a bool; anything but a ``bool`` or ``numpy.bool_`` is rejected by name."""
    if not isinstance(value, (bool, np.bool_)):  # "no" is truthy, 2 is not a setting
        raise ValueError(f"{name} must be True or False, got {value!r}")
    return bool(value)


def load_csv(path, year_column: str = "year") -> Dataset:
    """Load a yearly dataset from a CSV file with a header row.

    The file must have one integer year column, strictly increasing by one,
    plus at least one numeric value column.  Each value column becomes a
    TimeSeries named after its header.  The file is read as UTF-8; a leading
    byte-order mark, as Excel's "CSV UTF-8" writes, is skipped.

    Raises FileNotFoundError for a missing file and ValueError, naming the
    offending row by its file line (blank lines counted), for non-numeric or
    non-finite cells or cells beyond +-1e100 (``_BOUND``), duplicate years, or
    year gaps.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such data file: {path}")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)  # line_num: the file line a row ends on
        rows = [(reader.line_num, row) for row in reader if any(cell.strip() for cell in row)]
    if not rows:
        raise ValueError(f"{path}: empty file")
    header = [cell.strip() for cell in rows[0][1]]
    if year_column not in header:
        raise ValueError(f"{path}: no {year_column!r} column in header {header}")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header {header}")
    year_idx = header.index(year_column)
    value_names = [h for i, h in enumerate(header) if i != year_idx]
    if not value_names:
        raise ValueError(f"{path}: need at least one value column besides {year_column!r}")

    years: list[int] = []
    columns: dict[str, list[float]] = {name: [] for name in value_names}
    for row_no, row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
        cell = row[year_idx].strip()
        try:
            year = int(cell)
        except ValueError:
            raise ValueError(f"{path}: row {row_no}: year {cell!r} is not an integer") from None
        if years:
            if year == years[-1]:
                raise ValueError(f"{path}: duplicate year at row {row_no}")
            if year != years[-1] + 1:
                raise ValueError(f"{path}: year gap at row {row_no}")
        years.append(year)
        value_cells = [c for i, c in enumerate(row) if i != year_idx]
        for name, cell in zip(value_names, value_cells):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: row {row_no}: non-numeric value {cell.strip()!r} in column {name!r}"
                ) from None
            if not _within(value):
                raise ValueError(f"{path}: row {row_no}: "
                                 f"{_refused(value, shown=repr(cell.strip()))} in column {name!r}")
            columns[name].append(value)

    if not years:
        raise ValueError(f"{path}: no data rows")
    return Dataset.from_columns(years[0], columns)


def align(datasets: Iterable[Dataset]) -> Dataset:
    """Merge datasets into one, truncated to the intersection of their year ranges.

    Raises ValueError if the intersection is empty or series names collide.
    """
    members = list(datasets)
    if not members:
        raise ValueError("align needs at least one dataset")
    first = max(d.start_year for d in members)
    last = min(d.end_year for d in members)
    if first > last:
        raise ValueError("no overlap between dataset year ranges")
    series: list[TimeSeries] = []
    for d in members:
        series.extend(d.restrict(first, last).series)
    return Dataset(tuple(series))


def _paired(observed, predicted) -> tuple[np.ndarray, np.ndarray]:
    obs = np.asarray(observed, dtype=float)
    pred = np.asarray(predicted, dtype=float)
    if obs.ndim != 1 or obs.shape != pred.shape:
        raise ValueError(
            f"metrics need two equal-length 1-D sequences, got {obs.shape} and {pred.shape}"
        )
    keep = ~np.isnan(obs) & ~np.isnan(pred)
    return obs[keep], pred[keep]


def pearson_rho(observed, predicted) -> float:
    """Pearson correlation between paired values, NaN pairs dropped first.

    Returns UNDEFINED_SKILL when fewer than two valid pairs remain or either
    side has zero variance (a constant forecast is undefined skill, not zero).
    """
    obs, pred = _paired(observed, predicted)
    if obs.size < 2:
        return UNDEFINED_SKILL
    return float(_rho_rows(obs, pred[None])[0])


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of ``a`` and ``b`` along the last axis, broadcast over the others.

    Each is a stacked 1-D matmul over contiguous rows, so it rounds like the 1-D
    ``a[i] @ b[i]`` whatever the number of rows; a product summed along the row does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _rho_rows(observed: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Pearson correlation of ``observed`` with each row of ``predicted``.

    The one correlation formula: both sides hold at least two values and no
    NaN.  A row whose side has zero variance gets UNDEFINED_SKILL.  A row's
    result has the same bits whatever the number of rows.
    """
    o = observed - observed.mean()
    p = predicted - predicted.mean(axis=1, keepdims=True)
    so = math.sqrt(float(o @ o))
    sp = np.sqrt(_row_dot(p, p))
    op = _row_dot(o, p)
    defined = (so != 0.0) & (sp != 0.0)
    rho = np.divide(op, so * sp, out=np.full_like(op, UNDEFINED_SKILL), where=defined)
    return np.clip(rho, -1.0, 1.0)


def rmse(observed, predicted) -> float:
    """Root mean squared error over valid pairs; UNDEFINED_SKILL when none remain."""
    obs, pred = _paired(observed, predicted)
    if obs.size == 0:
        return UNDEFINED_SKILL
    residual = obs - pred
    return float(math.sqrt(float(residual @ residual) / obs.size))
