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

The least-squares core uses singular-value semantics: singular values at
most 1e-10 of the largest are treated as zero and the minimum-norm solution
is returned, so near-duplicate library rows (common in short yearly
records) degrade gracefully instead of crashing.  An optional ridge term
penalises the slopes (never the intercept).

The one-step evaluation (``skill_eval``, also ``edmkit.smap_skill_eval``)
and the iterative extrapolation (``smap_iterative_forecast``) are the shared
protocol of ``edmkit.forecast``, re-exported here; ``SMapConfig._predict``
is the predictor they call.

Every S-map fit goes through one routine, ``_fit``, which has a theta axis:
the protocol's predictor, ``smap_predict`` (through it, on one query's
candidate rows in ascending time) and ``theta_search`` (on each block of
``skill_eval``'s queries) all call it.  Per call it computes the distances
of every query once, and the weights of every (theta, query) in one
exponential, each query scaled by its mean distance over its own library
prefix.  Each (theta, query, series) system ``[A | b]`` is square-root
weighted; each run of consecutive queries with one library size is written
into one buffer per call and factored by one stacked Householder QR
(``numpy.linalg.qr``).  The series of one (theta, query) share its design
triangle, so one stacked SVD per call, of one triangle per design, solves
every series.  The residual variance is read off the same factors, with no
second pass over the library.  A theta search thus makes one QR per query
for the whole grid, and a batch of scenarios one QR and one SVD per year.
A fit has the same bits whatever shares its stacks.  On unit-scale designs
with ridge 0 or 0.3, rank-deficient ones included, it agrees with one
``lstsq`` per system within 1e-9 relative (1e-12 absolute near zero).  A
rank-deficient design with a ridge at scale 1e-3 or 1e5 can miss that by up
to 9 times relative, since one solver keeps a direction near the 1e-10
singular-value cutoff that the other drops; the residual variance meets it
at scales 1e-3 to 1e5 and ridges 0 to 1e2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import KW_ONLY, dataclass
from typing import Iterable, Sequence

import numpy as np

from .embedding import EmbeddingLibrary, EmbeddingSpec, _candidate_rows, _distance_rows
from .forecast import ForecastResult, _one_step, best_row, skill_eval, write_skill_table
from .forecast import iterative_forecast as smap_iterative_forecast
from .timeseries import (Dataset, TimeSeries, _frozen, _refused, _require_finite, _row_dot,
                         _within, _write_csv, pearson_rho, rmse)

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


def _check_theta(theta: float) -> None:
    """Refuse a theta outside 0 <= theta <= 1e100 (``_BOUND``) by name."""
    _require_finite(theta=theta)
    if theta < 0:
        raise ValueError(f"theta must be >= 0, got {theta}")
    if not _within(theta):  # so theta * distance / mean stays finite
        raise ValueError(f"theta has a {_refused(theta)}")


@dataclass(frozen=True)
class SMapConfig:
    """S-map settings: embedding layout, localisation (0 <= theta <= 1e100), optional ridge."""

    spec: EmbeddingSpec
    theta: float
    _: KW_ONLY
    ridge: float = 0.0

    def __post_init__(self) -> None:
        _check_theta(self.theta)
        _require_finite(ridge=self.ridge)
        if self.ridge < 0:
            raise ValueError(f"ridge must be >= 0, got {self.ridge}")

    @property
    def _needs(self) -> tuple[int, str]:
        return self.spec.dimension + 2, f"dimension+2 = {self.spec.dimension + 2} points"

    def _predict(self, vectors, forward, queries, limits, distances=None):
        """The protocol's predictor (see ``edmkit.forecast``): one local fit per query.

        ``vectors`` and ``forward`` may carry a leading query axis; ``distances``
        are as ``_fit`` takes them.  Every call returns new arrays, so callers
        may keep views into them.
        """
        predictions, variances, coefficients = _fit(
            vectors, forward, queries, limits, np.array([self.theta]), self.ridge, distances)
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

    ``distances`` holds one query's distances, or one row per query, each
    row scaled by its own mean.  ``theta`` is one value, or a 1-D grid that
    gives one weight array per theta (a leading axis), each held to the
    ``SMapConfig`` rule.  Theta 0 and a mean distance of 0 give weights of
    exactly 1.0.  A distance that is negative, non-finite or beyond +-1e100
    (``timeseries._BOUND``) is named by a ValueError.
    """
    distances = np.asarray(distances, dtype=float)
    thetas = np.asarray(theta, dtype=float)
    for value in thetas.ravel().tolist():
        _check_theta(value)
    refused = ~(_within(distances) & (distances >= 0.0))
    if refused.any():
        value = float(distances[refused][0])
        raise ValueError(f"distance must be >= 0, got {value}" if _within(value)
                         else f"distance has a {_refused(value)}")
    if not distances.shape[-1]:
        return np.ones(thetas.shape + distances.shape)
    return _weights(distances, thetas, distances.sum(axis=-1, keepdims=True) / distances.shape[-1])


def _weights(distances: np.ndarray, thetas: np.ndarray, means: np.ndarray) -> np.ndarray:
    """The weight formula: ``exp(-theta * d / mean)`` for each theta of ``thetas``.

    ``means`` holds each row's mean distance (``distances``' shape with a
    last axis of 1).  Where theta or the mean is 0 every weight is 1.0.
    """
    thetas = thetas.reshape(thetas.shape + (1,) * distances.ndim)
    flat = (means == 0.0) | (thetas == 0.0)
    weights = np.exp(-thetas * distances / np.where(flat, 1.0, means))
    np.copyto(weights, 1.0, where=flat)  # also where a mean underflowed to 0
    return weights


def _fit(vectors: np.ndarray, forward: np.ndarray, queries: np.ndarray, limits,
         thetas: np.ndarray, ridge: float, distances: np.ndarray | None = None
         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S-map fits at each query state for every theta, one per forward column.

    ``vectors`` and ``forward`` (values aligned with its rows) hold one
    library for every query, or one per query along a leading query axis.
    Query ``q`` fits over the first ``limits[q]`` rows; ``limits`` is any
    sequence of ints, each at least ``dimension + 2``, which the callers
    check where they cut the library.

    ``distances``, when given, are the queries' distances to the longest
    prefix, a new array the fit may write; without them one pass finds them
    with ``_distance_rows``.  One exponential gives the weights of every
    (theta, query), each query scaled by its mean distance over its own
    prefix; a query's rows past its prefix get distance and weight 0, and a
    (theta, query) whose weights are all 0 is named by its theta before
    anything is factored.  Each (theta,
    query, column) then gets its own square-root-weighted system ``[A | b]``:
    the intercept column ``sqrt(w)``, the coordinates and the column's
    targets, with the ridge penalty rows last (target 0).  Each run of
    consecutive queries with one limit writes its systems, contiguous and
    transposed, into one buffer that the call allocates for its largest run,
    and one stacked Householder QR (``numpy.linalg.qr``, ``mode="raw"``)
    factors them, so each system's triangle ``R^T`` is the lower left corner
    of its leading (dimension + 2) square and ``Q^T b`` leads that square's
    last row.  Householder QR never lets a system's last column (its
    targets) touch the columns before it, so the columns of one (theta,
    query) share their (dimension + 1) design triangle bit for bit, and one
    stacked SVD of one triangle per (theta, query) serves every column:
    singular values at most ``_SV_CUTOFF`` times the largest count as 0,
    which gives ``lstsq``'s minimum-norm answer.

    The weighted residual sum of squares is read off the same factors
    (Golub and Van Loan, *Matrix Computations*, section 5.3): the square of
    R's last diagonal entry plus the squares of ``Q^T b`` along the dropped
    singular directions, less the ridge rows' ``ridge * |slopes|^2``,
    floored at 0 since rounding can cross it on an exact fit.  The variance
    divides it by the weight sum, the square of R's first diagonal entry
    (the norm of the intercept column).  Every design is solved on its own,
    so a fit has the same bits whatever else shares its stacks.  Returns
    (thetas, queries, columns) predictions and variances and (thetas,
    queries, columns, dimension + 1) coefficients, all new arrays.
    """
    dim = vectors.shape[-1]
    counts = np.asarray(limits).tolist()
    starts = [q for q, count in enumerate(counts) if q == 0 or count != counts[q - 1]]
    runs = list(zip(starts, starts[1:] + [len(counts)]))
    top = max(counts)
    if distances is None:
        distances = _distance_rows(vectors[..., :top, :], queries, "euclidean")
    means = np.empty((len(counts), 1))
    for lo, hi in runs:
        means[lo:hi] = distances[lo:hi, :counts[lo]].sum(axis=-1, keepdims=True) / counts[lo]
    if len(runs) > 1:  # no arithmetic on rows past a query's prefix can overflow
        past = np.arange(top) >= np.array(counts)[:, None]
        np.copyto(distances, 0.0, where=past)
    weights = _weights(distances, thetas, means)
    if len(runs) > 1:
        np.copyto(weights, 0.0, where=past)
    live = weights.any(axis=-1)
    if not live.all():  # past theta ~745 every exp(-theta d / mean) can underflow
        theta = float(thetas[np.flatnonzero(~live.all(axis=1))[0]])
        raise RuntimeError(f"every S-map weight of a query underflows to 0 at theta={theta:g}; "
                           f"choose a smaller theta")
    roots = np.sqrt(weights, out=weights)[:, :, None, None, :]  # (thetas, queries, 1, 1, rows)
    columns, extra = forward.shape[-1], dim if ridge > 0.0 else 0  # extra: the ridge rows
    buffer = np.empty(max(len(thetas) * (hi - lo) * columns * (dim + 2) * (counts[lo] + extra)
                          for lo, hi in runs))
    heads = np.empty((len(thetas), len(counts), columns, dim + 2, dim + 2))
    for lo, hi in runs:
        count = counts[lo]
        if vectors.ndim == 2:
            library, targets = vectors[:count], forward[:count]
        else:
            library, targets = vectors[lo:hi, :count], forward[lo:hi, :count]
        shape = (len(thetas), hi - lo, columns, dim + 2, count + extra)
        system = buffer[:math.prod(shape)].reshape(shape)
        root = roots[:, lo:hi, ..., :count]
        system[..., 0, :count] = root[..., 0, :]
        np.multiply(library.swapaxes(-1, -2)[..., None, :, :], root, out=system[..., 1:-1, :count])
        np.multiply(targets.swapaxes(-1, -2), root[..., 0, :], out=system[..., -1, :count])
        if extra:
            system[..., count:] = 0.0
            system[..., 1:-1, count:] = math.sqrt(ridge) * np.eye(dim)
        heads[:, lo:hi] = np.linalg.qr(system.swapaxes(-1, -2), mode="raw")[0][..., :dim + 2]
    # one design triangle per (theta, query), shared by its columns
    v, s, ut = (part[:, :, None] for part in np.linalg.svd(
        np.where(_lower(dim + 1), heads[:, :, 0, :-1, :-1], 0.0)))
    kept = s > _SV_CUTOFF * s[..., :1]
    projected = (ut @ heads[..., -1, :-1, None])[..., 0]  # Q^T b in the singular basis
    # a dropped value divides to 0
    coefficients = (v @ (projected / np.where(kept, s, np.inf))[..., None])[..., 0]
    intercepts, slopes = coefficients[..., 0], coefficients[..., 1:]
    dropped = np.where(kept, 0.0, projected)
    rss = heads[..., -1, -1] ** 2 + _row_dot(dropped, dropped)
    if extra:
        rss = np.maximum(rss - ridge * _row_dot(slopes, slopes), 0.0)
    return (intercepts + _row_dot(slopes, queries[:, None]), rss / heads[..., 0, 0] ** 2,
            coefficients)


@functools.cache
def _lower(size: int) -> np.ndarray:
    """The (size x size) lower-triangle mask; read-only, since every fit shares it."""
    mask = np.tri(size, dtype=bool)
    mask.flags.writeable = False
    return mask


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
    any fit.  ``_fit`` runs on ``skill_eval``'s blocks, one held at a time,
    with the distances ``forecast._one_step`` measures for each block, and
    each query's fit serves the whole grid: its distances, weights and
    design are shared by every theta.  Each theta's predictions are scored
    as ``skill_eval`` scores them.  ``threads`` is accepted and ignored.
    """
    thetas = [float(t) for t in theta_grid]
    configs = [SMapConfig(spec, theta, ridge=ridge) for theta in thetas]
    grid = sorted(set(thetas))
    if not grid:
        raise ValueError("theta grid is empty")
    full, _, queries, blocks = _one_step(data, target, configs[0], train_end, eval_start, eval_end,
                                         lambda *block, distances: _fit(
                                             *block, np.array(grid), ridge, distances)[0])
    predicted = np.concatenate(blocks, axis=1)
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
