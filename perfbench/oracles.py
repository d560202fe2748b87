"""Straight-line reference implementations for the benchmark's spot checks.

Nothing here imports edmkit: every reference works on plain lists of
values in index space (index 0 is the first year of a series), so a change
to the package's containers, embedding or neighbour search cannot change
what the benchmark compares against.  Each reference follows the semantics
the package documents:

* delay vectors concatenate ``s(t), s(t-1), ...`` blocks in column order;
* simplex uses Euclidean distance, ``k = dimension + 1`` neighbours ordered
  by (distance, time), raw weights ``exp(-d / d_min_positive)`` with weight
  1 for zero distances;
* the S-map weights every admissible point by ``exp(-theta * d / d_mean)``
  and solves the weighted least squares through a singular value
  decomposition, treating singular values below 1e-10 of the largest as
  zero (the package's minimum-norm semantics, reached by another path);
* cross mapping uses Manhattan distance, ``dimension + 1`` neighbours,
  leave-one-out, weights ``exp(-d / d_1)`` and Pearson correlation.
"""

from __future__ import annotations

import csv
import math

import numpy as np

SV_CUTOFF = 1e-10

#: Tolerances of acceptance criterion 2b, applied relative to
#: ``max(1, |reference|)`` so they keep their meaning on debris counts.
SIMPLEX_TOL = 1e-10
SMAP_TOL = 1e-8
#: Pearson correlations are compared at the S-map tolerance: a correlation
#: is scale free, and the estimates behind it carry rounding from either
#: side's summation order.
RHO_TOL = 1e-8


def read_columns(path) -> tuple[int, dict[str, list[float]]]:
    """First year and value columns of a yearly CSV with a ``year`` column."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if any(cell.strip() for cell in row)]
    header = [cell.strip() for cell in rows[0]]
    year_idx = header.index("year")
    columns: dict[str, list[float]] = {h: [] for i, h in enumerate(header) if i != year_idx}
    names = [h for i, h in enumerate(header) if i != year_idx]
    for row in rows[1:]:
        cells = [c for i, c in enumerate(row) if i != year_idx]
        for name, cell in zip(names, cells):
            columns[name].append(float(cell))
    return int(rows[1][year_idx]), columns


def close(value: float, reference: float, tol: float) -> bool:
    """``value`` within ``tol`` of ``reference``, relative above magnitude 1."""
    if math.isnan(reference):
        return math.isnan(value)
    if not math.isfinite(value):
        return False
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def delay_vector(columns: dict[str, list[float]], lags: list[tuple[str, int]],
                 head: int) -> list[float]:
    return [columns[name][head - j] for name, count in lags for j in range(count)]


def _max_offset(lags: list[tuple[str, int]]) -> int:
    return max(count - 1 for _, count in lags)


def _euclidean(a: list[float], b: list[float]) -> float:
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def simplex_value(columns, lags, target, heads, query_head, k) -> float:
    """Simplex forecast of ``target`` one step past ``query_head``."""
    query = delay_vector(columns, lags, query_head)
    rows = sorted((_euclidean(delay_vector(columns, lags, h), query), h) for h in heads)[:k]
    positive = [d for d, _ in rows if d > 0.0]
    scale = min(positive) if positive else None
    raw = [math.exp(-d / scale) if d > 0.0 else 1.0 for d, _ in rows]
    total = sum(raw)
    return sum(w / total * columns[target][h + 1] for w, (_, h) in zip(raw, rows))


def smap_value(columns, lags, target, heads, query_head, theta) -> float:
    """S-map forecast of ``target`` one step past ``query_head``."""
    vectors = np.array([delay_vector(columns, lags, h) for h in heads], dtype=float)
    targets = np.array([columns[target][h + 1] for h in heads], dtype=float)
    query = np.array(delay_vector(columns, lags, query_head), dtype=float)
    distances = np.sqrt(((vectors - query) ** 2).sum(axis=1))
    mean = float(distances.mean())
    if mean == 0.0 or theta == 0.0:
        weights = np.ones_like(distances)
    else:
        weights = np.exp(-theta * distances / mean)
    root = np.sqrt(weights)
    design = np.hstack([np.ones((len(heads), 1)), vectors]) * root[:, None]
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    inverse = np.array([1.0 / v if v > SV_CUTOFF * s[0] else 0.0 for v in s])
    coefficients = vt.T @ (inverse * (u.T @ (targets * root)))
    return float(coefficients[0] + query @ coefficients[1:])


def one_step(method: str, columns, lags, target, index: int, radius: int,
             theta: float = 0.0) -> float:
    """Expanding-window one-step forecast of ``columns[target][index]``.

    The library holds every head whose forward value lies at or before
    ``index - 1``; heads within ``radius`` of the query head are excluded
    (radius 0 admits all).
    """
    query_head = index - 1
    heads = [h for h in range(_max_offset(lags), index - 1)
             if radius <= 0 or abs(h - query_head) > radius]
    if method == "simplex":
        k = sum(count for _, count in lags) + 1
        return simplex_value(columns, lags, target, heads, query_head, k)
    return smap_value(columns, lags, target, heads, query_head, theta)


def next_values(method: str, extended: dict[str, list[float]], lags, names,
                observed: int, self_condition: bool, theta: float = 0.0,
                floor: bool = False) -> dict[str, float]:
    """One iterative-forecast step: the next value of every extended series.

    ``extended`` holds each series' observations followed by the forecast so
    far.  The query is the latest state.  With self conditioning the library
    takes every head whose forward value is already known; without it,
    library targets stay inside the first ``observed`` values.  The temporal
    exclusion window is 0, as inside the package's generative loop.  All
    series share the neighbours (simplex) or the query (S-map).  ``floor``
    clamps each value at zero, like the scenario engine's adjustment.
    """
    length = len(extended[names[0]])
    query_head = length - 1
    cap = length - 1 if self_condition else observed - 1
    heads = list(range(_max_offset(lags), cap))
    k = sum(count for _, count in lags) + 1
    if method == "simplex":
        values = {name: simplex_value(extended, lags, name, heads, query_head, k)
                  for name in names}
    else:
        values = {name: smap_value(extended, lags, name, heads, query_head, theta)
                  for name in names}
    if floor:
        values = {name: max(0.0, value) for name, value in values.items()}
    return values


def pearson(observed, estimated) -> float:
    o = np.asarray(observed, dtype=float)
    e = np.asarray(estimated, dtype=float)
    o = o - o.mean()
    e = e - e.mean()
    denom = math.sqrt(float(o @ o)) * math.sqrt(float(e @ e))
    return float("nan") if denom == 0.0 else float(o @ e / denom)


def cross_map_rho(cause: list[float], effect: list[float], dimension: int,
                  library=None, chunk: int = 64) -> float:
    """Cross-map skill of ``effect``'s manifold recovering ``cause``.

    Queries are processed in chunks so large series need little memory.
    Library points are put in time order before a stable distance sort, so
    equal distances keep the earlier time first.
    """
    first = dimension - 1
    heads = np.arange(first, len(effect))
    values = np.asarray(effect, dtype=float)
    vectors = np.stack([values[heads - j] for j in range(dimension)], axis=1)
    causes = np.asarray(cause, dtype=float)[heads]
    lib = np.arange(heads.size) if library is None else np.sort(np.asarray(library))
    k = dimension + 1
    estimates = np.empty(heads.size)
    for lo in range(0, heads.size, chunk):
        queries = np.arange(lo, min(lo + chunk, heads.size))
        distances = np.abs(vectors[queries][:, None, :] - vectors[lib][None, :, :]).sum(axis=2)
        distances[lib[None, :] == queries[:, None]] = np.inf  # leave one out
        order = np.argsort(distances, axis=1, kind="stable")[:, :k]
        for row, query in enumerate(queries):
            chosen = order[row]
            d = distances[row, chosen]
            raw = (d == 0.0).astype(float) if d[0] == 0.0 else np.exp(-d / d[0])
            estimates[query] = (raw / raw.sum()) @ causes[lib[chosen]]
    return pearson(causes, estimates)
