"""Shared test fixtures: synthetic generators and independent reference
implementations (straight-line code, no shared paths with the package)."""

import math

import numpy as np


# ---------------------------------------------------------------------------
# synthetic generators

def logistic_series(n, r=3.8, x0=0.4, name="x", start_year=0):
    from edmkit.timeseries import TimeSeries

    values = [x0]
    for _ in range(n - 1):
        values.append(r * values[-1] * (1.0 - values[-1]))
    return TimeSeries(name, start_year, values)


def coupled_logistic_pair(n, r_x=3.8, r_y=3.5, coupling_xy=0.0, coupling_yx=0.32,
                          x0=0.4, y0=0.2, burn=100):
    """Two-species logistic map; coupling_yx > 0 means x drives y."""
    from edmkit.timeseries import TimeSeries

    x, y = x0, y0
    xs, ys = [], []
    for i in range(burn + n):
        x_next = x * (r_x - r_x * x - coupling_xy * y)
        y_next = y * (r_y - r_y * y - coupling_yx * x)
        x, y = min(max(x_next, 1e-9), 1.0), min(max(y_next, 1e-9), 1.0)
        if i >= burn:
            xs.append(x)
            ys.append(y)
    return TimeSeries("x", 0, xs), TimeSeries("y", 0, ys)


def random_walk(n, seed, name="w", scale=1.0):
    from edmkit.timeseries import TimeSeries

    rng = np.random.default_rng(seed)
    return TimeSeries(name, 0, np.cumsum(rng.normal(0.0, scale, n)).tolist())


# ---------------------------------------------------------------------------
# reference implementations (oracles)

def oracle_knn(vectors, times, query_vector, query_time, k, metric="euclidean",
               exclusion_radius=0):
    """Brute-force k nearest neighbours with (distance, time) ordering."""
    rows = []
    for i, (vec, t) in enumerate(zip(vectors, times)):
        if exclusion_radius > 0 and abs(int(t) - int(query_time)) <= exclusion_radius:
            continue
        if metric == "euclidean":
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(vec, query_vector)))
        else:
            d = sum(abs(a - b) for a, b in zip(vec, query_vector))
        rows.append((d, int(t), i))
    rows.sort()
    return [(i, d) for d, _, i in rows[:k]]


def oracle_simplex(vectors, times, targets, query_vector, query_time, k,
                   exclusion_radius=0):
    """Reference simplex forecast (exponential kernel, zero-distance rule)."""
    chosen = oracle_knn(vectors, times, query_vector, query_time, k,
                        "euclidean", exclusion_radius)
    dists = [d for _, d in chosen]
    positive = [d for d in dists if d > 0.0]
    if not positive:
        raw = [1.0] * len(dists)
    else:
        scale = min(positive)
        raw = [math.exp(-d / scale) if d > 0.0 else 1.0 for d in dists]
    total = sum(raw)
    weights = [w / total for w in raw]
    prediction = sum(w * targets[i] for w, (i, _) in zip(weights, chosen))
    variance = sum(w * (targets[i] - prediction) ** 2 for w, (i, _) in zip(weights, chosen))
    return prediction, variance


def oracle_wls(vectors, targets, weights, query_vector, ridge=0.0):
    """Weighted least squares through the normal equations (separate path)."""
    vectors = np.asarray(vectors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    design = np.concatenate([np.ones((vectors.shape[0], 1)), vectors], axis=1)
    wd = design * weights[:, None]
    lhs = design.T @ wd
    if ridge > 0.0:
        penalty = np.eye(design.shape[1]) * ridge
        penalty[0, 0] = 0.0
        lhs = lhs + penalty
    rhs = design.T @ (weights * targets)
    coef = np.linalg.solve(lhs, rhs)
    return float(coef[0] + np.asarray(query_vector, float) @ coef[1:]), coef


def oracle_cross_map(cause_values, effect_values, dimension, tau, library_indices,
                     leave_one_out=True, exclusion_radius=0):
    """Reference cross-map skill with Manhattan distance.

    A positive ``exclusion_radius`` drops library points within that many
    steps of the query time."""
    n_total = len(effect_values)
    first = (dimension - 1) * tau
    heads = list(range(first, n_total))
    vectors = [[effect_values[t - j * tau] for j in range(dimension)] for t in heads]
    causes = [cause_values[t] for t in heads]
    estimates = []
    k = dimension + 1
    for qi, t in enumerate(heads):
        rows = []
        for li in library_indices:
            if leave_one_out and heads[li] == t:
                continue
            if exclusion_radius > 0 and abs(heads[li] - t) <= exclusion_radius:
                continue
            d = sum(abs(a - b) for a, b in zip(vectors[li], vectors[qi]))
            rows.append((d, heads[li], li))
        rows.sort()
        chosen = rows[:k]
        dists = [d for d, _, _ in chosen]
        if dists[0] == 0.0:
            raw = [1.0 if d == 0.0 else 0.0 for d in dists]
        else:
            raw = [math.exp(-d / dists[0]) for d in dists]
        total = sum(raw)
        estimates.append(sum(w / total * causes[li] for w, (_, _, li) in zip(raw, chosen)))
    obs = np.asarray(causes)
    est = np.asarray(estimates)
    o = obs - obs.mean()
    e = est - est.mean()
    denom = math.sqrt(float(o @ o)) * math.sqrt(float(e @ e))
    if denom == 0.0:
        return float("nan")
    return float(o @ e / denom)
