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


def reference_smap_fit(vectors, forward, query, theta, ridge=0.0):
    """The S-map fit at one query, written out step by step for bit-level pins.

    Unlike ``oracle_wls`` this follows the package's arithmetic step by
    step: Euclidean distances with the squared coordinate differences added
    in coordinate order, weights exp(-theta * d / d_mean) (all 1.0 when
    theta or d_mean is 0), one concatenated square-root-weighted design with
    the ridge rows appended, and one ``lstsq`` per forward column.  Returns
    one (prediction, variance, coefficients) triple per column of
    ``forward``.
    """
    count, dim = vectors.shape
    squares = (vectors - query) ** 2
    total = squares[:, 0].copy()
    for c in range(1, dim):
        total += squares[:, c]
    distances = np.sqrt(total)
    mean_distance = float(distances.mean())
    if mean_distance == 0.0 or theta == 0.0:
        weights = np.ones_like(distances)
    else:
        weights = np.exp(-theta * distances / mean_distance)
    sqrt_w = np.sqrt(weights)[:, None]
    design = np.concatenate([np.ones((count, 1)), vectors], axis=1) * sqrt_w
    if ridge > 0.0:
        penalty = np.zeros((dim, dim + 1))
        penalty[:, 1:] = math.sqrt(ridge) * np.eye(dim)
        design = np.concatenate([design, penalty], axis=0)
    fits = []
    for targets in forward.T:
        rhs = np.concatenate([targets * sqrt_w[:, 0], np.zeros(design.shape[0] - count)])
        coefficients = np.linalg.lstsq(design, rhs, rcond=1e-10)[0]
        residuals = targets - (coefficients[0] + vectors @ coefficients[1:])
        fits.append((coefficients[0] + query @ coefficients[1:],
                     (weights * residuals**2).sum() / weights.sum(), coefficients))
    return fits


def oracle_iterative_step(series, columns, tau, n_obs, self_condition, method,
                          theta=0.0, ridge=0.0, normalize=False):
    """Reference next step of an iterative forecast for every extended series.

    ``series`` maps each extended name to its ``n_obs`` observations followed
    by the forecast so far; ``columns`` lists the embedded (name, lag count)
    pairs at delay ``tau``.  With ``normalize`` every embedded series is
    z-scored by the mean and population SD of its observations (SD 0 counts
    as 1).  The query is the latest state.  With self conditioning the
    library holds every head whose forward value is known; without it the
    forward values stay inside the observations.  The exclusion window is
    0.  Returns ``{name: (value, variance, coefficients)}``: simplex shares
    the k = E + 1 nearest heads across series (coefficients None); the S-map
    shares exp(-theta * d / d_mean) weights and fits ``oracle_wls`` per
    series, the variance being the weighted mean squared residual.
    """
    centre, scale = {}, {}
    for name, _ in columns:
        observed = series[name][:n_obs]
        mean = sum(observed) / n_obs
        sd = math.sqrt(sum((v - mean) ** 2 for v in observed) / n_obs)
        centre[name], scale[name] = (mean, sd or 1.0) if normalize else (0.0, 1.0)

    def state(i):
        return [(series[name][i - j * tau] - centre[name]) / scale[name]
                for name, lags in columns for j in range(lags)]

    length = len(next(iter(series.values())))
    cap = length - 1 if self_condition else n_obs - 1
    heads = list(range(max((lags - 1) * tau for _, lags in columns), cap))
    vectors = [state(h) for h in heads]
    query = state(length - 1)
    out = {}
    if method == "simplex":
        k = sum(lags for _, lags in columns) + 1
        for name, values in series.items():
            targets = [values[h + 1] for h in heads]
            value, variance = oracle_simplex(vectors, heads, targets, query, length - 1, k)
            out[name] = (value, variance, None)
        return out
    dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(v, query))) for v in vectors]
    d_mean = sum(dists) / len(dists)
    if theta == 0.0 or d_mean == 0.0:
        weights = [1.0] * len(dists)
    else:
        weights = [math.exp(-theta * d / d_mean) for d in dists]
    for name, values in series.items():
        targets = [values[h + 1] for h in heads]
        value, coef = oracle_wls(vectors, targets, weights, query, ridge)
        residuals = [t - (coef[0] + sum(c * x for c, x in zip(coef[1:], v)))
                     for t, v in zip(targets, vectors)]
        variance = sum(w * r * r for w, r in zip(weights, residuals)) / sum(weights)
        out[name] = (value, variance, coef)
    return out


def oracle_smap_theta_rows(series, columns, target, start_year, thetas, train_end):
    """Reference (theta, rho, rmse) table for the expanding-window S-map search.

    ``series`` maps each name to its yearly values from ``start_year``;
    ``columns`` lists (name, lag count) pairs at delay 1.  For every year t
    after ``train_end`` the library holds each state at s whose target year
    s + 1 is at most t - 1, minus the states with |s - (t - 1)| <= E (the
    default exclusion radius, E the embedding dimension); the query is the
    state at t - 1.  Points get weight exp(-theta * d / d_mean) over Euclidean
    distances (unit weights when theta or d_mean is 0), and the prediction is
    the ``oracle_wls`` fit.  rho is NaN when either side is constant.
    """
    radius = sum(lags for _, lags in columns)
    first = max(lags for _, lags in columns) - 1
    n_years = len(series[target])

    def state(i):
        return [series[name][i - j] for name, lags in columns for j in range(lags)]

    rows = []
    for theta in thetas:
        observed, predicted = [], []
        for i in range(train_end - start_year + 1, n_years):
            query = state(i - 1)
            vectors, targets = [], []
            for s in range(first, i - 1):
                if abs(s - (i - 1)) <= radius:
                    continue
                vectors.append(state(s))
                targets.append(series[target][s + 1])
            dists = [math.sqrt(sum((a - b) ** 2 for a, b in zip(v, query)))
                     for v in vectors]
            d_mean = sum(dists) / len(dists)
            if theta == 0.0 or d_mean == 0.0:
                weights = [1.0] * len(dists)
            else:
                weights = [math.exp(-theta * d / d_mean) for d in dists]
            value, _ = oracle_wls(vectors, targets, weights, query)
            observed.append(series[target][i])
            predicted.append(value)
        n = len(observed)
        mo = sum(observed) / n
        mp = sum(predicted) / n
        so = math.sqrt(sum((o - mo) ** 2 for o in observed))
        sp = math.sqrt(sum((p - mp) ** 2 for p in predicted))
        cov = sum((o - mo) * (p - mp) for o, p in zip(observed, predicted))
        rho = float("nan") if so == 0.0 or sp == 0.0 else cov / (so * sp)
        error = math.sqrt(sum((o - p) ** 2 for o, p in zip(observed, predicted)) / n)
        rows.append((float(theta), rho, error))
    return rows


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


def oracle_deorbit_cohorts(data, scenario, launched="launched"):
    """Reference PMD deorbit totals keyed by the year they fall due.

    Cohort y (from the effective year on, recorded years only) comes down in
    year y + operational_lifetime + pmd_years.
    """
    values = data[launched].values
    due = {}
    first = max(scenario.effective_year, data.start_year)
    for year in range(first, data.end_year + 1):
        due_year = year + scenario.operational_lifetime + scenario.pmd_years
        due[due_year] = due.get(due_year, 0.0) + scenario.compliance * values[year - data.start_year]
    return due


def oracle_cumulative_deorbited(data, scenario, year, launched="launched"):
    """Reference total deorbited up to and including a year."""
    due = oracle_deorbit_cohorts(data, scenario, launched)
    return sum(v for d, v in due.items() if d <= year)


def oracle_pmd_adjust(data, scenario, debris="debris", launched="launched", total="total"):
    """Reference PMD adjustment: {name: values} for the debris and total series."""
    due = oracle_deorbit_cohorts(data, scenario, launched)
    x = list(data[debris].values)
    z = list(data[total].values)
    removed = 0.0
    for year in range(scenario.effective_year, data.end_year + 1):
        removed += due.get(year, 0.0)
        if removed > 0.0 and year >= data.start_year:
            i = year - data.start_year
            x[i] = max(0.0, x[i] - removed)
            z[i] = max(0.0, z[i] - removed)
    return {debris: x, total: z}


def oracle_launch_reduction_adjust(data, scenario, debris="debris", launched="launched",
                                   total="total"):
    """Reference launch-reduction adjustment: {name: values} for all three series."""
    fraction = scenario.reduction_fraction
    original_x = data[debris].values
    original_y = data[launched].values
    x, y, z = list(original_x), list(original_y), list(data[total].values)
    cumulative_launched = []
    running = 0.0
    for value in original_y:
        running += value
        cumulative_launched.append(running)
    shortfall = 0.0
    for year in range(max(scenario.effective_year, data.start_year), data.end_year + 1):
        i = year - data.start_year
        shortfall += fraction * original_y[i]
        y[i] = (1.0 - fraction) * original_y[i]
        z[i] = max(0.0, z[i] - shortfall)
        if scenario.launch_x_mode == "ratio" and cumulative_launched[i] > 0:
            x[i] = max(0.0, x[i] - original_x[i] / cumulative_launched[i] * shortfall)
    return {debris: x, launched: y, total: z}


def oracle_adr_adjust(data, scenario, debris="debris", total="total"):
    """Reference ADR adjustment: {name: values} for the debris and total series."""
    x = list(data[debris].values)
    z = list(data[total].values)
    for year in range(max(scenario.effective_year, data.start_year), data.end_year + 1):
        i = year - data.start_year
        if scenario.adr_cumulative:
            removal = scenario.adr_per_year * (year - scenario.effective_year + 1)
        else:
            removal = scenario.adr_per_year
        x[i] = max(0.0, x[i] - removal)
        z[i] = max(0.0, z[i] - removal)
    return {debris: x, total: z}
