import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import edmkit.smap
from edmkit import embedding
from edmkit.bundled import load_bundled
from edmkit.cli import main as cli_main
from edmkit.embedding import (
    EmbeddingError,
    EmbeddingLibrary,
    EmbeddingSpec,
    NeighborShortfallError,
    delay_embed,
    multivariate_embed,
)
from edmkit.forecast import iterative_forecast
from edmkit.simplex import SimplexConfig
from edmkit.smap import (
    DEFAULT_THETA_GRID,
    SMapConfig,
    coefficients_to_csv,
    interaction_series,
    smap_iterative_forecast,
    smap_predict,
    smap_weights,
    theta_search,
)
from edmkit.smap import _fit
from edmkit.smap import skill_eval as smap_skill_eval
from edmkit.timeseries import Dataset, TimeSeries

from helpers import coupled_logistic_pair, oracle_iterative_step, oracle_wls, reference_smap_fit


def random_library(rng, n=20, dim=3, radius=0):
    spec = EmbeddingSpec((("s", dim),), exclusion_radius=radius)
    return EmbeddingLibrary(spec, "s", 0, np.arange(n),
                            rng.normal(size=(n, dim)), rng.normal(size=n))


def linear_rule_series(n=30, slope=0.5, intercept=2.0, x0=1.0):
    values = [x0]
    for _ in range(n - 1):
        values.append(slope * values[-1] + intercept)
    return TimeSeries("u", 0, values)


def test_theta_zero_equals_ols():
    rng = np.random.default_rng(1)
    for _ in range(30):
        lib = random_library(rng, n=int(rng.integers(8, 40)), dim=int(rng.integers(1, 4)))
        query = (int(rng.integers(0, len(lib))), rng.normal(size=lib.spec.dimension))
        step = smap_predict(lib, query, SMapConfig(lib.spec, 0.0))
        design = np.concatenate([np.ones((len(lib), 1)), lib.vectors], axis=1)
        ols, *_ = np.linalg.lstsq(design, lib.targets, rcond=None)
        assert step.coefficients == pytest.approx(ols, abs=1e-8)
        assert step.prediction == pytest.approx(ols[0] + query[1] @ ols[1:], abs=1e-8)


def test_exact_linear_rule_recovered_for_any_theta():
    series = linear_rule_series()
    spec = EmbeddingSpec.univariate("u", 1, exclusion_radius=0)
    lib = delay_embed(series, spec, tp=1)
    for theta in (0.0, 1.0, 7.0):
        step = smap_predict(lib, (10, [series.values[10]]), SMapConfig(spec, theta))
        assert step.coefficients == pytest.approx([2.0, 0.5], abs=1e-8)
        assert step.variance == pytest.approx(0.0, abs=1e-12)


def test_exact_affine_multivariate_zero_residual():
    rng = np.random.default_rng(5)
    spec = EmbeddingSpec((("s", 3),), exclusion_radius=0)
    vectors = rng.normal(size=(25, 3))
    beta = np.array([1.5, -2.0, 0.75])
    targets = 4.0 + vectors @ beta
    lib = EmbeddingLibrary(spec, "s", 0, np.arange(25), vectors, targets)
    for theta in (0.0, 1.0, 7.0):
        step = smap_predict(lib, (40, rng.normal(size=3)), SMapConfig(spec, theta))
        assert step.variance == pytest.approx(0.0, abs=1e-10)
        assert step.coefficients == pytest.approx([4.0, *beta], abs=1e-7)


def test_matches_normal_equation_oracle():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(8, 40))
        dim = int(rng.integers(1, 4))
        lib = random_library(rng, n=n, dim=dim)
        theta = float(rng.uniform(0.0, 9.0))
        query = (1000, rng.normal(size=dim))
        step = smap_predict(lib, query, SMapConfig(lib.spec, theta))
        dists = np.sqrt(((lib.vectors - query[1]) ** 2).sum(axis=1))
        weights = smap_weights(dists, theta)
        expected, coef = oracle_wls(lib.vectors, lib.targets, weights, query[1])
        assert step.prediction == pytest.approx(expected, abs=1e-8)
        assert step.coefficients == pytest.approx(coef, abs=1e-8)


def test_weights_invariant_under_uniform_scaling():
    rng = np.random.default_rng(3)
    dists = rng.uniform(0.1, 5.0, size=30)
    for c in (0.01, 3.0, 250.0):
        assert smap_weights(dists * c, 7.0) == pytest.approx(smap_weights(dists, 7.0))


def test_far_to_near_weight_ratio_nonincreasing_in_theta():
    rng = np.random.default_rng(9)
    dists = np.sort(rng.uniform(0.5, 4.0, size=12))
    ratios = []
    for theta in (0.0, 0.5, 1.0, 2.0, 5.0, 9.0):
        w = smap_weights(dists, theta)
        ratios.append(w[-1] / w[0])
    assert all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))


@pytest.mark.parametrize("theta, message", [
    (-1.0, "theta must be >= 0, got -1.0"),
    (math.nan, "theta must be finite, got nan"),
    (1e305, "theta has a value 1e+305 beyond the magnitude bound 1e+100"),
    ([0.0, 2.0, -1.0], "theta must be >= 0, got -1.0"),
])
def test_weights_hold_theta_to_the_config_rule(theta, message):
    # SMapConfig's messages; a negative theta used to give weights above 1,
    # and one past the bound overflowed in the product theta * distance
    distances = np.array([[1e4, 2e4, 3e4]])
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        smap_weights(distances, theta)


@pytest.mark.parametrize("distances, message", [
    ([1e308, 1e308], "distance has a value 1e+308 beyond the magnitude bound 1e+100"),
    ([math.inf, 1.0], "distance has a non-finite value inf"),
    ([math.nan, 1.0], "distance has a non-finite value nan"),
    ([-1.0, 2.0], "distance must be >= 0, got -1.0"),
])
def test_weights_name_a_distance_outside_the_bound(distances, message):
    # these used to overflow the mean, divide inf by inf, return NaN weights,
    # or give a negative distance a weight of 7.39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            smap_weights(np.array(distances), 2.0)


def test_weights_of_in_range_distances_keep_their_bits():
    distances = np.array([[0.0, 1e-300, 0.5, 3.0, 1e100], [2.0, 2.0, 7.5, 0.25, 1.0]])
    means = distances.sum(axis=-1, keepdims=True) / distances.shape[-1]
    for theta in (0.5, 2.0, 7.0):
        expected = np.exp(-theta * distances / means)
        assert smap_weights(distances, theta).tobytes() == expected.tobytes()


def test_coefficients_match_finite_difference_partials():
    rng = np.random.default_rng(21)
    lib = random_library(rng, n=30, dim=3)
    cfg = SMapConfig(lib.spec, 2.0)
    query_vec = rng.normal(size=3)
    step = smap_predict(lib, (99, query_vec), cfg)
    # the fitted map is affine, so the slopes are its exact partials; check
    # them against finite differences of the fitted surface
    h = 1e-4
    for j in range(3):
        shifted = query_vec.copy()
        shifted[j] += h

        def fitted(v, coefficients=step.coefficients):
            return coefficients[0] + v @ coefficients[1:]

        fd = (fitted(shifted) - fitted(query_vec)) / h
        assert fd == pytest.approx(step.coefficients[1 + j], abs=1e-6)


def test_insufficient_points_raises():
    rng = np.random.default_rng(2)
    spec = EmbeddingSpec((("s", 3),), exclusion_radius=0)
    lib = EmbeddingLibrary(spec, "s", 0, np.arange(4),
                           rng.normal(size=(4, 3)), rng.normal(size=4))
    with pytest.raises(NeighborShortfallError):
        smap_predict(lib, (0, rng.normal(size=3)), SMapConfig(spec, 1.0))


def test_rank_deficient_design_is_solved():
    # duplicate rows make the design singular; minimum-norm must not crash
    spec = EmbeddingSpec((("s", 2),), exclusion_radius=0)
    vectors = np.array([[1.0, 2.0]] * 6 + [[2.0, 4.0]] * 6)
    targets = np.array([3.0] * 6 + [6.0] * 6)
    lib = EmbeddingLibrary(spec, "s", 0, np.arange(12), vectors, targets)
    step = smap_predict(lib, (99, [1.0, 2.0]), SMapConfig(spec, 1.0))
    assert np.isfinite(step.prediction)
    assert step.prediction == pytest.approx(3.0, abs=1e-6)


def test_ridge_shrinks_slopes():
    rng = np.random.default_rng(8)
    lib = random_library(rng, n=25, dim=2)
    query = (99, rng.normal(size=2))
    plain = smap_predict(lib, query, SMapConfig(lib.spec, 1.0, ridge=0.0))
    ridged = smap_predict(lib, query, SMapConfig(lib.spec, 1.0, ridge=50.0))
    assert np.linalg.norm(ridged.coefficients[1:]) < np.linalg.norm(plain.coefficients[1:])


def test_theta_search_linear_generator_votes_linear():
    # data from a global linear stochastic rule (drifting walk): theta 0
    # wins nearly always once grid points are statistically separated
    wins = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        values = [0.0]
        for _ in range(59):
            values.append(values[-1] + 1.0 + 0.3 * rng.normal())
        data = Dataset.from_columns(0, {"x": values})
        spec = EmbeddingSpec.univariate("x", 2)
        result = theta_search(data, "x", spec, theta_grid=(0.0, 5.0, 9.0),
                              train_end=40)
        wins += result.verdict == "linear"
    assert wins >= 45


def test_theta_search_singleton_grid():
    data = Dataset.from_columns(0, {"x": [float(v % 5) for v in range(40)]})
    result = theta_search(data, "x", EmbeddingSpec.univariate("x", 2),
                          theta_grid=(0.0,), train_end=25)
    assert result.best_theta == 0.0
    assert result.verdict == "linear"
    assert DEFAULT_THETA_GRID[0] == 0.0 and DEFAULT_THETA_GRID[-1] == 9.0


def test_theta_search_threads_deterministic():
    rng = np.random.default_rng(4)
    values = np.cumsum(rng.normal(size=60)).tolist()
    data = Dataset.from_columns(0, {"x": values})
    spec = EmbeddingSpec.univariate("x", 2)
    single = theta_search(data, "x", spec, train_end=40, threads=1)
    multi = theta_search(data, "x", spec, train_end=40, threads=4)
    assert single.rows == multi.rows


def _tie_heavy_record():
    # small integers repeat states exactly: tied and zero distances abound
    values = np.random.default_rng(5).integers(0, 4, 70).astype(float).tolist()
    return Dataset.from_columns(0, {"x": values, "y": values[1:] + [2.0]})


def _coupled_record():
    return Dataset(coupled_logistic_pair(70))


def _same_skill(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("record", [_coupled_record, _tie_heavy_record],
                         ids=["coupled", "tie_heavy"])
@pytest.mark.parametrize("window", [(None, None), (48, 62)], ids=["default", "window"])
@pytest.mark.parametrize("radius", [0, 3])
@pytest.mark.parametrize("ridge", [0.0, 0.5])
def test_theta_rows_equal_one_skill_eval_per_theta(record, window, radius, ridge, monkeypatch):
    data = record()
    spec = EmbeddingSpec((("x", 2), ("y", 1)), exclusion_radius=radius)
    grid = (3.0, 0.0, 0.5, 9.0, 3.0, 0.0, 0.1)
    result = theta_search(data, "x", spec, grid, train_end=40, eval_start=window[0],
                          eval_end=window[1], ridge=ridge)
    thetas = sorted(set(grid))
    assert [row[0] for row in result.rows] == thetas
    for (theta, rho, error), expected_theta in zip(result.rows, thetas):
        expected = smap_skill_eval(data, "x", SMapConfig(spec, expected_theta, ridge=ridge), 40,
                                   window[0], window[1])
        assert _same_skill(rho, expected.rho) and _same_skill(error, expected.rmse), theta
    # blocks of three queries: the grid is fitted block by block, to the same rows
    full = multivariate_embed(data, spec, "x", tp=1)
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", 3 * len(full) * spec.dimension)
    fit, sizes = edmkit.smap._fit, []

    def counted_fit(vectors, forward, queries, *rest):
        sizes.append(len(queries))
        return fit(vectors, forward, queries, *rest)

    monkeypatch.setattr(edmkit.smap, "_fit", counted_fit)
    blocked = theta_search(data, "x", spec, grid, train_end=40, eval_start=window[0],
                           eval_end=window[1], ridge=ridge)
    assert repr(blocked.rows) == repr(result.rows)
    assert set(sizes[:-1]) == {3} and sum(sizes) == expected.times.shape[0]


def test_theta_search_holds_one_block_of_fits_at_a_time():
    # every query's fits over the grid used to be held until one SVD: a
    # traced peak of 52 MiB here, growing with the square of the length
    data = Dataset(coupled_logistic_pair(1000))
    spec = EmbeddingSpec((("x", 2), ("y", 2)))
    tracemalloc.start()
    try:
        theta_search(data, "x", spec, train_end=499)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("bad, message", [(-1, "theta must be >= 0, got -1.0"),
                                          (math.nan, "theta must be finite, got nan"),
                                          (math.inf, "theta must be finite, got inf")])
@pytest.mark.parametrize("where", [0, 2, 5])
def test_invalid_theta_is_named_before_any_fit(monkeypatch, bad, message, where):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the grid was checked")

    monkeypatch.setattr(edmkit.smap, "_fit", no_fit)
    grid = [0.0, 1.0, 2.0, 3.0, 4.0]
    grid.insert(where, bad)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        theta_search(_coupled_record(), "x", EmbeddingSpec.univariate("x", 2), grid,
                     train_end=40)


#: How far a stacked QR + SVD fit may sit from ``lstsq`` on the same system,
#: relative, and absolute near zero (the tolerance README states).
FIT_RTOL, FIT_ATOL = 1e-9, 1e-12


def _close_to_reference(fits, vectors, forward, queries, limits, thetas, ridge):
    predictions, variances, coefficients = fits
    for t, theta in enumerate(thetas):
        for q, limit in enumerate(limits):
            expected = reference_smap_fit(vectors[:limit], forward[:limit], queries[q], theta,
                                          ridge)
            for c, (prediction, variance, coef) in enumerate(expected):
                np.testing.assert_allclose(predictions[t, q, c], prediction, FIT_RTOL, FIT_ATOL)
                np.testing.assert_allclose(variances[t, q, c], variance, FIT_RTOL, FIT_ATOL)
                np.testing.assert_allclose(coefficients[t, q, c], coef, FIT_RTOL, FIT_ATOL)


@pytest.mark.parametrize("columns", [1, 2, 3])
@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_fit_matches_the_reference_recipe(columns, ridge):
    rng = np.random.default_rng(columns)
    thetas = np.array([0.0, 2.0, 7.0])
    query = rng.normal(size=3)
    cases = [  # (library states, query states, prefix limits)
        (rng.normal(size=(40, 3)), rng.normal(size=(3, 3)), np.array([10, 25, 40])),
        (np.tile(query, (12, 1)), query[None], np.array([12])),  # mean distance 0
    ]
    for vectors, queries, limits in cases:
        forward = rng.normal(size=(vectors.shape[0], columns))
        fits = _fit(vectors, forward, queries, limits, thetas, ridge)
        _close_to_reference(fits, vectors, forward, queries, limits, thetas, ridge)


def _same_fit(one, other):
    return all(a.tobytes() == b.tobytes() for a, b in zip(one, other))


@pytest.mark.parametrize("ridge", [0.0, 0.3])
def test_a_fit_has_the_same_bits_whatever_shares_its_stack(ridge):
    rng = np.random.default_rng(11)
    thetas = np.array([0.0, 0.5, 2.0, 7.0])
    vectors = rng.normal(size=(4, 30, 3))  # one library per query, all of 30 rows
    forward = rng.normal(size=(4, 30, 3))
    queries = rng.normal(size=(4, 3))
    stacked = _fit(vectors, forward, queries, [24] * 4, thetas, ridge)
    for q in range(4):
        for t, theta in enumerate(thetas):
            for c in range(3):
                alone = _fit(vectors[q], forward[q, :, c:c + 1], queries[q:q + 1], [24],
                             np.array([theta]), ridge)
                assert _same_fit(alone, [part[t:t + 1, q:q + 1, c:c + 1] for part in stacked])
        # in the theta grid, beside the other series, on a 2-D library
        grid = _fit(vectors[q], forward[q], queries[q:q + 1], [24], thetas, ridge)
        assert _same_fit(grid, [part[:, q:q + 1] for part in stacked])
    # a shared library cut at limits that repeat out of order
    limits = [24, 12, 30, 24]
    mixed = _fit(vectors[0], forward[0], queries, limits, thetas, ridge)
    for q, limit in enumerate(limits):
        alone = _fit(vectors[0], forward[0], queries[q:q + 1], [limit], thetas, ridge)
        assert _same_fit(alone, [part[:, q:q + 1] for part in mixed])
        # each column alone, whose design the other two columns share
        for c in range(3):
            column = _fit(vectors[0], forward[0, :, c:c + 1], queries[q:q + 1], [limit],
                          thetas, ridge)
            assert _same_fit(column, [part[:, q:q + 1, c:c + 1] for part in mixed])


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("columns", [1, 2, 3])
def test_one_svd_per_design_serves_every_forward_column(columns, ridge, monkeypatch):
    # the columns of a (theta, query) share its design triangle, so one
    # stacked SVD of (thetas, queries) triangles solves every column
    rng = np.random.default_rng([39, columns])
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    thetas = np.array([0.0, 2.0, 7.0])
    vectors, forward = rng.normal(size=(30, 3)), rng.normal(size=(30, columns))
    fits = _fit(vectors, forward, rng.normal(size=(4, 3)), [24, 24, 12, 30], thetas, ridge)
    assert shapes == [(3, 4, 4, 4)]
    assert [part.shape for part in fits] == [(3, 4, columns)] * 2 + [(3, 4, columns, 4)]


RANK_DEFICIENT = {
    # every state equals the query: only the intercept is determined
    "all_at_the_query": lambda rng: np.tile(rng.normal(size=3), (12, 1)),
    # floored states repeat rows, and one coordinate is zero throughout
    "repeated_floored_rows": lambda rng: np.repeat(
        np.column_stack([np.maximum(rng.normal(size=(5, 2)), 0.0), np.zeros(5)]), 4, axis=0),
    # two coordinates on one line
    "collinear_coordinates": lambda rng: (lambda x: np.column_stack([x, 2.0 * x, x + 1.0]))(
        rng.normal(size=20)),
}


@pytest.mark.parametrize("ridge", [0.0, 0.3])
@pytest.mark.parametrize("name", sorted(RANK_DEFICIENT))
def test_rank_deficient_fits_match_the_minimum_norm_answer(name, ridge):
    rng = np.random.default_rng(5)
    vectors = RANK_DEFICIENT[name](rng)
    forward = rng.normal(size=(vectors.shape[0], 2))
    queries = np.vstack([vectors[-1], rng.normal(size=3)])
    thetas = np.array([0.0, 2.0, 7.0])
    limits = np.array([vectors.shape[0], vectors.shape[0] - 2])
    fits = _fit(vectors, forward, queries, limits, thetas, ridge)
    _close_to_reference(fits, vectors, forward, queries, limits, thetas, ridge)


def _random_states(dim):
    return lambda rng: rng.normal(size=(int(rng.integers(dim + 4, 40)), dim))


DESIGNS = {**{f"random_e{dim}": _random_states(dim) for dim in range(1, 5)}, **RANK_DEFICIENT}


@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_factored_variance_matches_the_reference_across_scales_and_ridges(name):
    # the variance is read off each fit's QR (R's last diagonal entry, the
    # dropped singular directions, less the ridge rows' share); the reference
    # refits the library through one lstsq per system
    rng = np.random.default_rng([32, len(name), ord(name[-1])])
    thetas = np.array([0.0, 1.0, 5.0])
    for scale in (1e-3, 1.0, 1e5):
        for ridge in (0.0, 1e-14, 1e-6, 1e2):
            vectors = DESIGNS[name](rng) * scale
            forward = np.column_stack([np.sin(vectors.sum(axis=1) / scale),
                                       rng.normal(size=vectors.shape[0])]) * scale
            queries = np.vstack([vectors[-1], rng.normal(size=vectors.shape[1]) * scale])
            limits = np.array([vectors.shape[0], vectors.shape[0] - 2])
            variances = _fit(vectors, forward, queries, limits, thetas, ridge)[1]
            for t, theta in enumerate(thetas):
                for q, limit in enumerate(limits):
                    expected = reference_smap_fit(vectors[:limit], forward[:limit], queries[q],
                                                  theta, ridge)
                    for c, (_, variance, _) in enumerate(expected):
                        np.testing.assert_allclose(variances[t, q, c], variance, FIT_RTOL,
                                                   FIT_ATOL, err_msg=f"{scale=} {ridge=}")


@pytest.mark.parametrize("theta", [0.0, 1.0, 5.0])
@pytest.mark.parametrize("ridge", [1e-14, 1e-12])
def test_exact_linear_data_with_a_tiny_ridge_keeps_its_band_finite(theta, ridge):
    # on a residual of 0 the factored sum less the ridge rows' share can
    # round below 0, which would be a NaN band; the fit floors it at 0
    data = Dataset((linear_rule_series(n=40),))
    cfg = SMapConfig(EmbeddingSpec.univariate("u", 2), theta, ridge=ridge)
    for result in (smap_skill_eval(data, "u", cfg, 20),
                   smap_iterative_forecast(data, "u", cfg, 60)):
        assert (result.step_variance >= 0.0).all()
        assert np.isfinite(result.band_halfwidth).all()


def test_iterative_steps_keep_their_own_coefficient_rows():
    data = Dataset(coupled_logistic_pair(40))
    cfg = SMapConfig(EmbeddingSpec((("x", 2), ("y", 2))), 2.0)
    result = smap_iterative_forecast(data, "x", cfg, data.end_year + 2)
    first = smap_iterative_forecast(data, "x", cfg, data.end_year + 1)
    assert result.coefficients[0].tolist() == first.coefficients[0].tolist()
    assert result.coefficients[0].tolist() != result.coefficients[1].tolist()


def test_iterative_constant_series():
    data = Dataset.from_columns(0, {"x": [5.0] * 30})
    cfg = SMapConfig(EmbeddingSpec.univariate("x", 2), 7.0)
    result = smap_iterative_forecast(data, "x", cfg, horizon_end=40)
    assert np.allclose(result.predicted, 5.0)
    assert np.allclose(result.step_variance, 0.0, atol=1e-12)


def test_iterative_linear_rule_continues_exactly():
    series = linear_rule_series(n=25, slope=0.5, intercept=2.0)
    data = Dataset((series,))
    cfg = SMapConfig(EmbeddingSpec.univariate("u", 1), 3.0)
    result = smap_iterative_forecast(data, "u", cfg, horizon_end=35)
    expected = []
    value = series.values[-1]
    for _ in range(35 - series.end_year):
        value = 0.5 * value + 2.0
        expected.append(value)
    assert result.predicted == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("self_condition", [True, False])
def test_iterative_steps_match_reference_two_series(self_condition):
    # every step, teacher-forced: step s is recomputed from the observations
    # plus the program's own steps before s for both extended series (the
    # forecast targeting y advances the same joint state, so it supplies y)
    data = Dataset(coupled_logistic_pair(60))
    spec = EmbeddingSpec((("x", 2), ("y", 2)), tau=2, normalize=True)
    cfg = SMapConfig(spec, 2.0, ridge=0.3)
    steps = 15
    tracks = {name: smap_iterative_forecast(data, name, cfg, data.end_year + steps,
                                            self_condition=self_condition)
              for name in ("x", "y")}
    for s in range(steps):
        series = {name: list(data[name].values) + tracks[name].predicted[:s].tolist()
                  for name in tracks}
        expected = oracle_iterative_step(series, spec.columns, 2, data.n_years, self_condition,
                                         "smap", theta=2.0, ridge=0.3, normalize=True)
        for name, result in tracks.items():
            value, variance, coefficients = expected[name]
            assert result.predicted[s] == pytest.approx(value, rel=1e-8, abs=1e-8)
            assert result.step_variance[s] == pytest.approx(variance, rel=1e-8, abs=1e-8)
            assert result.coefficients[s] == pytest.approx(coefficients, rel=1e-8, abs=1e-8)


COUPLED_SPEC = EmbeddingSpec((("x", 2), ("y", 2)))


# simplex and the S-map share one iterative loop, so both honour ``adjust``
@pytest.mark.parametrize("cfg", [SMapConfig(COUPLED_SPEC, 2.0), SimplexConfig(COUPLED_SPEC)],
                         ids=["smap", "simplex"])
def test_iterative_non_finite_value_raises_at_next_step(cfg):
    data = Dataset(coupled_logistic_pair(40))
    seen = []

    def poison(series, year):
        def adjust(step_year, values):
            seen.append(step_year)
            return {**values, series: math.inf if step_year == year else values[series]}
        return adjust

    with pytest.raises(ValueError, match=r"^series 'y' has a non-finite value inf in year 45$"):
        iterative_forecast(data, "x", cfg, 50, adjust=poison("y", 45))
    assert seen[-1] == 45  # raised before the next step is predicted

    # in the final year nothing uses the value, so it is returned as is
    result = iterative_forecast(data, "x", cfg, 50, adjust=poison("x", 50))
    assert math.isinf(result.predicted[-1])
    assert np.all(np.isfinite(result.predicted[:-1]))


def test_interaction_series_constant_for_linear_rule():
    rng = np.random.default_rng(11)
    x = rng.normal(size=40).cumsum()
    z = rng.normal(size=40).cumsum()
    # target is an exact affine function of the two inputs
    target = 3.0 + 0.6 * x - 0.25 * z
    data = Dataset.from_columns(0, {"x": x, "z": z, "t": target})
    spec = EmbeddingSpec((("x", 1), ("z", 1)), exclusion_radius=0)

    # build a one-step eval whose targets follow the affine rule
    shifted = np.roll(target, -1)[:-1]
    values = {"x": x[:-1], "z": z[:-1], "t": shifted}
    data = Dataset.from_columns(0, values)
    result = smap_skill_eval(data, "t", SMapConfig(spec, 2.0), train_end=25)
    track = interaction_series(result, "z")
    assert track.name == "d(t)/d(z(t))"
    assert track.start_year == int(result.times[0])

    with pytest.raises(ValueError, match="unknown coordinate"):
        interaction_series(result, "bogus")


def test_interaction_signs_recovered_from_coupled_system():
    # two-species toy with known positive/negative partials
    rng = np.random.default_rng(6)
    n = 120
    a = np.empty(n)
    b = np.empty(n)
    a[0], b[0] = 1.0, 1.0
    for t in range(n - 1):
        a[t + 1] = 0.7 * a[t] + 0.4 * b[t] + 0.05 * rng.normal()
        b[t + 1] = -0.3 * a[t] + 0.8 * b[t] + 0.05 * rng.normal()
    data = Dataset.from_columns(0, {"a": a, "b": b})
    spec = EmbeddingSpec((("a", 1), ("b", 1)), exclusion_radius=0)
    result = smap_skill_eval(data, "a", SMapConfig(spec, 2.0), train_end=60)
    slope_b = interaction_series(result, "b").to_array()
    slope_a = interaction_series(result, "a").to_array()
    assert (slope_b > 0).mean() >= 0.8   # da'/db is +0.4 in truth
    assert (slope_a > 0).mean() >= 0.8   # da'/da is +0.7 in truth


def test_coefficient_csv(tmp_path):
    series = linear_rule_series(n=30)
    data = Dataset((series,))
    result = smap_skill_eval(data, "u", SMapConfig(EmbeddingSpec.univariate("u", 2), 1.0),
                             train_end=20)
    path = tmp_path / "coef.csv"
    coefficients_to_csv(result, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "year,intercept,u(t),u(t-1)"
    assert len(lines) == 1 + len(result.times)


def test_coefficient_labels_come_after_the_embedding_check(monkeypatch):
    # one label per coordinate: a dimension far beyond the record must fail
    # by name before any label is built, not after building a million
    def refuse(spec):
        raise AssertionError("coefficient labels built before the embedding check")

    monkeypatch.setattr(EmbeddingSpec, "coordinate_labels", refuse)
    data = load_bundled()
    cfg = SMapConfig(EmbeddingSpec.univariate("debris", 1_000_000), 1.0)
    message = "too short for embedding"
    with pytest.raises(EmbeddingError, match=message):
        smap_skill_eval(data, "debris", cfg, train_end=1990)
    with pytest.raises(EmbeddingError, match=message):
        smap_iterative_forecast(data, "debris", cfg, 2050)


BUNDLED_SPEC = EmbeddingSpec((("debris", 2), ("total", 2)), exclusion_radius=26)

# each entry point that cuts an S-map library, with its (admissible rows,
# library size, exclusion radius) on the bundled record
SMAP_SHORTFALLS = {
    "skill_eval": (lambda data, cfg: smap_skill_eval(data, "debris", cfg, 1990), 3, 29, 26),
    "theta_search": (lambda data, cfg: theta_search(data, "debris", cfg.spec, train_end=1990),
                     3, 29, 26),
    "smap_predict": (lambda data, cfg: smap_predict(
        multivariate_embed(data, cfg.spec, "debris"), (1990, [1.0, 2.0, 3.0, 4.0]), cfg,
        exclusion_radius=28), 4, 61, 28),
    "iterative_forecast-growing": (lambda data, cfg: smap_iterative_forecast(
        data, "debris", cfg, 2030, exclusion_radius=58), 3, 61, 58),
    "iterative_forecast-fixed": (lambda data, cfg: smap_iterative_forecast(
        data, "debris", cfg, 2030, self_condition=False, exclusion_radius=58), 3, 61, 58),
}


@pytest.mark.parametrize("entry", sorted(SMAP_SHORTFALLS))
def test_smap_shortfall_is_named_where_the_library_is_cut(entry):
    call, admissible, size, radius = SMAP_SHORTFALLS[entry]
    message = (f"need dimension+2 = 6 points but only {admissible} admissible points remain "
               f"(library size {size}, exclusion radius {radius})")
    with pytest.raises(NeighborShortfallError, match=f"^{re.escape(message)}$"):
        call(load_bundled(), SMapConfig(BUNDLED_SPEC, 2.0))


def test_underflowing_weights_are_named_by_theta(tmp_path, capsys, monkeypatch):
    # past theta ~745 every weight exp(-theta d / mean) of a query can
    # underflow to 0; the fit used to forecast 0.0 for every year
    monkeypatch.chdir(tmp_path)
    code = cli_main(["forecast", "--method", "smap", "--columns", "debris,total", "--e", "4",
                     "--theta", "1e6", "--to", "2030"])
    assert code == 1
    message = "every S-map weight of a query underflows to 0 at theta=1e+06; choose a smaller theta"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        theta_search(load_bundled(), "debris", EmbeddingSpec((("debris", 2), ("total", 2))),
                     (0.0, 2.0, 1e6), train_end=1990)


def test_underflowing_theta_is_named_before_any_system_is_factored(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("a system was factored before the weights were checked")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    message = "every S-map weight of a query underflows to 0 at theta=1e+06; choose a smaller theta"
    spec = EmbeddingSpec((("debris", 2), ("total", 2)))
    cfg = SMapConfig(spec, 1e6)
    for call in (lambda data: theta_search(data, "debris", spec, (0.0, 2.0, 1e6), train_end=1990),
                 lambda data: smap_skill_eval(data, "debris", cfg, 1990),
                 lambda data: smap_iterative_forecast(data, "debris", cfg, 2030)):
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            call(load_bundled())


def test_rows_past_a_query_prefix_leave_its_fit_alone(monkeypatch):
    # a block of queries shares one distance and weight pass over its longest
    # prefix; a query scaled by a tiny mean distance must not overflow on the
    # later rows it never fits over, and its fit keeps the bits of a block of one.
    # Within the magnitude bound no nonzero Euclidean distance lies below 2.2e-162
    # (its square would underflow), so a later row's distance over a mean is at
    # most about 1e262: theta must carry the rest of the way past float64.  Each
    # query state recurs exactly in its prefix, so every query keeps a weight.
    values = np.tile([1e-160, 2e-160, 3e-160], 14)[:40]
    values[19] = 1e90  # past the first query's prefix, inside every later one
    theta = 1e60
    first_prefix_mean = np.abs(values[:19] - values[20]).mean()  # the first query's
    assert values[19] / first_prefix_mean > np.finfo(float).max / theta
    data = Dataset((TimeSeries("u", 0, values.tolist()),))
    cfg = SMapConfig(EmbeddingSpec.univariate("u", 1), theta)
    blocked = smap_skill_eval(data, "u", cfg, 20)
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", 1)  # one query per block
    alone = smap_skill_eval(data, "u", cfg, 20)
    for name in ("predicted", "step_variance", "coefficients"):
        assert getattr(blocked, name).tobytes() == getattr(alone, name).tobytes()
