import math

import numpy as np
import pytest

from edmkit.embedding import EmbeddingLibrary, EmbeddingSpec, delay_embed
from edmkit.simplex import (
    SimplexConfig,
    embed_dimension_search,
    iterative_forecast,
    simplex_predict,
    simplex_weights,
    skill_eval,
)
from edmkit.timeseries import Dataset, TimeSeries

from helpers import (
    coupled_logistic_pair,
    logistic_series,
    oracle_iterative_step,
    oracle_simplex,
)

# oracle-frozen values for the 3-step toy extrapolation (radius 0, k=3)
TOY_EXTRAPOLATION = (45.7521038260, 46.4158804600, 46.3003013497)


def toy_library(exclusion_radius=0):
    series = TimeSeries("x", 0, (10.0, 20.0, 30.0, 40.0, 50.0))
    spec = EmbeddingSpec.univariate("x", 2, exclusion_radius=exclusion_radius)
    return delay_embed(series, spec, tp=1)


def test_nearest_neighbour_raw_weight_is_inverse_e():
    # raw weight of the closest neighbour is exp(-1) whenever d1 > 0
    distances = np.array([2.0, 3.0, 10.0])
    weights = simplex_weights(distances)
    raw = np.exp(-distances / distances[0])
    assert weights == pytest.approx(raw / raw.sum())
    assert raw[0] == pytest.approx(math.exp(-1.0))


def test_equidistant_neighbours_average_targets():
    spec = EmbeddingSpec.univariate("q", 1, exclusion_radius=0)
    lib = EmbeddingLibrary(spec, "q", 0, np.arange(3),
                           np.array([[1.0], [-1.0], [1.0]]),
                           np.array([2.0, 4.0, 6.0]))
    value, variance = simplex_predict(lib, (10, [0.0]), SimplexConfig(spec, k=3))
    assert value == pytest.approx(4.0)
    assert variance == pytest.approx(np.mean((np.array([2.0, 4.0, 6.0]) - 4.0) ** 2))


def test_toy_prediction_exact_match_handling():
    lib = toy_library()
    cfg = SimplexConfig(lib.spec, k=3)
    value, variance = simplex_predict(lib, (2, np.array([30.0, 20.0])), cfg)
    assert value == pytest.approx(40.0, abs=1e-12)
    expected_var = 200.0 * math.exp(-1.0) / (1.0 + 2.0 * math.exp(-1.0))
    assert variance == pytest.approx(expected_var, rel=1e-12)


def test_weights_sum_to_one_and_hull_property():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(5, 30))
        dim = int(rng.integers(1, 4))
        spec = EmbeddingSpec((("s", dim),), exclusion_radius=0)
        lib = EmbeddingLibrary(spec, "s", 0, np.arange(n),
                               rng.normal(size=(n, dim)), rng.normal(size=n))
        k = int(rng.integers(1, min(n, 8) + 1))
        query = (int(rng.integers(0, n)), rng.normal(size=dim))
        dists = np.sqrt(((lib.vectors - query[1]) ** 2).sum(axis=1))
        order = np.argsort(dists, kind="stable")
        weights = simplex_weights(dists[order][:k])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # positive in exact arithmetic; the far tail may underflow to 0.0
        assert np.all(weights >= 0.0) and np.all(weights <= 1.0)
        assert weights[0] > 0.0
        value, _ = simplex_predict(lib, query, SimplexConfig(spec, k=k))
        chosen_targets = lib.targets[order[:k]]
        assert chosen_targets.min() - 1e-9 <= value <= chosen_targets.max() + 1e-9


def test_matches_reference_implementation():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(6, 40))
        dim = int(rng.integers(1, 5))
        spec = EmbeddingSpec((("s", dim),), exclusion_radius=int(rng.integers(0, 3)))
        lib = EmbeddingLibrary(spec, "s", 0, np.arange(n),
                               rng.normal(size=(n, dim)), rng.normal(size=n))
        k = int(rng.integers(1, 5))
        query = (int(rng.integers(0, n)), rng.normal(size=dim))
        try:
            value, variance = simplex_predict(lib, query, SimplexConfig(spec, k=k))
        except Exception:
            continue
        expected_value, expected_var = oracle_simplex(
            lib.vectors, lib.times, lib.targets, query[1], query[0], k,
            spec.radius)
        assert value == pytest.approx(expected_value, abs=1e-10)
        assert variance == pytest.approx(expected_var, abs=1e-10)


def test_duplicate_nearest_neighbour_regression():
    # duplicating the nearest neighbour (same vector and target, other time)
    # reweights deterministically; value recorded once from the oracle
    spec = EmbeddingSpec.univariate("q", 1, exclusion_radius=0)
    base = EmbeddingLibrary(spec, "q", 0, np.arange(3),
                            np.array([[1.0], [2.0], [4.0]]),
                            np.array([10.0, 20.0, 40.0]))
    cfg = SimplexConfig(spec, k=3)
    query = (9, [1.1])
    before, _ = simplex_predict(base, query, cfg)
    dup = EmbeddingLibrary(spec, "q", 0, np.arange(4),
                           np.array([[1.0], [2.0], [4.0], [1.0]]),
                           np.array([10.0, 20.0, 40.0, 10.0]))
    after, _ = simplex_predict(dup, query, cfg)
    assert before == pytest.approx(10.0033535013, abs=1e-9)
    assert after == pytest.approx(10.0016770318, abs=1e-9)


def test_skill_eval_linear_ramp_structure():
    data = Dataset.from_columns(0, {"x": [float(v) for v in range(40)]})
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    result = skill_eval(data, "x", cfg, train_end=20)
    # constant-offset predictions: correlation fine, error strictly positive
    assert result.rho == pytest.approx(1.0, abs=1e-9)
    assert result.rmse > 0.0


def test_skill_eval_logistic_map():
    data = Dataset((logistic_series(200),))
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    result = skill_eval(data, "x", cfg, train_end=100)
    assert result.rho > 0.99


def test_skill_eval_periodic_series():
    values = [math.sin(2.0 * math.pi * t / 8.0) for t in range(64)]
    data = Dataset.from_columns(0, {"x": values})
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 3))
    result = skill_eval(data, "x", cfg, train_end=40)
    assert result.rho >= 0.999


def test_skill_eval_rejects_bad_ranges():
    data = Dataset.from_columns(0, {"x": [float(v) for v in range(30)]})
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    with pytest.raises(ValueError):
        skill_eval(data, "x", cfg, train_end=20, eval_start=18)
    with pytest.raises(ValueError):
        skill_eval(data, "x", cfg, train_end=20, eval_start=25, eval_end=24)


def test_dimension_search_table_matches_bruteforce():
    values = [math.sin(2.0 * math.pi * t / 8.0) + 0.05 * math.cos(t) for t in range(80)]
    data = Dataset.from_columns(0, {"x": values})
    result = embed_dimension_search(data, "x", range(1, 7), train_end=50)
    # recompute each row independently through skill_eval
    for dimension, rho_value, rmse_value in result.rows:
        spec = EmbeddingSpec.univariate("x", dimension)
        again = skill_eval(data, "x", SimplexConfig(spec), 50)
        assert rho_value == pytest.approx(again.rho, abs=1e-12)
        assert rmse_value == pytest.approx(again.rmse, abs=1e-12)
    best_rho = max(r for _, r, _ in result.rows if not math.isnan(r))
    winners = [e for e, r, _ in result.rows if r == best_rho]
    assert result.best_dimension == min(winners)


def test_dimension_search_singleton():
    data = Dataset.from_columns(0, {"x": [float(v % 7) for v in range(50)]})
    result = embed_dimension_search(data, "x", [3], train_end=30)
    assert result.best_dimension == 3
    assert len(result.rows) == 1


def test_dimension_search_threads_deterministic():
    values = [math.sin(2.0 * math.pi * t / 8.0) for t in range(60)]
    data = Dataset.from_columns(0, {"x": values})
    single = embed_dimension_search(data, "x", range(1, 6), train_end=40, threads=1)
    multi = embed_dimension_search(data, "x", range(1, 6), train_end=40, threads=4)
    assert single.rows == multi.rows
    assert single.best_dimension == multi.best_dimension


def test_iterative_constant_series():
    data = Dataset.from_columns(0, {"x": [5.0] * 30})
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 3))
    result = iterative_forecast(data, "x", cfg, horizon_end=40)
    assert np.allclose(result.predicted, 5.0)
    assert np.allclose(result.band_halfwidth, 0.0)


def test_iterative_toy_matches_oracle():
    data = Dataset.from_columns(0, {"x": [10.0, 20.0, 30.0, 40.0, 50.0]})
    spec = EmbeddingSpec.univariate("x", 2, exclusion_radius=0)
    result = iterative_forecast(data, "x", SimplexConfig(spec, k=3), horizon_end=7)
    assert result.predicted == pytest.approx(TOY_EXTRAPOLATION, abs=1e-9)
    assert result.times.tolist() == [5, 6, 7]


def test_iterative_band_monotone():
    data = Dataset((logistic_series(80),))
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    result = iterative_forecast(data, "x", cfg, horizon_end=100)
    assert np.all(np.diff(result.band_halfwidth) >= -1e-12)


def test_iterative_fixed_library_mode():
    # sparse library makes the appended predictions matter
    data = Dataset((logistic_series(14),))
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    free = iterative_forecast(data, "x", cfg, horizon_end=40, self_condition=True)
    fixed = iterative_forecast(data, "x", cfg, horizon_end=40, self_condition=False)
    assert free.times.tolist() == fixed.times.tolist()
    assert np.max(np.abs(free.predicted - fixed.predicted)) > 1e-6


@pytest.mark.parametrize("self_condition", [True, False])
def test_iterative_steps_match_reference_two_series(self_condition):
    # every step, teacher-forced: step s is recomputed from the observations
    # plus the program's own steps before s for both extended series (the
    # forecast targeting y advances the same joint state, so it supplies y)
    data = Dataset(coupled_logistic_pair(60))
    spec = EmbeddingSpec((("x", 2), ("y", 2)), tau=2, normalize=True)
    steps = 15
    tracks = {name: iterative_forecast(data, name, SimplexConfig(spec), data.end_year + steps,
                                       self_condition=self_condition)
              for name in ("x", "y")}
    for s in range(steps):
        series = {name: list(data[name].values) + tracks[name].predicted[:s].tolist()
                  for name in tracks}
        expected = oracle_iterative_step(series, spec.columns, 2, data.n_years, self_condition,
                                         "simplex", normalize=True)
        for name, result in tracks.items():
            value, variance, _ = expected[name]
            assert result.predicted[s] == pytest.approx(value, rel=1e-10, abs=1e-10)
            assert result.step_variance[s] == pytest.approx(variance, rel=1e-10, abs=1e-10)


def test_forecast_result_serialization(tmp_path):
    data = Dataset((logistic_series(50),))
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2))
    result = skill_eval(data, "x", cfg, train_end=30)
    csv_path = tmp_path / "fc.csv"
    result.to_csv(csv_path)
    header = csv_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "year,predicted,observed,band_lo,band_hi"
    json_path = tmp_path / "fc.json"
    result.to_json(json_path)
    assert '"rows"' in json_path.read_text(encoding="utf-8")
