"""The forecasting protocol shared by simplex and S-map: error paths, query
states, and the configuration surface."""

import re
from dataclasses import replace

import numpy as np
import pytest

from edmkit import forecast
from edmkit.bundled import load_bundled
from edmkit.cli import main
from edmkit.embedding import (
    EmbeddingError,
    EmbeddingSpec,
    NeighborShortfallError,
    knn,
    multivariate_embed,
    state_vector,
)
from edmkit.forecast import best_row
from edmkit.simplex import (SimplexConfig, embed_dimension_search, iterative_forecast,
                            simplex_predict, skill_eval)
from edmkit.smap import SMapConfig, smap_iterative_forecast, smap_predict, theta_search
from edmkit.smap import skill_eval as smap_skill_eval
from edmkit.timeseries import Dataset, TimeSeries

from helpers import coupled_logistic_pair

TWO_INPUT = EmbeddingSpec((("debris", 2), ("total", 2)))
DEBRIS_E5 = EmbeddingSpec.univariate("debris", 5)

# (call on the bundled record, error type, message, CLI argv or None, exit code)
PROTOCOL_ERRORS = {
    "start_not_after_train_end": (
        lambda data: skill_eval(data, "debris", SimplexConfig(TWO_INPUT), 1990, eval_start=1990),
        ValueError, "evaluation must start after train_end=1990, got 1990",
        ["embed-search", "--train-end", "1990", "--eval-start", "1990"], 2,
    ),
    "empty_range": (
        lambda data: smap_skill_eval(data, "debris", SMapConfig(TWO_INPUT, 1.0), 1990,
                                     eval_start=2000, eval_end=1995),
        ValueError, "empty evaluation range 2000..1995",
        ["embed-search", "--eval-start", "2000", "--eval-end", "1995"], 2,
    ),
    "outside_data": (
        lambda data: skill_eval(data, "debris", SimplexConfig(TWO_INPUT), 1990, eval_end=2030),
        ValueError, "evaluation range 1991..2030 outside data 1960..2022",
        ["embed-search", "--eval-end", "2030"], 2,
    ),
    "query_before_first_state_simplex": (
        lambda data: skill_eval(data, "debris", SimplexConfig(DEBRIS_E5), 1960),
        EmbeddingError, "cannot form a state vector at 1960: needs data on 1956..1960, "
                        "have 1960..2022",
        ["forecast", "--method", "simplex", "--e", "5", "--train-end", "1960", "--to", "2000"], 1,
    ),
    "query_before_first_state_smap": (
        lambda data: smap_skill_eval(data, "debris", SMapConfig(DEBRIS_E5, 0.0), 1960),
        EmbeddingError, "cannot form a state vector at 1960: needs data on 1956..1960, "
                        "have 1960..2022",
        ["forecast", "--method", "smap", "--theta", "0", "--e", "5", "--train-end", "1960",
         "--to", "2000"], 1,
    ),
    "no_defined_theta": (
        lambda data: theta_search(data, "debris", TWO_INPUT, [0.0], train_end=2020,
                                  eval_start=2022),
        RuntimeError, "no theta produced a defined skill", None, None,
    ),
    "no_defined_dimension": (
        lambda data: embed_dimension_search(data, "debris", [1], train_end=2020,
                                            eval_start=2022),
        RuntimeError, "no embedding dimension produced a defined skill",
        ["embed-search", "--e", "1", "--train-end", "2020", "--eval-start", "2022"], 1,
    ),
}


@pytest.mark.parametrize("case", sorted(PROTOCOL_ERRORS))
def test_protocol_error_paths(case, tmp_path, capsys):
    call, error, message, argv, code = PROTOCOL_ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(load_bundled())
    if argv is None:
        return
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == code  # on the bundled record
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("radius", [None, 0])
@pytest.mark.parametrize("method", ["simplex", "smap"])
def test_one_step_queries_are_library_rows(method, radius):
    # every prediction equals the predictor called on the expanding library
    # and a freshly formed query state, bit for bit; radius 0 admits every
    # library point, so a library reaching the predicted year would show
    data = Dataset(coupled_logistic_pair(120))
    spec = EmbeddingSpec((("x", 2), ("y", 2)), tau=2, exclusion_radius=radius, normalize=True)
    full = multivariate_embed(data, spec, "x", tp=1)
    if method == "simplex":
        cfg = SimplexConfig(spec)
        result = skill_eval(data, "x", cfg, train_end=60)
    else:
        cfg = SMapConfig(spec, 2.0)
        result = smap_skill_eval(data, "x", cfg, train_end=60)
    assert result.times.shape == (59,)
    for i, year in enumerate(result.times):
        library = full.targets_through(int(year) - 1)
        query = (int(year) - 1, state_vector(data, spec, int(year) - 1, norms=full.norms))
        if method == "simplex":
            expected, variance = simplex_predict(library, query, cfg)
        else:
            step = smap_predict(library, query, cfg)
            expected, variance = step.prediction, step.variance
            assert np.array_equal(result.coefficients[i], step.coefficients)
        assert result.predicted[i] == expected
        assert result.step_variance[i] == variance
        assert result.observed[i] == data["x"].value_at(int(year))


SIMPLEX_SPECS = {
    "default_radius": EmbeddingSpec.univariate("x", 3),
    "radius_0": EmbeddingSpec.univariate("x", 3, exclusion_radius=0),
    "radius_9": EmbeddingSpec.univariate("x", 2, exclusion_radius=9),
    "two_series": EmbeddingSpec((("x", 2), ("y", 2)), tau=2, normalize=True),
}


@pytest.mark.parametrize("budget", [None, 1, 2000])
@pytest.mark.parametrize("name", sorted(SIMPLEX_SPECS))
def test_batched_simplex_matches_per_query(name, budget, monkeypatch):
    # one-step simplex predicts blocks of query rows at once; each prediction
    # and variance must equal simplex_predict on the expanding library, byte
    # for byte.  The default budget splits the 199 queries into blocks of 40
    # to 80 rows; a budget of 1 gives one row per block, 2000 one or two.
    if budget is not None:
        monkeypatch.setattr(forecast, "_BLOCK_ELEMENTS", budget)
    data = Dataset(coupled_logistic_pair(300))
    spec = SIMPLEX_SPECS[name]
    cfg = SimplexConfig(spec)
    full = multivariate_embed(data, spec, "x", tp=1)
    result = skill_eval(data, "x", cfg, train_end=100)
    assert forecast._BLOCK_ELEMENTS // (len(full) * spec.dimension) < result.times.shape[0]
    expected = np.array([
        simplex_predict(full.targets_through(int(year) - 1),
                        (int(year) - 1, full.vectors[int(year) - 1 - int(full.times[0])]), cfg)
        for year in result.times
    ])
    assert result.predicted.tobytes() == expected[:, 0].tobytes()
    assert result.step_variance.tobytes() == expected[:, 1].tobytes()


def test_batched_simplex_shortfall_is_the_per_query_error():
    # the first query (the state at 5) has library rows at 1..4, of which
    # the radius-2 window leaves 1 and 2
    data = Dataset(coupled_logistic_pair(60))
    cfg = SimplexConfig(EmbeddingSpec.univariate("x", 2), k=5)
    message = ("need k=5 neighbours but only 2 admissible points remain "
               "(library size 4, exclusion radius 2)")
    with pytest.raises(NeighborShortfallError, match=f"^{re.escape(message)}$"):
        skill_eval(data, "x", cfg, train_end=5)
    full = multivariate_embed(data, cfg.spec, "x", tp=1)
    with pytest.raises(NeighborShortfallError, match=f"^{re.escape(message)}$"):
        simplex_predict(full.targets_through(5), (5, full.vectors[4]), cfg)


def test_configs_take_no_horizon():
    spec = EmbeddingSpec.univariate("x", 2)
    with pytest.raises(TypeError):
        SimplexConfig(spec, 1)
    with pytest.raises(TypeError):
        SMapConfig(spec, 1.0, 1)
    assert SimplexConfig(spec, k=1).k == 1
    assert SMapConfig(spec, 1.0, ridge=1.0).ridge == 1.0


def test_best_row_ties_go_to_the_smallest_parameter():
    nan = float("nan")
    rows = ((1, nan, 1.0), (2, 0.5, 2.0), (3, 0.9, 3.0), (4, 0.9, 0.1), (5, nan, 0.0))
    assert best_row(rows, "dimension") == (3, 0.9, 3.0)
    with pytest.raises(RuntimeError, match="^no dimension produced a defined skill$"):
        best_row(rows[:1], "dimension")


ITERATIVE_SPECS = {
    # the target leads neither layout, and every layout extends two series
    "non_leading_target": EmbeddingSpec((("y", 2), ("x", 2))),
    "tau2_normalized": EmbeddingSpec((("y", 2), ("x", 1)), tau=2, normalize=True),
}


@pytest.mark.parametrize("self_condition", [True, False])
@pytest.mark.parametrize("radius", [0, 3])
@pytest.mark.parametrize("name", sorted(ITERATIVE_SPECS))
@pytest.mark.parametrize("method", ["simplex", "smap"])
def test_iterative_steps_match_per_query_predictors(method, name, radius, self_condition):
    # every iterative step equals simplex_predict / smap_predict on the
    # equivalent library, fed the trajectory the loop itself produced; the
    # layout extends both x and y, and forecasting either target yields
    # the same joint trajectory, so two runs expose every forward column
    data = Dataset(coupled_logistic_pair(90))  # from year 0
    spec = ITERATIVE_SPECS[name]
    horizon = data.end_year + 40
    if method == "simplex":
        cfg = SimplexConfig(spec)
        results = {target: iterative_forecast(data, target, cfg, horizon, self_condition,
                                              exclusion_radius=radius) for target in "xy"}
    else:
        cfg = SMapConfig(spec, 2.0, ridge=0.1)
        results = {target: smap_iterative_forecast(data, target, cfg, horizon, self_condition,
                                                   exclusion_radius=radius)
                   for target in "xy"}
    extended = {target: np.concatenate([data[target].to_array(), result.predicted])
                for target, result in results.items()}
    window = replace(spec, exclusion_radius=radius)
    norms = multivariate_embed(data, spec, "x").norms
    for target, result in results.items():
        for i, year in enumerate(result.times):
            known = Dataset(tuple(TimeSeries(s, 0, extended[s][:year]) for s in "xy"))
            library = multivariate_embed(known if self_condition else data, window, target,
                                         norms=norms)
            query = (int(year) - 1, state_vector(known, spec, int(year) - 1, norms=norms))
            if method == "simplex":
                expected, variance = simplex_predict(library, query, cfg)
            else:
                step = smap_predict(library, query, cfg)
                expected, variance = step.prediction, step.variance
                assert result.coefficients[i].tobytes() == step.coefficients.tobytes()
            assert result.predicted[i] == expected, (target, int(year))
            assert result.step_variance[i] == variance, (target, int(year))


COUPLED = EmbeddingSpec((("x", 2), ("y", 2)))

# each per-call exclusion radius entry point, called on a 60-point pair
NEGATIVE_RADIUS_CALLS = {
    "iterative_forecast": lambda data, library, query: iterative_forecast(
        data, "x", SimplexConfig(COUPLED), data.end_year + 5, exclusion_radius=-2),
    "smap_iterative_forecast": lambda data, library, query: smap_iterative_forecast(
        data, "x", SMapConfig(COUPLED, 2.0), data.end_year + 5, exclusion_radius=-2),
    "knn": lambda data, library, query: knn(library, query, 3, exclusion_radius=-2),
    "smap_predict": lambda data, library, query: smap_predict(
        library, query, SMapConfig(COUPLED, 2.0), exclusion_radius=-2),
}


@pytest.mark.parametrize("entry", sorted(NEGATIVE_RADIUS_CALLS))
def test_negative_exclusion_radius_is_rejected_by_name(entry):
    # a negative radius used to act as radius 0
    data = Dataset(coupled_logistic_pair(60))
    library = multivariate_embed(data, COUPLED, "x")
    query = (int(library.times[-1]), library.vectors[-1])
    with pytest.raises(ValueError, match="^exclusion_radius must be >= 0, got -2$"):
        NEGATIVE_RADIUS_CALLS[entry](data, library, query)


@pytest.mark.parametrize("horizon", [pytest.param(10 ** 400, id="400-digits"), 10 ** 15])
@pytest.mark.parametrize("method", ["simplex", "smap"])
def test_too_long_horizon_is_named(method, horizon):
    # a 400-digit horizon used to end with numpy's "Maximum allowed dimension exceeded"
    data = load_bundled()
    spec = EmbeddingSpec.univariate("debris", 2)
    message = f"^horizon {horizon} lies too far past the record \\(2022\\) to fit in memory$"
    with pytest.raises(ValueError, match=message):
        if method == "simplex":
            iterative_forecast(data, "debris", SimplexConfig(spec), horizon)
        else:
            smap_iterative_forecast(data, "debris", SMapConfig(spec, 1.0), horizon)


def test_too_long_horizon_ends_the_command_with_exit_two(tmp_path, capsys):
    big = "9" * 400
    out = tmp_path / "out.csv"
    code = main(["forecast", "--method", "simplex", "--e", "2", "--to", big,
                 "--out", str(out)])  # on the bundled record
    assert code == 2
    assert capsys.readouterr().err == (f"error: horizon {big} lies too far past the record "
                                       f"(2022) to fit in memory\n")
    assert not any(tmp_path.iterdir())
