"""The forecasting protocol shared by simplex and S-map: error paths, query
states, and the configuration surface."""

import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from edmkit import embedding, forecast
from edmkit.bundled import load_bundled
from edmkit.cli import main
from edmkit.embedding import (
    EmbeddingError,
    EmbeddingLibrary,
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
from edmkit.timeseries import _BOUND, Dataset, TimeSeries, load_csv

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
        ["forecast", "--method", "simplex", "--e", "5", "--train-end", "1960", "--to", "2000"], 2,
    ),
    "query_before_first_state_smap": (
        lambda data: smap_skill_eval(data, "debris", SMapConfig(DEBRIS_E5, 0.0), 1960),
        EmbeddingError, "cannot form a state vector at 1960: needs data on 1956..1960, "
                        "have 1960..2022",
        ["forecast", "--method", "smap", "--theta", "0", "--e", "5", "--train-end", "1960",
         "--to", "2000"], 2,
    ),
    "no_defined_theta": (
        lambda data: theta_search(data, "debris", TWO_INPUT, [0.0], train_end=2020,
                                  eval_start=2022),
        RuntimeError, "no theta produced a defined skill", None, None,
    ),
    "no_dimensions": (
        lambda data: embed_dimension_search(data, "debris", [], train_end=1990),
        ValueError, "no embedding dimensions to search", ["embed-search", "--e", ","], 2,
    ),
    "empty_theta_grid": (
        lambda data: theta_search(data, "debris", TWO_INPUT, [], train_end=1990),
        ValueError, "theta grid is empty", None, None,
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
    # for byte.  The default budget splits the 199 queries into blocks of 55
    # to 109 rows; a budget of 1 gives one row per block, 2000 one or two.
    if budget is not None:
        monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", budget)
    data = Dataset(coupled_logistic_pair(300))
    spec = SIMPLEX_SPECS[name]
    cfg = SimplexConfig(spec)
    full = multivariate_embed(data, spec, "x", tp=1)
    result = skill_eval(data, "x", cfg, train_end=100)
    assert embedding._BLOCK_ELEMENTS // (len(full) * spec.dimension) < result.times.shape[0]
    expected = np.array([
        simplex_predict(full.targets_through(int(year) - 1),
                        (int(year) - 1, full.vectors[int(year) - 1 - int(full.times[0])]), cfg)
        for year in result.times
    ])
    assert result.predicted.tobytes() == expected[:, 0].tobytes()
    assert result.step_variance.tobytes() == expected[:, 1].tobytes()


@pytest.mark.parametrize("rows", [2, 3, 5])
@pytest.mark.parametrize("dimension, radius", [(1, 4), (2, 6)])
def test_batched_simplex_never_uses_an_excluded_exact_copy(dimension, radius, rows, monkeypatch):
    # from year m on the series repeats with period ``radius``, so the row at
    # each query's limit, ``radius`` years back, holds the query's own state
    # at distance 0 and lies inside the block's columns for every query but
    # the block's last.  The history before m lies below every repeated
    # value, and the queries end before a second copy would be admissible,
    # so a prediction that used the excluded copy would change.
    rng = np.random.default_rng(10 * dimension + radius)
    m = 20
    first = m + radius + dimension - 1  # the first query state with a copy at its limit
    values = np.concatenate([rng.uniform(0.0, 1.0, m),
                             np.tile(rng.uniform(2.0, 3.0, radius), 3)])
    data = Dataset((TimeSeries("x", 0, values),))
    spec = EmbeddingSpec.univariate("x", dimension, exclusion_radius=radius)
    cfg = SimplexConfig(spec)
    full = multivariate_embed(data, spec, "x", tp=1)
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", rows * len(full) * dimension)
    result = skill_eval(data, "x", cfg, train_end=first, eval_end=first + radius)
    assert result.times.shape == (radius,)
    expected = []
    for year in result.times:
        row = int(year) - 1 - int(full.times[0])
        assert full.vectors[row - radius].tobytes() == full.vectors[row].tobytes()
        library = full.targets_through(int(year) - 1)
        query = (int(year) - 1, full.vectors[row])
        assert (knn(library, query, cfg.effective_k, "euclidean").distances > 0.0).all()
        expected.append(simplex_predict(library, query, cfg))
    assert result.predicted.tobytes() == np.array(expected)[:, 0].tobytes()
    assert result.step_variance.tobytes() == np.array(expected)[:, 1].tobytes()


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


# a radius past int64 used to reach the protocol's prefix search; it admits no row
BEYOND_INT64_RADIUS_CALLS = {
    "iterative_forecast-2**63": lambda data: iterative_forecast(
        data, "x", SimplexConfig(COUPLED), data.end_year + 5, exclusion_radius=2 ** 63),
    "iterative_forecast-400-digits": lambda data: iterative_forecast(
        data, "x", SimplexConfig(COUPLED), data.end_year + 5, exclusion_radius=10 ** 400),
    "skill_eval-2**63": lambda data: skill_eval(
        data, "x", SimplexConfig(replace(COUPLED, exclusion_radius=2 ** 63)), 40),
}


@pytest.mark.parametrize("entry", sorted(BEYOND_INT64_RADIUS_CALLS))
def test_radius_beyond_int64_leaves_no_admissible_rows(entry):
    data = Dataset(coupled_logistic_pair(60))
    with pytest.raises(NeighborShortfallError, match="need k=5 neighbours but only 0 admissible "
                                                     "points remain"):
        BEYOND_INT64_RADIUS_CALLS[entry](data)


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


def _record(tmp_path, spread):
    # 40 years drawn from +-spread
    rng = random.Random(1)
    path = tmp_path / "wide.csv"
    path.write_text("year,b\n" + "".join(f"{1960 + i},{rng.uniform(-spread, spread)!r}\n"
                                         for i in range(40)), encoding="utf-8")
    return path


@pytest.mark.parametrize("method", [["--method", "simplex"], ["--method", "smap", "--theta", "2"]],
                         ids=["simplex", "smap"])
def test_forecast_cli_refuses_a_record_beyond_the_bound(method, tmp_path, capsys):
    # squared differences of values from +-1e200 overflow float64: simplex used to name a
    # NaN forecast in 2000, the S-map a non-converging SVD; load_csv now names the first cell
    path = _record(tmp_path, 1e200)
    code = main(["forecast", *method, "--columns", "b", "--e", "2", "--train-end", "1980",
                 "--to", "2005", "--data", str(path), "--out", str(tmp_path / "f.csv")])
    assert code == 2
    first = random.Random(1).uniform(-1e200, 1e200)
    assert capsys.readouterr().err == (f"error: {path}: row 2: value '{first!r}' beyond the "
                                       f"magnitude bound 1e+100 in column 'b'\n")
    assert not list(tmp_path.glob("f*"))


def test_a_record_whose_squared_errors_overflow_is_refused_where_it_enters():
    # its Euclidean span passed the old span check, and skill_eval then returned
    # rmse = inf beside a defined rho after an overflow in matmul
    rng = random.Random(1)
    values = [rng.uniform(-6e153, 6e153) for _ in range(40)]
    message = (f"^series 'b' has a value {re.escape(repr(values[0]))} beyond the magnitude "
               f"bound 1e\\+100 in year 1960$")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            data = Dataset((TimeSeries("b", 1960, values),))
            skill_eval(data, "b", SimplexConfig(EmbeddingSpec.univariate("b", 1)), 1980)


def _blow_up(year, values):
    return {name: value * 1e60 for name, value in values.items()}


@pytest.mark.parametrize("cfg, year", [(SimplexConfig(EmbeddingSpec.univariate("b", 2)), 2002),
                                       (SMapConfig(EmbeddingSpec.univariate("b", 2), 2.0), 2001)],
                         ids=["simplex", "smap"])
def test_both_drivers_name_a_forecast_beyond_the_bound(cfg, year):
    # an adjust that multiplies each year by 1e60 used to overflow the distances:
    # simplex named a NaN only after RuntimeWarnings, the S-map raised LinAlgError
    data = Dataset((TimeSeries("b", 1960, [float(i % 7) for i in range(40)]),))
    message = f"series 'b' has a value [^ ]+ beyond the magnitude bound 1e\\+100 in year {year}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            forecast.iterative_forecast(data, "b", cfg, 2030, adjust=_blow_up)
        # a lockstep checks each record on its own and names the one that leaves the bound
        with pytest.raises(ValueError, match=f"^wide: {message}"):
            forecast._lockstep([data, data], "b", cfg, 2030, [None, _blow_up],
                               labels=["narrow", "wide"])


@pytest.mark.parametrize("method", ["simplex", "smap"])
def test_a_lockstep_gathers_each_record_with_its_own_norms(method):
    # one gather per year serves every record, each record's norms stacked
    # along the record axis: each record forecasts as it does alone
    x, y = coupled_logistic_pair(60)
    spec = EmbeddingSpec((("x", 2), ("y", 1)), tau=2, normalize=True)
    cfg = SimplexConfig(spec) if method == "simplex" else SMapConfig(spec, 2.0)
    records = [Dataset((TimeSeries("x", 1960, scale * np.array(x.values) + shift),
                        TimeSeries("y", 1960, y.values)))
               for scale, shift in ((1.0, 0.0), (3.0, 5.0), (0.5, -2.0))]
    together = forecast._lockstep(records, "x", cfg, 2040, [None] * 3)
    for record, result in zip(records, together):
        alone = forecast.iterative_forecast(record, "x", cfg, 2040)
        for name in ("predicted", "step_variance", "coefficients"):
            assert np.asarray(getattr(result, name)).tobytes() == \
                np.asarray(getattr(alone, name)).tobytes()


@pytest.mark.parametrize("predict", [
    lambda library, query: simplex_predict(library, query, SimplexConfig(library.spec))[0],
    lambda library, query: smap_predict(library, query, SMapConfig(library.spec, 1.0)).prediction,
], ids=["simplex", "smap"])
def test_single_query_predictors_stay_finite_at_the_bound(predict):
    # states 2e100 apart: past float64, simplex_predict used to return NaN after
    # overflow warnings and smap_predict to raise a non-converging SVD
    spec = EmbeddingSpec.univariate("s", 1)
    library = EmbeddingLibrary(spec, "s", 1, np.arange(2000, 2006), [[_BOUND], [-_BOUND]] * 3,
                               np.arange(6.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(predict(library, (2010, [0.0])))


def test_normalizing_a_series_at_the_bound_stays_finite(tmp_path):
    # past float64 the squares of its deviations used to overflow, scale every
    # coordinate to 0 and predict one value for every year
    data = load_csv(_record(tmp_path, _BOUND))
    cfg = SimplexConfig(EmbeddingSpec.univariate("b", 2, normalize=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        predicted = skill_eval(data, "b", cfg, 1980).predicted
    assert np.isfinite(predicted).all() and np.unique(predicted).size > 1


@pytest.mark.parametrize("argv, message", [
    (["forecast", "--method", "simplex", "--columns", "debris", "--e", "70", "--to", "2030"],
     "series of length 63 too short for embedding (needs more than 70 points)"),
    (["embed-search", "--e", "70:71"],
     "series of length 63 too short for embedding (needs more than 70 points)"),
    (["embed-search", "--e", "60:61"],
     "cannot form a state vector at 1990: needs data on 1931..1990, have 1960..2022"),
    (["ccm", "--a", "debris", "--b", "total", "--e", "70"],
     "series of length 63 too short for embedding (needs more than 69 points)"),
], ids=["forecast", "embed_search_too_short", "embed_search_state", "ccm"])
def test_an_embedding_the_record_cannot_hold_exits_2_on_every_command(argv, message, tmp_path,
                                                                      capsys):
    # an EmbeddingError is an input error; forecast and embed-search used to exit 1
    assert main([*argv, "--out", str(tmp_path / "short.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())
