"""The shared neighbour-and-kernel core: distances, candidacy, selection, row products.

Distances are checked byte for byte against one rule, coordinate terms added
in coordinate order, at every caller's shape; each other helper against the
per-site formula it replaced, so every caller keeps the bits it had.
"""

import math
import re
import warnings

import numpy as np
import pytest

from edmkit import ccm, embedding, forecast
from edmkit.bundled import load_bundled
from edmkit.embedding import (EmbeddingLibrary, EmbeddingSpec, _candidates, _distance_rows,
                              _exclude_band, _floor, _lag_distances, _lag_series, _nearest, knn,
                              multivariate_embed)
from edmkit.simplex import SimplexConfig, simplex_predict, skill_eval
from edmkit.smap import SMapConfig, smap_predict
from edmkit.timeseries import Dataset, TimeSeries, _row_dot

from helpers import coupled_logistic_pair


def _vectors(rng, rows, dimension):
    # coordinates spread over six decades, so a change of summation order shows
    return rng.normal(size=(rows, dimension)) * 10.0 ** rng.uniform(-3, 3, size=dimension)


def _planes(vectors, query, metric):
    """One query's distances in Python floats, each coordinate's term added in order."""
    distances = []
    for row in vectors.tolist():
        total = None
        for v, q in zip(row, query.tolist()):
            term = abs(v - q) if metric == "manhattan" else (v - q) * (v - q)
            total = term if total is None else total + term
        distances.append(math.sqrt(total) if metric == "euclidean" else total)
    return np.array(distances)


METRICS = pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
DIMENSIONS = pytest.mark.parametrize("dimension", range(1, 11))


@pytest.mark.parametrize("queries", [1, 4, 9])
@METRICS
@DIMENSIONS
def test_distance_rows_add_planes_in_coordinate_order(dimension, metric, queries):
    # one rule for every metric, dimension and block size: each row is the
    # per-query sum of coordinate terms taken in coordinate order
    rng = np.random.default_rng(100 * dimension + queries)
    vectors = _vectors(rng, 57, dimension)
    block = _vectors(rng, queries, dimension)
    distances = _distance_rows(vectors, block, metric)
    assert distances.shape == (queries, 57)
    for q, query in enumerate(block):
        assert distances[q].tobytes() == _planes(vectors, query, metric).tobytes()


@METRICS
@DIMENSIONS
def test_per_query_libraries_add_planes_in_coordinate_order(dimension, metric):
    # the (queries, rows, dimension) libraries of the iterative driver
    rng = np.random.default_rng(300 + dimension)
    vectors = _vectors(rng, 5 * 40, dimension).reshape(5, 40, dimension)
    queries = _vectors(rng, 5, dimension)
    distances = _distance_rows(vectors, queries, metric)
    assert distances.shape == (5, 40)
    for q, query in enumerate(queries):
        assert distances[q].tobytes() == _planes(vectors[q], query, metric).tobytes()


@METRICS
@DIMENSIONS
def test_knn_distances_add_planes_in_coordinate_order(dimension, metric):
    rng = np.random.default_rng(400 + dimension)
    vectors = _vectors(rng, 50, dimension)
    query = _vectors(rng, 1, dimension)[0]
    library = _library(np.arange(1960, 2010), vectors, np.zeros(50), 2)
    found = knn(library, (1980, query), 6, metric)
    reference = _planes(vectors, query, metric)
    candidates = np.flatnonzero(np.abs(library.times - 1980) > 2)
    expected = candidates[np.argsort(reference[candidates], kind="stable")[:6]]
    assert found.indices.tolist() == expected.tolist()
    assert found.distances.tobytes() == reference[expected].tobytes()


@pytest.mark.parametrize("floor", [-1, 0, 1, 3, 7, 25])
@pytest.mark.parametrize("first, rows", [(0, 4), (2, 5), (13, 7), (18, 2), (0, 20)])
def test_exclude_band_writes_inf_where_no_candidate(floor, first, rows):
    # library times are consecutive; the blocks touch the first row, the
    # middle, the last row, and both ends at once; floors 7 and 25 reach past
    # a block's row count, and the bands of the last rows run past the last column
    times = np.arange(1961, 1981)
    block = np.random.default_rng((floor + 1, first)).random((rows, times.size))
    before = block.copy()
    _exclude_band(block, first, floor)
    excluded = ~_candidates(times, times[first:first + rows], floor)
    assert np.array_equal(np.isinf(block), excluded)
    assert np.array_equal(block[~excluded], before[~excluded])


def _lag_distances_match(data, spec, metric):
    """Every block of consecutive states, from the planes, has the bits of ``_distance_rows``."""
    vectors = multivariate_embed(data, spec, "x", tp=0).vectors
    n = len(vectors)
    series = _lag_series(vectors, spec)
    # the first state, the middle, the last state, a one-row block and every state
    blocks = {(0, min(4, n)), (n // 3, n // 3 + (n + 1) // 2), (max(n - 5, 0), n),
              (n // 2, n // 2 + 1), (0, n)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start, stop in sorted(blocks):
            for width in sorted({n, max(1, n // 3), stop}):
                distances = _lag_distances(series, spec.tau, start, stop, width, metric)
                expected = _distance_rows(vectors[:width], vectors[start:stop], metric)
                assert distances.shape == expected.shape
                assert distances.tobytes() == expected.tobytes(), (start, stop, width)


def _decades(length):
    # x and y six decades apart, so a change of summation order shows
    rng = np.random.default_rng(length)
    return Dataset((TimeSeries("x", 1960, rng.normal(size=length) * 1e3),
                    TimeSeries("y", 1960, rng.normal(size=length) * 1e-3)))


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("columns", [(("x", e),) for e in range(1, 11)]
                         + [(("x", 3), ("y", 1)), (("y", 1), ("x", 3))],
                         ids=[f"E{e}" for e in range(1, 11)] + ["x3_y1", "y1_x3"])
@METRICS
def test_lag_distances_equal_distance_rows_on_the_states(metric, columns, tau, normalize):
    # the shifted views of one difference plane per spec column
    _lag_distances_match(_decades(41), EmbeddingSpec(columns, tau, normalize=normalize), metric)


@pytest.mark.parametrize("normalize", [False, True])
@METRICS
def test_lag_distances_where_tau_exceeds_the_state_count(metric, normalize):
    # 2 states, tau 5: the series entries no state reads stay finite
    for columns in ((("x", 3),), (("x", 3), ("y", 2))):
        _lag_distances_match(_decades(12), EmbeddingSpec(columns, 5, normalize=normalize), metric)


@pytest.mark.parametrize("tau, rows, planes", [(1, 1, True), (2, 1, False), (3, 3, True),
                                               (4, 3, False), (1, 30, True)])
@METRICS
def test_block_distances_take_the_planes_while_tau_is_at_most_the_rows(monkeypatch, metric, tau,
                                                                        rows, planes):
    # either kernel gives the bits of _distance_rows; the planes subtract fewer values
    # only while tau is at most the block's row count
    spec = EmbeddingSpec.univariate("x", 3, tau)
    vectors = multivariate_embed(_decades(50), spec, "x", tp=0).vectors
    calls = []

    def planes_counted(*block, lag_distances=embedding._lag_distances):
        calls.append(block)
        return lag_distances(*block)

    monkeypatch.setattr(embedding, "_lag_distances", planes_counted)
    distances = embedding._block_distances(vectors, _lag_series(vectors, spec), tau, 5, 5 + rows,
                                           len(vectors), metric)
    assert bool(calls) == planes
    expected = _distance_rows(vectors, vectors[5:5 + rows], metric)
    assert distances.tobytes() == expected.tobytes()


def test_unknown_metric_is_named():
    with pytest.raises(ValueError, match="unknown metric 'chebyshev'"):
        _distance_rows(np.zeros((3, 2)), np.zeros((1, 2)), "chebyshev")


def _dots(a, b):
    return np.array([a[i] @ b[i] for i in range(a.shape[0])])


@pytest.mark.parametrize("width", [2, 5, 11, 63, 1000])
def test_row_dot_rounds_like_the_one_dimensional_product(width):
    rng = np.random.default_rng(width)
    # simplex: one weight row per query, one target row per (series, query)
    weights = rng.random((7, width))
    targets = _vectors(rng, 3 * 7, width).reshape(3, 7, width)
    sums = _row_dot(weights, targets)
    assert sums.shape == (3, 7)
    for c in range(3):
        assert sums[c].tobytes() == _dots(weights, targets[c]).tobytes()
    # cross mapping: one weight row and one value row per (query, cell)
    values = _vectors(rng, 7, width)
    assert _row_dot(weights, values).tobytes() == _dots(weights, values).tobytes()
    # rho: one observed row against every predicted row, and each row with itself
    observed = values[0]
    assert (_row_dot(observed, values).tobytes()
            == np.array([observed @ row for row in values]).tobytes())
    assert _row_dot(values, values).tobytes() == _dots(values, values).tobytes()


def test_floor_states_the_candidacy_rule():
    assert _floor(3) == _floor(3, leave_one_out=True) == 3
    assert _floor(0) == -1
    assert _floor(0, leave_one_out=True) == 0
    times = np.arange(1960, 1970)
    assert _candidates(times, 1964, _floor(0)).all()
    assert np.array_equal(_candidates(times, 1964, _floor(0, True)), times != 1964)
    assert np.array_equal(_candidates(times, 1964, _floor(2)), np.abs(times - 1964) > 2)
    assert not _candidates(times, 1964, _floor(10 ** 400)).any()
    block = _candidates(times, times[2:5], _floor(1))
    assert block.shape == (3, 10)
    for row, query in zip(block, times[2:5]):
        assert np.array_equal(row, np.abs(times - query) > 1)


@pytest.mark.parametrize("width", [40, 1024])
def test_nearest_is_the_masked_stable_sort(width):
    rng = np.random.default_rng(width)
    distances = rng.integers(0, 6, size=(9, width)).astype(float)  # many ties
    keep = rng.random((9, width)) < 0.7
    keep[:, :8] = True
    masked = np.where(keep, distances, np.inf)
    columns, nearest = _nearest(masked, 5)
    reference = np.argsort(masked, axis=1, kind="stable")[:, :5]
    assert np.array_equal(columns, reference)
    assert np.array_equal(nearest, np.take_along_axis(distances, reference, axis=1))


def _library(times, vectors, targets, radius):
    spec = EmbeddingSpec((("s", vectors.shape[1]),), exclusion_radius=radius)
    return EmbeddingLibrary(spec, "s", 1, times, vectors, targets)


# the single-query entry points, each called on a library and a query
SINGLE_QUERY = {
    "knn-euclidean": lambda library, query: knn(library, query, 4),
    "knn-manhattan": lambda library, query: knn(library, query, 4, "manhattan"),
    "simplex_predict": lambda library, query: simplex_predict(
        library, query, SimplexConfig(library.spec)),
    "smap_predict": lambda library, query: smap_predict(
        library, query, SMapConfig(library.spec, 2.0)),
}


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("entry", sorted(SINGLE_QUERY))
def test_query_of_the_wrong_length_is_named(entry, length):
    # a 1-coordinate query used to broadcast in Euclidean knn and simplex,
    # and Manhattan knn ignored a 4th coordinate
    rng = np.random.default_rng(length)
    library = _library(np.arange(30), rng.normal(size=(30, 3)), rng.normal(size=30), 0)
    message = rf"^query vector has shape \({length},\), the library's states have 3 coordinates$"
    with pytest.raises(ValueError, match=message):
        SINGLE_QUERY[entry](library, (40, np.ones(length)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(SINGLE_QUERY))
def test_a_non_finite_query_coordinate_is_named(entry, bad):
    # a NaN coordinate used to give simplex a finite forecast, knn neighbours
    # at NaN distance and the S-map a non-converging SVD; inf warned, then NaN
    spec = EmbeddingSpec.univariate("debris", 3)
    library = multivariate_embed(load_bundled(), spec, "debris", tp=1)
    message = f"^query vector has a non-finite coordinate {bad!r}$"
    with pytest.raises(ValueError, match=message):
        SINGLE_QUERY[entry](library, (2030, np.array([1.0, bad, -np.inf])))


@pytest.mark.parametrize("radius", [0, 2, 5])
@pytest.mark.parametrize("seed", range(4))
def test_single_queries_on_a_library_out_of_time_order(seed, radius):
    # integer coordinates, so many distances tie; the fit and the selection
    # take the candidate rows in ascending time, whatever the storage order
    rng = np.random.default_rng(seed)
    times = np.arange(1960, 2000)
    vectors = rng.integers(0, 3, size=(40, 2)).astype(float)
    targets = rng.normal(size=40)
    ordered = _library(times, vectors, targets, radius)
    order = rng.permutation(40)
    shuffled = _library(times[order], vectors[order], targets[order], radius)
    for query in [(1975, vectors[15]), (2003, np.array([1.0, 2.0]))]:
        for method in ("simplex_predict", "smap_predict"):
            expected = SINGLE_QUERY[method](ordered, query)
            found = SINGLE_QUERY[method](shuffled, query)
            if method == "smap_predict":
                assert found.coefficients.tobytes() == expected.coefficients.tobytes()
                expected = (expected.prediction, expected.variance)
                found = (found.prediction, found.variance)
            assert np.array(found).tobytes() == np.array(expected).tobytes(), (method, query)


def test_simplex_distance_ties_go_to_the_earlier_time():
    # four states at distance 1 from the query, stored out of time order;
    # k = 2 keeps the two earliest (1962 and 1965), whose weights are equal
    times = np.array([1965, 1962, 1969, 1967])
    library = _library(times, np.ones((4, 1)), np.array([10.0, 20.0, 40.0, 80.0]), 0)
    assert simplex_predict(library, (2000, [0.0]), SimplexConfig(library.spec, k=2)) == (15.0, 25.0)


@pytest.mark.parametrize("config", [SimplexConfig(EmbeddingSpec.univariate("s", 2)),
                                    SMapConfig(EmbeddingSpec.univariate("s", 2), 2.0)],
                         ids=["simplex", "smap"])
def test_predictors_take_limits_as_any_int_sequence(config):
    # the simplex predictor used to compare a list of limits with k and fail
    rng = np.random.default_rng(4)
    vectors, forward = rng.normal(size=(30, 2)), rng.normal(size=(30, 2))
    queries = rng.normal(size=(3, 2))
    from_list = config._predict(vectors, forward, queries, [9, 20, 30])
    from_array = config._predict(vectors, forward, queries, np.array([9, 20, 30]))
    for listed, arrayed in zip(from_list, from_array):
        assert (listed is None and arrayed is None) or listed.tobytes() == arrayed.tobytes()


def test_knn_names_an_unknown_metric_before_a_shortfall():
    library = _library(np.arange(3), np.zeros((3, 2)), np.zeros(3), 0)
    with pytest.raises(ValueError, match="unknown metric 'chebyshev'"):
        knn(library, (10, [0.0, 0.0]), 5, "chebyshev")


@pytest.mark.parametrize("config", [SimplexConfig(EmbeddingSpec.univariate("s", 3)),
                                    SimplexConfig(EmbeddingSpec.univariate("s", 3), k=2),
                                    SMapConfig(EmbeddingSpec.univariate("s", 3), 2.0)],
                         ids=["simplex", "simplex_k2", "smap"])
def test_a_stack_of_libraries_predicts_as_one_call_per_query(config):
    # vectors and forward values with a leading query axis: one library per
    # query, each prediction bit for bit that query's own call
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(5, 40, 3))
    vectors[1, 7] = vectors[1, 3]  # a distance tie inside one library
    forward, queries = rng.normal(size=(5, 40, 2)), rng.normal(size=(5, 3))
    # limits apart, and limits in runs that repeat out of order
    for limits in ([30, 25, 40, 30, 12], [30, 30, 12, 12, 30]):
        stacked = config._predict(vectors, forward, queries, limits)
        for q, limit in enumerate(limits):
            alone = config._predict(vectors[q], forward[q], queries[q:q + 1], [limit])
            for part, whole in zip(alone, stacked):
                assert (part is None and whole is None) or (
                    part.tobytes() == whole[q:q + 1].tobytes()), (limits, q)


def test_a_library_names_a_non_finite_state():
    # knn used to skip the state at NaN distance, and the S-map not to converge
    vectors = np.array([[1.0, 2.0], [np.nan, 3.0], [2.0, 3.0]])
    with pytest.raises(ValueError, match=r"^library state at 2021 has a non-finite value nan "
                                         r"in coordinate 's\(t-1\)'$"):
        _library(np.arange(2020, 2023), vectors[:, ::-1], np.zeros(3), 0)
    with pytest.raises(ValueError, match=r"^library state at 2021 has a non-finite value nan "
                                         r"in coordinate 's\(t\)'$"):
        _library(np.arange(2020, 2023), vectors, np.zeros(3), 0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_library_names_a_non_finite_target(bad):
    # simplex used to return (inf, nan) with a warning, the S-map a NaN step
    targets = np.array([1.0, bad, 2.0, 3.0])
    with pytest.raises(ValueError, match=rf"^library target 's' has a non-finite value "
                                         rf"{re.escape(repr(bad))} for the state at 1961$"):
        _library(np.arange(1960, 1964), np.ones((4, 2)), targets, 0)


def test_one_block_budget_sizes_both_drivers(monkeypatch):
    # one-step simplex and cross mapping read their query blocks off one rule
    data = Dataset(coupled_logistic_pair(200))
    spec = EmbeddingSpec.univariate("x", 2)
    blocks = {}
    for module in (forecast, ccm):
        def counted(*block, name=module.__name__, block_distances=module._block_distances):
            blocks[name] += 1
            return block_distances(*block)

        monkeypatch.setattr(module, "_block_distances", counted)

    def run():
        blocks.update(dict.fromkeys(("edmkit.forecast", "edmkit.ccm"), 0))
        result = skill_eval(data, "x", SimplexConfig(spec), train_end=100)
        skill = ccm.cross_map(data["x"], data["y"], 2)
        return result.predicted.tobytes() + result.step_variance.tobytes() + np.float64(
            skill).tobytes()

    default = run()
    # 99 one-step queries against 198 states, 199 cross-map queries against 199
    assert blocks == {"edmkit.forecast": 1, "edmkit.ccm": 2}
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", 10 * 199 * 2)  # ten rows a block
    assert run() == default
    assert blocks == {"edmkit.forecast": 10, "edmkit.ccm": 20}
