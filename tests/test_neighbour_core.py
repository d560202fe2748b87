"""The shared neighbour-and-kernel core: distances, candidacy, selection, row products.

Each helper is checked byte for byte against the per-site formula it
replaced, so every caller keeps the bits it had.
"""

import numpy as np
import pytest

from edmkit.embedding import (_PARTITION_WIDTH, _candidates, _distance_rows, _exclude_band, _floor,
                              _nearest, _prefix_limits)
from edmkit.timeseries import _row_dot


def _vectors(rng, rows, dimension):
    # coordinates spread over six decades, so a change of summation order shows
    return rng.normal(size=(rows, dimension)) * 10.0 ** rng.uniform(-3, 3, size=dimension)


@pytest.mark.parametrize("queries", [1, 2, 9])
@pytest.mark.parametrize("dimension", range(1, 11))
def test_distance_rows_match_the_per_query_formulas(dimension, queries):
    rng = np.random.default_rng(100 * dimension + queries)
    vectors = _vectors(rng, 61, dimension)
    block = _vectors(rng, queries, dimension)
    euclidean = _distance_rows(vectors, block, "euclidean")
    manhattan = _distance_rows(vectors, block, "manhattan")
    assert euclidean.shape == manhattan.shape == (queries, 61)
    for q, query in enumerate(block):
        diffs = vectors - query
        assert euclidean[q].tobytes() == np.sqrt(np.einsum("ij,ij->i", diffs, diffs)).tobytes()
        assert manhattan[q].tobytes() == np.abs(diffs).sum(axis=1).tobytes()


@pytest.mark.parametrize("dimension", [1, 3, 8, 10])
def test_manhattan_rows_match_the_cross_map_block_formula(dimension):
    rng = np.random.default_rng(dimension)
    vectors = _vectors(rng, 40, dimension)
    old = np.abs(vectors[5:12, None, :] - vectors[None, :, :]).sum(axis=2)
    assert _distance_rows(vectors, vectors[5:12], "manhattan").tobytes() == old.tobytes()


@pytest.mark.parametrize("dimension", range(1, 11))
def test_manhattan_blocks_round_like_the_whole_row_sum(dimension):
    # below E = 8 the planes are added one at a time, from E = 8 on each row
    # is summed whole; both must round like the whole-row sum
    rng = np.random.default_rng(200 + dimension)
    vectors = _vectors(rng, 57, dimension)
    for rows in (9, 4, 1):
        queries = _vectors(rng, rows, dimension)
        expected = np.abs(vectors - queries[:, None]).sum(-1)
        block = _distance_rows(vectors, queries, "manhattan")
        assert block.shape == (rows, 57)
        assert block.tobytes() == expected.tobytes()


@pytest.mark.parametrize("floor", [-1, 0, 1, 3])
@pytest.mark.parametrize("first, rows", [(0, 4), (2, 5), (13, 7), (0, 20)])
def test_exclude_band_writes_inf_where_no_candidate(floor, first, rows):
    # library times are consecutive; the blocks touch the first row, the
    # middle, the last row, and both ends at once
    times = np.arange(1961, 1981)
    block = np.random.default_rng((floor + 1, first)).random((rows, times.size))
    before = block.copy()
    _exclude_band(block, first, floor)
    excluded = ~_candidates(times, times[first:first + rows], floor)
    assert np.array_equal(np.isinf(block), excluded)
    assert np.array_equal(block[~excluded], before[~excluded])


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


@pytest.mark.parametrize("radius", [0, 1, 3, 5, 6, 9, 10, 11, pytest.param(2 ** 63, id="2**63"),
                                    pytest.param(10 ** 400, id="400-digits")])
def test_prefix_limits_count_the_rows_outside_the_window(radius):
    times = np.arange(2000, 2010)
    queries = times[[3, 6, 9]]
    expected = [int(np.count_nonzero(times < q - min(radius, 10 ** 6))) for q in queries]
    assert _prefix_limits(times, queries, radius).tolist() == expected
    # a prefix of a longer buffer: the query lies past the prefix's last row,
    # so a cap at the prefix length (4) would still admit row 2003 at radius 6
    prefix = times[:4]
    limit = _prefix_limits(prefix, times[9:10], radius)
    assert limit.tolist() == [int(np.count_nonzero(prefix < 2009 - min(radius, 10 ** 6)))]


@pytest.mark.parametrize("width", [40, _PARTITION_WIDTH + 24])
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
