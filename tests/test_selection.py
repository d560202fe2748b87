"""Property tests of the exact top-k selection core and of ``knn`` built on it.

Integer-valued draws make equal values (ties) common, which is where a
partition-based selection could differ from a full stable sort.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmkit import embedding
from edmkit.embedding import (
    EmbeddingLibrary,
    EmbeddingSpec,
    NeighborShortfallError,
    _smallest_k,
    knn,
)
from edmkit.forecast import iterative_forecast
from edmkit.simplex import SimplexConfig
from edmkit.timeseries import _BOUND, Dataset

from helpers import coupled_logistic_pair

BOUNDED = settings(derandomize=True, database=None, max_examples=60, deadline=None)

NARROW = st.integers(1, 60)
WIDE = st.integers(999, 1300)


def reference(masked, k):
    return np.argsort(masked, axis=1, kind="stable")[:, :k]


@st.composite
def tie_heavy(draw, widths):
    """A seeded integer matrix with some infinite cells and infinite columns, plus k."""
    rows = draw(st.integers(1, 6))
    width = draw(widths)
    levels = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masked = rng.integers(0, levels, (rows, width)).astype(float)
    masked[rng.random((rows, width)) < draw(st.floats(0.0, 0.3))] = np.inf
    masked[:, rng.random(width) < draw(st.floats(0.0, 0.3))] = np.inf
    k = draw(st.one_of(st.integers(1, min(width, 8)), st.just(width)))
    return masked, k


@BOUNDED
@given(tie_heavy(st.one_of(NARROW, WIDE)))
def test_smallest_k_is_the_stable_argsort_on_both_sides_of_the_width(case):
    masked, k = case
    assert np.array_equal(_smallest_k(masked, k), reference(masked, k))


@BOUNDED
@given(st.data())
def test_partition_path_is_the_stable_argsort_on_drawn_values(data):
    # every value a distance can take is drawn, inf included (states are
    # finite, so no distance is NaN); every k short of the width partitions,
    # so rows stay small enough for Hypothesis to shrink
    rows = data.draw(st.integers(1, 4))
    width = data.draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0, np.inf])
    masked = np.array(data.draw(st.lists(st.lists(values, min_size=width, max_size=width),
                                         min_size=rows, max_size=rows)))
    k = data.draw(st.integers(1, width))
    assert np.array_equal(_smallest_k(masked, k), reference(masked, k))


def test_iterated_simplex_selects_each_row_as_the_stable_argsort(monkeypatch):
    # an iterated continuation asks for one row a year, 298 to 897 wide, of
    # distances to a trajectory that revisits its states, so its k-th values tie
    x, y = coupled_logistic_pair(300)
    rows, ties = [], []

    def spy(masked, k):
        kth = np.partition(masked, k - 1, axis=1)[:, k - 1:k]
        ties.append(np.count_nonzero(masked <= kth) > masked.shape[0] * k)
        chosen = _smallest_k(masked, k)
        rows.append(np.array_equal(chosen, reference(masked, k)))
        return chosen

    monkeypatch.setattr(embedding, "_smallest_k", spy)
    iterative_forecast(Dataset((x, y)), "x", SimplexConfig(EmbeddingSpec((("x", 2), ("y", 2)))),
                       899)
    assert len(rows) == 600 and all(rows)
    assert any(ties)


@st.composite
def library_and_query(draw):
    n = draw(st.one_of(st.integers(1, 80), st.integers(1000, 1200)))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(1, 4))
    times = 1900 + np.cumsum(rng.integers(1, 3, n))
    if draw(st.booleans()):  # a library built by hand need not ascend in time
        times = rng.permutation(times)
    vectors = rng.integers(0, levels, (n, dim)).astype(float)
    radius = draw(st.integers(0, 4))
    spec = EmbeddingSpec.univariate("x", dim, exclusion_radius=radius)
    library = EmbeddingLibrary(spec, "x", 1, times, vectors, np.zeros(n))
    query_time = int(rng.integers(times.min() - 2, times.max() + 3))
    query = rng.integers(0, levels, dim).astype(float)
    metric = draw(st.sampled_from(["euclidean", "manhattan"]))
    k = draw(st.integers(1, 8))
    return library, (query_time, query), k, metric


@BOUNDED
@given(library_and_query())
def test_knn_matches_a_lexsort_reference(case):
    library, (query_time, query), k, metric = case
    diffs = library.vectors - query
    if metric == "euclidean":
        dists = np.sqrt((diffs**2).sum(axis=1))  # exact: integer coordinates
    else:
        dists = np.abs(diffs).sum(axis=1)
    radius = library.spec.radius
    keep = np.abs(library.times - query_time) > radius
    if radius == 0:
        keep[:] = True
    candidates = np.flatnonzero(keep)
    if candidates.size < k:
        with pytest.raises(NeighborShortfallError):
            knn(library, (query_time, query), k, metric)
        return
    order = np.lexsort((library.times[candidates], dists[candidates]))
    expected = candidates[order[:k]]
    found = knn(library, (query_time, query), k, metric)
    assert np.array_equal(found.indices, expected)
    assert np.array_equal(found.distances, dists[expected])


@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
def test_knn_keeps_an_admissible_tie_ahead_of_an_excluded_column(metric):
    # times 0 and 2 tie at 2e100, the widest distance the magnitude bound admits;
    # time 0 lies in the exclusion window, so it must not win the tie by coming first
    times = np.arange(6)
    vectors = np.array([[_BOUND], [-_BOUND], [_BOUND], [-_BOUND], [-_BOUND], [-_BOUND]])
    spec = EmbeddingSpec.univariate("x", 1, exclusion_radius=1)
    library = EmbeddingLibrary(spec, "x", 1, times, vectors, np.zeros(6))
    found = knn(library, (0, [-_BOUND]), 4, metric)
    assert found.indices.tolist() == [3, 4, 5, 2]
    assert found.distances.tolist() == [0.0, 0.0, 0.0, 2 * _BOUND]
