import re

import numpy as np
import pytest

from edmkit.ccm import CcmConfig, convergence_sweep
from edmkit.embedding import (
    EmbeddingError,
    EmbeddingLibrary,
    EmbeddingSpec,
    NeighborShortfallError,
    delay_embed,
    knn,
    multivariate_embed,
    _embeddable,
    state_vector,
)
from edmkit.timeseries import Dataset, TimeSeries

from helpers import oracle_knn


def toy_series():
    return TimeSeries("x", 0, (10.0, 20.0, 30.0, 40.0, 50.0))


def test_delay_embed_layout():
    lib = delay_embed(toy_series(), EmbeddingSpec.univariate("x", 2), tp=1)
    assert lib.times.tolist() == [1, 2, 3]
    assert lib.vectors.tolist() == [[20.0, 10.0], [30.0, 20.0], [40.0, 30.0]]
    assert lib.targets.tolist() == [30.0, 40.0, 50.0]


def test_delay_embed_degenerate_dimension_one():
    lib = delay_embed(toy_series(), EmbeddingSpec.univariate("x", 1), tp=1)
    assert len(lib) == 4
    assert lib.vectors.shape == (4, 1)


def test_point_count_formula():
    series = TimeSeries("x", 0, tuple(float(v) for v in range(1, 7)))
    lib = delay_embed(series, EmbeddingSpec.univariate("x", 3, tau=2), tp=1)
    assert len(lib) == 6 - (3 - 1) * 2 - 1 == 1
    assert lib.times.tolist() == [4]
    assert lib.vectors.tolist() == [[5.0, 3.0, 1.0]]
    assert lib.targets.tolist() == [6.0]


def test_embed_too_short():
    with pytest.raises(EmbeddingError):
        delay_embed(TimeSeries("x", 0, (1.0, 2.0)), EmbeddingSpec.univariate("x", 2), tp=1)


@pytest.mark.parametrize("tp", [0, 1])
def test_every_caller_counts_states_alike_at_the_boundary(tp):
    # a record of max_offset + tp + 1 values holds one state; one value fewer
    # holds none, and the embedding and the cross-map sweep name that alike
    spec = EmbeddingSpec.univariate("x", 3, tau=2)
    length = spec.max_offset + tp + 1
    values = [float(v) for v in range(length)]
    assert _embeddable(length, spec, tp) == 1
    assert len(multivariate_embed(Dataset((TimeSeries("x", 0, values),)), spec, "x", tp)) == 1
    short = TimeSeries("x", 0, values[:-1])
    calls = [lambda: _embeddable(length - 1, spec, tp),
             lambda: multivariate_embed(Dataset((short,)), spec, "x", tp)]
    if tp == 0:  # a cross map pairs each state with the cause at its own time
        other = TimeSeries("y", 0, values[:-1])
        calls.append(lambda: convergence_sweep(short, other, CcmConfig(3, (5, 6), tau=2)))
    message = (f"series of length {length - 1} too short for embedding "
               f"(needs more than {length - 1} points)")
    for call in calls:
        with pytest.raises(EmbeddingError, match=f"^{re.escape(message)}$"):
            call()
    assert issubclass(EmbeddingError, ValueError)  # an input error: exit 2


def test_multivariate_layout_and_equivalence():
    data = Dataset.from_columns(0, {
        "X": [1.0, 2.0, 3.0, 4.0, 5.0],
        "Z": [10.0, 20.0, 30.0, 40.0, 50.0],
    })
    spec = EmbeddingSpec((("X", 2), ("Z", 2)))
    lib = multivariate_embed(data, spec, "X", tp=1)
    assert lib.vectors.tolist()[0] == [2.0, 1.0, 20.0, 10.0]
    assert spec.coordinate_labels() == ("X(t)", "X(t-1)", "Z(t)", "Z(t-1)")

    uni = multivariate_embed(data, EmbeddingSpec((("X", 3),)), "X", tp=1)
    direct = delay_embed(data["X"], EmbeddingSpec.univariate("X", 3), tp=1)
    assert np.array_equal(uni.vectors, direct.vectors)
    assert np.array_equal(uni.targets, direct.targets)


def test_multivariate_three_input():
    data = Dataset.from_columns(1960, {
        "X": np.arange(10.0), "Y": np.arange(10.0) * 2, "Z": np.arange(10.0) * 3,
    })
    spec = EmbeddingSpec((("X", 1), ("Y", 1), ("Z", 1)))
    lib = multivariate_embed(data, spec, "X", tp=1)
    assert spec.dimension == 3
    assert lib.vectors.shape[1] == 3


def test_unknown_series_errors():
    data = Dataset.from_columns(0, {"X": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="unknown"):
        multivariate_embed(data, EmbeddingSpec((("Q", 1),)), "X", tp=1)
    with pytest.raises(ValueError, match="unknown"):
        multivariate_embed(data, EmbeddingSpec((("X", 1),)), "Q", tp=1)


def test_spec_validation():
    with pytest.raises(ValueError):
        EmbeddingSpec((("x", 0),))
    with pytest.raises(ValueError):
        EmbeddingSpec((("x", 1),), tau=0)
    with pytest.raises(ValueError):
        EmbeddingSpec((("x", 1),), tau=1.5)
    with pytest.raises(ValueError):
        EmbeddingSpec((("x", 1), ("x", 2)))
    spec = EmbeddingSpec((("x", 3),), tau=2)
    assert spec.radius == 6  # defaults to dimension * tau
    assert EmbeddingSpec((("x", 3),), exclusion_radius=0).radius == 0


def test_reembedding_reproduces_vectors():
    rng = np.random.default_rng(3)
    data = Dataset.from_columns(0, {"x": rng.normal(size=40).tolist()})
    spec = EmbeddingSpec.univariate("x", 4)
    lib = multivariate_embed(data, spec, "x", tp=1)
    for i in range(len(lib)):
        assert np.allclose(state_vector(data, spec, int(lib.times[i])), lib.vectors[i])


def test_knn_toy_and_self_match():
    spec = EmbeddingSpec.univariate("q", 2, exclusion_radius=0)
    lib = EmbeddingLibrary(spec, "q", 0, np.array([0, 1, 2]),
                           np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]),
                           np.zeros(3))
    ns = knn(lib, (10, [0.0, 0.0]), 2)
    assert ns.indices.tolist() == [0, 2]
    assert ns.distances[0] == 0.0
    assert ns.distances[1] == pytest.approx(1.4142, abs=1e-4)

    # with radius 0 an exact self-match (same time) is admissible
    ns_self = knn(lib, (0, [0.0, 0.0]), 1)
    assert ns_self.indices.tolist() == [0]


def test_knn_exclusion_window():
    times = np.arange(20)
    vectors = times.astype(float).reshape(-1, 1)
    lib = EmbeddingLibrary(EmbeddingSpec.univariate("x", 1, exclusion_radius=4),
                           "x", 0, times, vectors, np.zeros(20))
    ns = knn(lib, (10, [10.0]), 5)
    picked = times[ns.indices]
    assert all(abs(t - 10) > 4 for t in picked)

    with pytest.raises(NeighborShortfallError, match="admissible"):
        knn(lib, (10, [10.0]), 20)


def test_knn_matches_bruteforce_oracle():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(8, 60))
        dim = int(rng.integers(1, 5))
        vectors = rng.normal(size=(n, dim))
        times = np.arange(n)
        lib = EmbeddingLibrary(EmbeddingSpec((("s", dim),), exclusion_radius=0),
                               "s", 0, times, vectors, np.zeros(n))
        query_time = int(rng.integers(0, n))
        query = rng.normal(size=dim)
        for metric in ("euclidean", "manhattan"):
            for radius in (0, 2, 5):
                expected = oracle_knn(vectors, times, query, query_time,
                                      n, metric, radius)
                admissible = len(expected)
                for k in range(1, admissible + 1):
                    ns = knn(lib, (query_time, query), k, metric, exclusion_radius=radius)
                    assert ns.indices.tolist() == [i for i, _ in expected[:k]]
                    assert np.allclose(ns.distances, [d for _, d in expected[:k]])


def test_knn_tie_break_prefers_earlier_time():
    vectors = np.array([[1.0], [1.0], [0.5]])
    lib = EmbeddingLibrary(EmbeddingSpec.univariate("x", 1, exclusion_radius=0),
                           "x", 0, np.array([5, 2, 9]), vectors, np.zeros(3))
    ns = knn(lib, (100, [1.0]), 2)
    assert ns.indices.tolist() == [1, 0]  # equal distance, earlier time first


def test_metric_inequalities():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        c = rng.normal(size=4)
        man = np.abs(a - b).sum()
        euc = np.sqrt(((a - b) ** 2).sum())
        assert man >= euc - 1e-12
        # symmetry and triangle inequality
        assert np.abs(b - a).sum() == pytest.approx(man)
        assert np.abs(a - c).sum() <= np.abs(a - b).sum() + np.abs(b - c).sum() + 1e-12


def test_exclusion_monotonicity():
    rng = np.random.default_rng(9)
    n = 50
    vectors = rng.normal(size=(n, 3))
    lib = EmbeddingLibrary(EmbeddingSpec((("x", 3),), exclusion_radius=0),
                           "x", 0, np.arange(n), vectors, np.zeros(n))
    query = (25, rng.normal(size=3))
    for small, big in ((0, 2), (2, 5), (5, 9)):
        picked_big = set(knn(lib, query, 10, exclusion_radius=big).indices.tolist())
        picked_small_pool = {
            i for i in range(n)
            if small == 0 or abs(i - 25) > small
        }
        # anything admitted at the larger radius stays admissible at the smaller
        assert picked_big <= picked_small_pool


def test_normalize_flag_affects_distances():
    data = Dataset.from_columns(0, {
        "big": (np.arange(30.0) * 1000).tolist(),
        "small": np.sin(np.arange(30.0)).tolist(),
    })
    spec_raw = EmbeddingSpec((("big", 1), ("small", 1)), exclusion_radius=0)
    spec_norm = EmbeddingSpec((("big", 1), ("small", 1)), exclusion_radius=0, normalize=True)
    raw = multivariate_embed(data, spec_raw, "big", tp=1)
    norm = multivariate_embed(data, spec_norm, "big", tp=1)
    assert norm.norms is not None and raw.norms is None
    # normalized coordinates are z-scores: column stds comparable
    stds = norm.vectors.std(axis=0)
    assert 0.2 < stds[0] / stds[1] < 5.0
    assert raw.vectors.std(axis=0)[0] / raw.vectors.std(axis=0)[1] > 100.0


def test_targets_through_a_library_out_of_time_order():
    # the cut used to search times that need not ascend, keeping [5, 1, 3, 0, 2]
    times = np.array([5, 1, 3, 0, 2, 4])
    spec = EmbeddingSpec.univariate("x", 1)
    library = EmbeddingLibrary(spec, "x", 1, times, times[:, None] * 10.0, times + 100.0)
    cut = library.targets_through(3)
    assert cut.times.tolist() == [1, 0, 2]
    assert cut.vectors[:, 0].tolist() == [10.0, 0.0, 20.0]
    assert cut.targets.tolist() == [101.0, 100.0, 102.0]
    ordered = EmbeddingLibrary(spec, "x", 1, np.sort(times), np.sort(times)[:, None], np.sort(times))
    assert ordered.targets_through(3).times.tolist() == [0, 1, 2]
