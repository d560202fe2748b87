import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from edmkit import ccm, embedding
from edmkit.bundled import load_bundled
from edmkit.ccm import CcmConfig, convergence_sweep, cross_map
from edmkit.cli import _grid, main
from edmkit.timeseries import (_BOUND, UNDEFINED_SKILL, TimeSeries, pearson_rho,
                               skill_defined)

from helpers import coupled_logistic_pair, logistic_series, oracle_cross_map, random_walk


@pytest.fixture(autouse=True)
def fresh_draws():
    """Forget the module's kept grid, so a spy on the draws counts them whatever ran before."""
    ccm._drawn_groups.cache_clear()


def test_self_mapping_is_exact_without_leave_one_out():
    series = logistic_series(300)
    rho = cross_map(series, series, dimension=2, leave_one_out=False)
    assert rho == pytest.approx(1.0, abs=1e-9)


def test_self_mapping_with_leave_one_out_on_chaotic_map():
    series = logistic_series(300)
    rho = cross_map(series, series, dimension=2)
    assert rho >= 0.999


def test_two_series_sharing_a_name_are_refused():
    # the cause is read by name beside the effect, so it used to be the effect:
    # a cross map returned the effect's self-map skill
    rng = np.random.default_rng(5)
    a = TimeSeries("s", 0, rng.uniform(0.0, 1.0, 80))
    b = TimeSeries("s", 0, rng.uniform(0.0, 1.0, 80))
    message = "two different series share the name 's'; cross mapping needs distinct names"
    for call in (lambda: cross_map(a, b, 3),
                 lambda: convergence_sweep(a, b, CcmConfig(3, (10, 40), samples_per_size=2))):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    # one series passed twice, or an equal copy of it, still maps onto itself
    assert cross_map(a, TimeSeries("s", 0, a.values), 3) == cross_map(a, a, 3)


def test_cross_map_requires_alignment_and_size():
    a = logistic_series(50, name="a")
    b = TimeSeries("b", 5, a.values[:45])
    with pytest.raises(ValueError, match="aligned"):
        cross_map(a, b, dimension=2)
    short_a = TimeSeries("a", 0, a.values[:6])
    short_b = TimeSeries("b", 0, a.values[1:7])
    with pytest.raises(ValueError, match="dimension"):
        cross_map(short_a, short_b, dimension=5)


def _block_budgets(n, dimension):
    """The default block budget, then one that walks n query rows in blocks of 7."""
    assert n > 2 * 7  # at least 3 blocks
    return (embedding._BLOCK_ELEMENTS, 7 * n * dimension)


def test_cross_map_deterministic_and_matches_oracle(monkeypatch):
    x, y = coupled_logistic_pair(120)
    rng = np.random.default_rng(0)
    n = len(x) - 1  # embeddable points at dimension 2
    indices = np.sort(rng.choice(n, size=60, replace=False))
    expected = oracle_cross_map(
        [x.value_at(t) for t in x.years], [y.value_at(t) for t in y.years],
        2, 1, indices.tolist())
    rhos = []
    for budget in _block_budgets(n, 2):
        monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", budget)
        first = cross_map(x, y, dimension=2, library_indices=indices)
        second = cross_map(x, y, dimension=2, library_indices=indices)
        assert first == second
        assert first == pytest.approx(expected, abs=1e-10)
        rhos.append(first)
    assert rhos[0] == rhos[1]


def test_directionality_on_coupled_pair():
    x, y = coupled_logistic_pair(400)
    # x drives y, so y's manifold carries x's signature
    rho_forward = cross_map(x, y, dimension=2)
    rho_reverse = cross_map(y, x, dimension=2)
    assert rho_forward > 0.8
    assert rho_forward - rho_reverse > 0.1


def test_independent_series_null():
    # stationary independent systems: the cross map finds no signature.
    # (Nonstationary walks are a known false positive for this estimator:
    # level trends leak through any exclusion radius, so the null is run
    # on chaotic maps.)
    small = 0
    for seed in range(50):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(10_000 + seed)
        a = logistic_series(300, x0=0.11 + 0.5 * rng_a.random(), name="a")
        b = logistic_series(300, r=3.9, x0=0.13 + 0.5 * rng_b.random(), name="b")
        rho = cross_map(a, b, dimension=3)
        if not skill_defined(rho) or abs(rho) < 0.2:
            small += 1
    assert small >= 45


def test_sweep_directions_and_full_size_consistency():
    x, y = coupled_logistic_pair(150)
    n = len(x) - 1
    cfg = CcmConfig(dimension=2, library_sizes=(20, 60, n), samples_per_size=8, seed=3)
    result = convergence_sweep(x, y, cfg)
    assert result.a_from_b.cause == "x" and result.a_from_b.effect == "y"
    # at the full size every subsample is the identity set
    full_direct = cross_map(x, y, dimension=2)
    assert result.a_from_b.mean_rho[-1] == pytest.approx(full_direct, abs=1e-12)
    assert result.a_from_b.spread[-1] == pytest.approx(0.0, abs=1e-12)


def test_sweep_swap_symmetry():
    x, y = coupled_logistic_pair(150)
    cfg = CcmConfig(dimension=2, library_sizes=(20, 40, 80), samples_per_size=6, seed=11)
    ab = convergence_sweep(x, y, cfg)
    ba = convergence_sweep(y, x, cfg)
    assert np.allclose(ab.a_from_b.samples, ba.b_from_a.samples)
    assert np.allclose(ab.b_from_a.samples, ba.a_from_b.samples)


def test_sweep_verdicts_on_coupled_and_independent_series():
    x, y = coupled_logistic_pair(400)
    n = len(x) - 1
    sizes = tuple(sorted({int(v) for v in np.linspace(15, n, 12)}))
    cfg = CcmConfig(dimension=2, library_sizes=sizes, samples_per_size=10, seed=5)
    coupled = convergence_sweep(x, y, cfg)
    assert coupled.a_from_b.verdict == "convergent-positive"

    a = random_walk(400, seed=1, name="a")
    b = random_walk(400, seed=2, name="b")
    sizes_rw = tuple(sorted({int(v) for v in np.linspace(15, 397, 10)}))
    null_cfg = CcmConfig(dimension=4, library_sizes=sizes_rw, samples_per_size=6,
                         seed=5, exclusion_radius=8)
    null = convergence_sweep(a, b, null_cfg)
    assert null.a_from_b.verdict != "convergent-positive" or null.a_from_b.final_mean_rho < 0.5


def test_singleton_grid_flagged():
    x, y = coupled_logistic_pair(120)
    cfg = CcmConfig(dimension=2, library_sizes=(50,), samples_per_size=4, seed=1)
    result = convergence_sweep(x, y, cfg)
    assert result.insufficient_grid
    assert result.a_from_b.verdict in ("non-convergent", "negative")


def test_sweep_threads_deterministic():
    x, y = coupled_logistic_pair(150)
    cfg = CcmConfig(dimension=2, library_sizes=(20, 50, 100), samples_per_size=6, seed=9)
    single = convergence_sweep(x, y, cfg, threads=1)
    multi = convergence_sweep(x, y, cfg, threads=8)
    assert np.array_equal(single.a_from_b.samples, multi.a_from_b.samples)
    assert np.array_equal(single.b_from_a.samples, multi.b_from_a.samples)


def test_config_validation():
    with pytest.raises(ValueError):
        CcmConfig(dimension=2, library_sizes=())
    with pytest.raises(ValueError):
        CcmConfig(dimension=2, library_sizes=(10, 10))
    with pytest.raises(ValueError):
        CcmConfig(dimension=4, library_sizes=(4, 10))
    with pytest.raises(ValueError):
        CcmConfig(dimension=2, library_sizes=(10, 20), method="bogus")


# (call on the bundled debris and total series, message, ccm argv on the bundled record or None)
CCM_ERRORS = {
    "no_samples": (
        lambda a, b: CcmConfig(dimension=4, library_sizes=(10, 20), samples_per_size=0),
        "samples_per_size must be >= 1", ["--samples", "0"],
    ),
    "empty_library_indices": (
        lambda a, b: cross_map(a, b, 4, library_indices=[]),
        "library_indices must be a non-empty 1-D index collection", None,
    ),
    "two_dimensional_library_indices": (
        lambda a, b: cross_map(a, b, 4, library_indices=[[0, 1], [2, 3]]),
        "library_indices must be a non-empty 1-D index collection", None,
    ),
    "fractional_library_index": (
        lambda a, b: cross_map(a, b, 4, library_indices=[0.5, *range(1, 10)]),
        "library indices must be whole numbers, got 0.5", None,
    ),
    # a mask used to be read as the indices 0 and 1, each repeated
    "boolean_library_indices": (
        lambda a, b: cross_map(a, b, 4, library_indices=np.arange(60) % 2 == 0),
        "library_indices is a boolean mask; pass the indices it selects, np.flatnonzero(mask)",
        None,
    ),
    "library_index_out_of_range": (
        lambda a, b: cross_map(a, b, 4, library_indices=[0, 60]),
        "library indices out of range 0..59", None,
    ),
    "size_past_embeddable_points": (
        lambda a, b: convergence_sweep(a, b, CcmConfig(dimension=4, library_sizes=(10, 61))),
        "largest library size 61 exceeds embeddable points 60", ["--sizes", "10,61"],
    ),
    # a delay span past the record leaves no point to embed: the count is
    # never reported as negative, on either CLI grid path
    "span_past_the_record": (
        lambda a, b: convergence_sweep(a, b, CcmConfig(4, (6, 10), tau=30)),
        "series of length 63 too short for embedding (needs more than 90 points)",
        ["--tau", "30", "--sizes", "6,10"],
    ),
    "span_past_the_record_default_grid": (
        lambda a, b: convergence_sweep(a, b, CcmConfig(4, (6, 10), tau=30)),
        "series of length 63 too short for embedding (needs more than 90 points)",
        ["--tau", "30"],
    ),
    # named before the estimates are allocated, not as a memory shortfall
    "dimension_zero_on_a_huge_grid": (
        lambda a, b: convergence_sweep(a, b, CcmConfig(0, (6, 10), samples_per_size=10**12)),
        "embedding dimension must be >= 1, got 0",
        ["--e", "0", "--sizes", "6,10", "--samples", str(10**12)],
    ),
    "span_the_length_of_the_record": (
        lambda a, b: convergence_sweep(a, b, CcmConfig(4, (6, 10), tau=21)),
        "series of length 63 too short for embedding (needs more than 63 points)",
        ["--tau", "21"],
    ),
}


@pytest.mark.parametrize("case", sorted(CCM_ERRORS))
def test_ccm_error_paths_name_the_problem(case, tmp_path, capsys):
    call, message, argv = CCM_ERRORS[case]
    data = load_bundled()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(data["debris"], data["total"])
    if argv is None:
        return
    out = tmp_path / "ccm"
    assert main(["ccm", "--a", "debris", "--b", "total", "--e", "4", *argv,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_serialization(tmp_path):
    x, y = coupled_logistic_pair(120)
    cfg = CcmConfig(dimension=2, library_sizes=(20, 60), samples_per_size=3, seed=2)
    result = convergence_sweep(x, y, cfg)
    csv_path = tmp_path / "curves.csv"
    result.to_csv(csv_path)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "direction,library_size,sample,rho"
    assert len(lines) == 1 + 2 * 2 * 3
    json_path = tmp_path / "summary.json"
    result.to_json(json_path)
    text = json_path.read_text(encoding="utf-8")
    assert '"verdict"' in text and '"insufficient_grid"' in text


def test_spread_is_population_standard_deviation():
    x, y = coupled_logistic_pair(120)
    cfg = CcmConfig(dimension=2, library_sizes=(20, 60), samples_per_size=5, seed=4)
    for direction in convergence_sweep(x, y, cfg).directions:
        assert np.array_equal(np.asarray(direction.spread), direction.samples.std(axis=1))


def _redrawn_library(seed, size, j, n, method, replacement):
    rng = np.random.default_rng((seed, size, j))
    if method == "contiguous":
        start = int(rng.integers(0, n - size + 1))
        return list(range(start, start + size))
    return rng.choice(n, size=size, replace=replacement).tolist()


@pytest.mark.parametrize("radius", [0, 3])
@pytest.mark.parametrize("replacement", [False, True])
@pytest.mark.parametrize("method", ["random", "contiguous"])
def test_sweep_cells_match_oracle(method, replacement, radius, monkeypatch):
    x, y = coupled_logistic_pair(61)
    n = len(x) - 1
    cfg = CcmConfig(dimension=2, library_sizes=(20, 35, n), samples_per_size=4, seed=13,
                    method=method, replacement=replacement, exclusion_radius=radius)
    results = []
    for budget in _block_budgets(n, 2):
        monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", budget)
        results.append(convergence_sweep(x, y, cfg))
    xs, ys = list(x.values), list(y.values)
    for i, size in enumerate(cfg.library_sizes):
        for j in range(cfg.samples_per_size):
            library = _redrawn_library(cfg.seed, size, j, n, method, replacement)
            expected_ab = oracle_cross_map(xs, ys, 2, 1, library, exclusion_radius=radius)
            expected_ba = oracle_cross_map(ys, xs, 2, 1, library, exclusion_radius=radius)
            for result in results:
                assert abs(result.a_from_b.samples[i, j] - expected_ab) <= 1e-10
                assert abs(result.b_from_a.samples[i, j] - expected_ba) <= 1e-10
    for first, second in zip(*(result.directions for result in results)):
        assert first.samples.tobytes() == second.samples.tobytes()


def _first_shortfall(library, n, radius, k):
    """First query row left with fewer than k admissible neighbours, and its count."""
    for query in range(n):
        admissible = sum(abs(li - query) > radius for li in library)
        if admissible < k:
            return query, admissible
    return None


def test_sweep_shortfall_names_first_failing_query_year():
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    n = len(a) - 1
    radius, k = 12, 3
    cfg = CcmConfig(dimension=2, library_sizes=(10, 30), samples_per_size=3, seed=2,
                    exclusion_radius=radius)
    library = _redrawn_library(cfg.seed, 10, 0, n, "random", False)
    shortfall = _first_shortfall(library, n, radius, k)
    assert shortfall is not None, "the chosen radius leaves every query enough neighbours"
    query, admissible = shortfall
    # delay vector i has its head at year 1961 + i
    message = (f"cross-map query at {1961 + query} has only {admissible} "
               f"admissible neighbours, needs {k}")
    with pytest.raises(ValueError, match=message):
        convergence_sweep(a, b, cfg)


def test_sweep_shortfall_is_named_across_row_blocks(monkeypatch):
    # the first failing cell fails late, in a later row block than other
    # cells' first failures; the message still names that cell's query
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    n = len(a) - 1
    radius, k, rows = 10, 3, 5
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", rows * n * 2)
    assert n > 2 * rows  # at least 3 blocks
    cfg = CcmConfig(dimension=2, library_sizes=(8, 20), samples_per_size=3, seed=1,
                    exclusion_radius=radius)
    failures = [_first_shortfall(_redrawn_library(cfg.seed, size, j, n, "random", False),
                                 n, radius, k)
                for size in cfg.library_sizes for j in range(cfg.samples_per_size)]
    query, admissible = next(f for f in failures if f is not None)
    assert any(f is not None and f[0] // rows < query // rows for f in failures)
    # delay vector i has its head at year 1961 + i
    message = (f"cross-map query at {1961 + query} has only {admissible} "
               f"admissible neighbours, needs {k}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        convergence_sweep(a, b, cfg)


def test_sweep_memory_stays_below_one_distance_matrix():
    x, y = coupled_logistic_pair(1201)
    n = len(x) - 1  # 1200 embeddable points at dimension 2
    cfg = CcmConfig(dimension=2, library_sizes=(100, n), samples_per_size=1, seed=0)
    tracemalloc.start()
    try:
        convergence_sweep(x, y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8  # one n x n float64 matrix: 11.5 MB


def test_sweep_requires_aligned_series():
    a = logistic_series(50, name="a")
    b = TimeSeries("b", 1, a.values[:49])
    cfg = CcmConfig(dimension=2, library_sizes=(10, 20), samples_per_size=2)
    with pytest.raises(ValueError, match="aligned"):
        convergence_sweep(a, b, cfg)


def test_negative_exclusion_radius_is_rejected_by_name(tmp_path, capsys):
    # a negative radius used to act as radius 0 while the manifest recorded it
    message = "exclusion_radius must be >= 0, got -2"
    with pytest.raises(ValueError, match=f"^{message}$"):
        CcmConfig(2, (10, 20), exclusion_radius=-2)
    series = logistic_series(60)
    with pytest.raises(ValueError, match=f"^{message}$"):
        cross_map(series, series, dimension=2, exclusion_radius=-2)
    out = tmp_path / "ccm"
    code = main(["ccm", "--a", "debris", "--b", "total", "--exclusion-radius", "-2",
                 "--out", str(out)])  # on the bundled record
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def _record_batches(monkeypatch):
    """Spy on `_cross_map_cells`: (cells, width) of every batch it ranks, in order."""
    batches = []
    select = ccm._select

    def spy(rank, batch, k):
        batches.append(batch.shape)
        return select(rank, batch, k)

    monkeypatch.setattr(ccm, "_select", spy)
    return batches


@pytest.mark.parametrize("radius", [0, 2])
@pytest.mark.parametrize("method, replacement, full", [
    pytest.param("random", True, True, id="random-True"),
    pytest.param("contiguous", False, True, id="contiguous-False"),
    pytest.param("contiguous", False, False, id="contiguous-partial"),
])
def test_batched_sweep_matches_per_cell_cross_maps(method, replacement, full, radius,
                                                   monkeypatch):
    # draws with replacement repeat indices, at the full size too; a
    # contiguous draw at the full size is the whole library, and without it
    # the contiguous draws leave some columns unused
    x, y = coupled_logistic_pair(81)
    n = len(x) - 1
    samples = 6
    sizes = (30, 50, n) if full else (30, 50)
    cfg = CcmConfig(dimension=2, library_sizes=sizes, samples_per_size=samples, seed=4,
                    method=method, replacement=replacement, exclusion_radius=radius)
    union = {int(t) for size in sizes for j in range(samples)
             for t in _redrawn_library(cfg.seed, size, j, n, method, replacement)}
    assert (len(union) < n) == (not full)
    batches = _record_batches(monkeypatch)
    for budget, split in zip(_block_budgets(n, 2), (False, True)):
        monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", budget)
        batches.clear()
        result = convergence_sweep(x, y, cfg)
        # the 7-row budget splits the size-30 samples over several batches
        assert any(1 < cells < samples for cells, width in batches if width == 30) == split
        for i, size in enumerate(cfg.library_sizes):
            for j in range(samples):
                library = _redrawn_library(cfg.seed, size, j, n, method, replacement)
                assert (len(set(library)) < size) == replacement
                for direction, (cause, effect) in zip(result.directions, ((x, y), (y, x))):
                    expected = cross_map(cause, effect, 2, library_indices=library,
                                         exclusion_radius=radius)
                    assert direction.samples[i, j].tobytes() == np.float64(expected).tobytes()


def _record_rankings(monkeypatch):
    """Spy on `_cross_map_cells`: (row width, order width) of every ranking of a block."""
    rankings = []
    smallest_k = ccm._smallest_k

    def spy(block, width):
        rankings.append((block.shape[1], width))
        return smallest_k(block, width)

    monkeypatch.setattr(ccm, "_smallest_k", spy)
    return rankings


def test_sweep_ranks_each_block_once_not_each_batch(monkeypatch):
    # the paper's grid shape: 20 sizes x 20 samples from dimension + 2 to n
    x, y = coupled_logistic_pair(121)
    n = len(x) - 2
    sizes = tuple(sorted({int(round(v)) for v in np.linspace(5, n, 20)}))
    cfg = CcmConfig(dimension=3, library_sizes=sizes, samples_per_size=20, seed=6)
    rows = 9
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", rows * n * 3)
    rankings = _record_rankings(monkeypatch)
    batches = _record_batches(monkeypatch)
    convergence_sweep(x, y, cfg)
    blocks = -(-n // rows)
    assert rankings == [(n, n)] * (2 * blocks)  # both directions
    assert len(batches) > 20 * len(rankings)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_batched_driver_matches_per_cell_on_tied_integer_series(dimension, monkeypatch):
    rng = np.random.default_rng(dimension)
    a = TimeSeries("a", 0, rng.integers(0, 4, 60).astype(float))
    b = TimeSeries("b", 0, rng.integers(0, 4, 60).astype(float))
    library = ccm._embed(a, b, dimension, 1)
    n = len(library)
    draw = np.random.default_rng(0)
    groups = [np.sort(draw.choice(n, (5, size)), axis=1) for size in (25, 40)]
    # the whole library twice around a full-size draw with repeated indices
    groups.append(np.stack([np.arange(n), np.sort(draw.choice(n, n)), np.arange(n)]))
    for budget in _block_budgets(n, dimension):
        monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", budget)
        for leave_one_out in (True, False):
            for radius in (0, 2):
                skill = ccm._cross_map_cells(library, groups, radius, leave_one_out)
                expected = [cross_map(a, b, dimension, library_indices=cell,
                                      exclusion_radius=radius, leave_one_out=leave_one_out)
                            for cells in groups for cell in cells]
                assert skill.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3, 8])
def test_tied_full_library_cross_map_is_independent_of_the_block_size(dimension, monkeypatch):
    # wide rows take the partition path of the selection, whose ties must
    # fall the same way in a one-row block as in the default blocks
    rng = np.random.default_rng(30 + dimension)
    a = TimeSeries("a", 0, rng.integers(0, 4, 1200).astype(float))
    b = TimeSeries("b", 0, rng.integers(0, 4, 1200).astype(float))
    for radius in (0, 2):
        for leave_one_out in (True, False):
            monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", 1 << 16)
            default = cross_map(a, b, dimension, exclusion_radius=radius,
                                leave_one_out=leave_one_out)
            monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", 1)  # one query row per block
            single = cross_map(a, b, dimension, exclusion_radius=radius,
                               leave_one_out=leave_one_out)
            assert np.float64(single).tobytes() == np.float64(default).tobytes()


def test_constant_cause_is_undefined_in_every_cell():
    effect = logistic_series(80, name="e")
    cause = TimeSeries("c", 0, [2.5] * 80)
    cfg = CcmConfig(dimension=2, library_sizes=(10, 40, 79), samples_per_size=4, seed=1)
    samples = convergence_sweep(cause, effect, cfg).a_from_b.samples
    undefined = np.float64(UNDEFINED_SKILL).tobytes()
    assert np.float64(pearson_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])).tobytes() == undefined
    assert samples.tobytes() == undefined * samples.size


def test_sweep_shortfall_is_named_from_a_later_batch(monkeypatch):
    # the first failing cell is the twelfth sample of the smallest size, whose
    # samples are estimated in batches of nine; the message still names it
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    n = len(a) - 1
    radius, k, rows, size = 6, 3, 5, 8
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", rows * n * 2)
    cfg = CcmConfig(dimension=2, library_sizes=(size, 20), samples_per_size=12, seed=0,
                    exclusion_radius=radius)
    batches = _record_batches(monkeypatch)
    convergence_sweep(a, b, CcmConfig(dimension=2, library_sizes=(size, 20), samples_per_size=12,
                                      seed=0))  # the same batches, no shortfall
    per_batch = next(cells for cells, width in batches if width == size)
    failures = [_first_shortfall(_redrawn_library(cfg.seed, size, j, n, "random", False),
                                 n, radius, k)
                for j in range(cfg.samples_per_size)]
    j = next(j for j, f in enumerate(failures) if f is not None)
    assert per_batch <= j < 2 * per_batch
    query, admissible = failures[j]
    # delay vector i has its head at year 1961 + i
    message = (f"cross-map query at {1961 + query} has only {admissible} "
               f"admissible neighbours, needs {k}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        convergence_sweep(a, b, cfg)


def test_a_shortfall_to_zero_neighbours_is_named_from_a_later_block(monkeypatch):
    # the first failing cell draws a column twice, so its admissible count
    # falls from 2 to 0 in one step, at a query of a later row block; no
    # estimate of a short row is computed, so no kernel weight is 0/0
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    n = len(a)  # dimension 1 embeds every point
    radius, k, rows, size = 1, 2, 5, 3
    monkeypatch.setattr(embedding, "_BLOCK_ELEMENTS", rows * n)
    cfg = CcmConfig(dimension=1, library_sizes=(size, 20), samples_per_size=8, seed=175,
                    replacement=True, exclusion_radius=radius)
    failures = [_first_shortfall(_redrawn_library(cfg.seed, s, j, n, "random", True),
                                 n, radius, k)
                for s in cfg.library_sizes for j in range(cfg.samples_per_size)]
    query, admissible = next(f for f in failures if f is not None)
    assert admissible == 0 and query >= rows
    batches = _record_batches(monkeypatch)
    # delay vector i has its head at year 1960 + i
    message = (f"cross-map query at {1960 + query} has only 0 admissible neighbours, "
               f"needs {k}; drawn with replacement (replacement, --replacement), "
               f"a library can hold excluded points more than once")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            convergence_sweep(a, b, cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert (cfg.samples_per_size, size) in batches  # its cell was ranked


def test_too_many_samples_are_named_before_any_cell_is_drawn(monkeypatch):
    # a 400-digit sample count used to draw cells without end
    def no_draws(*args):
        raise AssertionError("a cell was drawn")

    monkeypatch.setattr(ccm, "_draw_indices", no_draws)
    series = logistic_series(60)
    for samples in (10 ** 400, 10 ** 15):
        cfg = CcmConfig(dimension=2, library_sizes=(10, 20), samples_per_size=samples)
        with pytest.raises(ValueError, match=f"^samples_per_size={samples} asks for more"):
            convergence_sweep(series, series, cfg)


def test_too_many_samples_end_the_command_with_exit_two(tmp_path, capsys):
    out = tmp_path / "ccm"
    code = main(["ccm", "--a", "debris", "--b", "total", "--samples", "9" * 400,
                 "--out", str(out)])  # on the bundled record
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: samples_per_size={'9' * 400} asks")
    assert not any(tmp_path.iterdir())


def test_replacement_shortfall_names_the_option(tmp_path, capsys):
    # on the bundled record's default grid a 6-of-60 draw with replacement
    # repeats an index about 23 % of the time, so some query falls short
    data = load_bundled()
    sizes = tuple(_grid(6, 60, 20))
    shortfall = r"^cross-map query at \d+ has only \d+ admissible neighbours, needs 5"
    cfg = CcmConfig(dimension=4, library_sizes=sizes, seed=0, replacement=True)
    with pytest.raises(ValueError, match=f"{shortfall}; drawn with replacement "
                                         r"\(replacement, --replacement\)"):
        convergence_sweep(data["debris"], data["total"], cfg)
    out = tmp_path / "ccm"
    code = main(["ccm", "--a", "debris", "--b", "total", "--e", "4", "--seed", "0",
                 "--replacement", "--out", str(out)])
    assert code == 2
    assert "--replacement" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    # without replacement the same grid has no shortfall, and a radius
    # shortfall keeps the plain message
    convergence_sweep(data["debris"], data["total"], CcmConfig(4, sizes, seed=0))
    with pytest.raises(ValueError, match=f"{shortfall}$"):
        convergence_sweep(data["debris"], data["total"],
                          CcmConfig(4, sizes, seed=0, exclusion_radius=30))


def test_contiguous_shortfall_keeps_the_plain_message(tmp_path, capsys):
    # contiguous draws ignore the replacement flag, so they never repeat a
    # point and their shortfall is named without the option
    data = load_bundled()
    debris, total = data["debris"], data["total"]
    messages = []
    for replacement in (True, False):
        cfg = CcmConfig(4, (10, 30, 59), method="contiguous", replacement=replacement,
                        exclusion_radius=5, seed=1)
        with pytest.raises(ValueError, match=r"^cross-map query at \d+ has only \d+ admissible "
                                             r"neighbours, needs 5$") as caught:
            convergence_sweep(debris, total, cfg)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    out = tmp_path / "ccm"
    code = main(["ccm", "--a", "debris", "--b", "total", "--e", "4", "--method", "contiguous",
                 "--replacement", "--exclusion-radius", "5", "--sizes", "10,30,59",
                 "--seed", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {messages[0]}\n"
    assert not any(tmp_path.iterdir())


def test_negative_seed_is_rejected_by_name(tmp_path, capsys):
    # numpy seeds a stream with the seed's unsigned 32-bit words; a negative
    # seed used to end the sweep with numpy's "expected non-negative integer"
    message = "seed must be >= 0, got -1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        CcmConfig(2, (10, 20), seed=-1)
    out = tmp_path / "ccm"
    code = main(["ccm", "--a", "debris", "--b", "total", "--seed", "-1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def _record_groups(monkeypatch):
    """Spy on `convergence_sweep`: the library groups of every `_cross_map_cells` call."""
    calls = []
    cross_map_cells = ccm._cross_map_cells

    def spy(library, groups, *args, **kwargs):
        calls.append(groups)
        return cross_map_cells(library, groups, *args, **kwargs)

    monkeypatch.setattr(ccm, "_cross_map_cells", spy)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 7, 2**32 - 1, 2**32, 2**64, 2**64 + 5, 2**128 + 7])
@pytest.mark.parametrize("method, replacement", [("random", False), ("random", True),
                                                 ("contiguous", False)])
def test_sweep_draws_are_the_seeded_streams(seed, method, replacement, monkeypatch):
    # each cell draws from the stream of default_rng((seed, size, j)), also for
    # a seed of two, three or five 32-bit words
    x, y = coupled_logistic_pair(61)
    n = len(x) - 1
    cfg = CcmConfig(dimension=2, library_sizes=(20, 35, n), samples_per_size=4, seed=seed,
                    method=method, replacement=replacement)
    calls = _record_groups(monkeypatch)
    convergence_sweep(x, y, cfg)
    expected = [np.sort([ccm._draw_indices(np.random.default_rng((seed, size, j)), n, size, cfg)
                         for j in range(cfg.samples_per_size)], axis=1)
                for size in cfg.library_sizes]
    assert len(calls) == 2  # both directions share the draws
    for groups in calls:
        assert len(groups) == len(expected)
        for drawn, redrawn in zip(groups, expected):
            assert drawn.dtype == redrawn.dtype and np.array_equal(drawn, redrawn)


def test_short_record_ranks_each_size_in_at_most_two_batches(monkeypatch):
    # the paper's grid on the bundled record: one block holds every query
    # row, so a size's samples are ranked in one or two batches
    data = load_bundled()
    a, b = data["debris"], data["total"]
    n = data.n_years - 3
    assert embedding._BLOCK_ELEMENTS // (n * 4) >= n
    sizes = tuple(_grid(6, n, 20))
    cfg = CcmConfig(4, sizes, samples_per_size=20, seed=7)
    batches = _record_batches(monkeypatch)
    result = convergence_sweep(a, b, cfg)
    # every size but the whole library needs ranks, in both directions
    widths = [width for _, width in batches]
    assert sorted(set(widths)) == list(sizes[:-1])
    assert all(widths.count(size) <= 2 * 2 for size in sizes[:-1])
    for i, size in enumerate(sizes):
        for j in range(cfg.samples_per_size):
            library = _redrawn_library(cfg.seed, size, j, n, "random", False)
            for direction, (cause, effect) in zip(result.directions, ((a, b), (b, a))):
                expected = cross_map(cause, effect, 4, library_indices=library)
                assert direction.samples[i, j].tobytes() == np.float64(expected).tobytes()


def test_a_sweep_shortfall_is_raised_from_its_first_direction(monkeypatch):
    # both directions share the draws and the library times, so the second
    # direction is never cross mapped once the first falls short
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    cfg = CcmConfig(dimension=2, library_sizes=(10, 30), samples_per_size=3, seed=2,
                    exclusion_radius=12)
    calls = _record_groups(monkeypatch)
    with pytest.raises(ValueError, match=r"^cross-map query at \d+ has only \d+ admissible "
                                         r"neighbours, needs 3$"):
        convergence_sweep(a, b, cfg)
    assert len(calls) == 1


def _spy(monkeypatch, name):
    """Spy on ``ccm.<name>``: the arguments of every call, in order."""
    calls = []
    original = getattr(ccm, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ccm, name, spy)
    return calls


BUNDLED_PAIRS = (("debris", "total"), ("debris", "launched"), ("launched", "total"))


def test_one_config_draws_and_checks_the_paper_grid_once(monkeypatch):
    # the paper's three pair sweeps on the bundled record draw the grid once,
    # also when each sweep builds its own equal config
    data = load_bundled()
    sizes = tuple(_grid(6, data.n_years - 3, 20))
    assert len(sizes) == 20
    draws = _spy(monkeypatch, "_draw_indices")
    cfg = CcmConfig(4, sizes, samples_per_size=20, seed=7)
    shared = [convergence_sweep(data[a], data[b], cfg) for a, b in BUNDLED_PAIRS]
    assert len(draws) == 400
    twins = [convergence_sweep(data[a], data[b], CcmConfig(4, sizes, samples_per_size=20, seed=7))
             for a, b in BUNDLED_PAIRS]
    assert len(draws) == 400
    ccm._drawn_groups.cache_clear()
    fresh = [convergence_sweep(data[a], data[b], cfg) for a, b in BUNDLED_PAIRS]
    assert len(draws) == 2 * 400
    for kept, twin, drawn in zip(shared, twins, fresh):
        for first, second, third in zip(kept.directions, twin.directions, drawn.directions):
            assert first.samples.tobytes() == second.samples.tobytes() == third.samples.tobytes()


def test_kept_draws_are_read_only_and_no_field():
    x, y = coupled_logistic_pair(61)
    n = len(x) - 1
    cfg = CcmConfig(dimension=2, library_sizes=(20, 35), samples_per_size=4, seed=3)
    before = (dict(vars(cfg)), repr(cfg), hash(cfg), dataclasses.fields(cfg))
    convergence_sweep(x, y, cfg)
    assert (vars(cfg), repr(cfg), hash(cfg), dataclasses.fields(cfg)) == before
    assert ccm._drawn_groups.cache_info().currsize == 1
    twin = CcmConfig(dimension=2, library_sizes=(20, 35), samples_per_size=4, seed=3)
    groups = ccm._drawn_groups(twin, n)  # the grid the sweep kept
    assert ccm._drawn_groups.cache_info().hits == 1
    assert [libraries.shape for libraries in groups] == [(4, 20), (4, 35)]
    for libraries in groups:
        with pytest.raises(ValueError, match="read-only"):
            libraries[0, 0] = 0


def test_a_second_record_length_replaces_the_kept_draws(monkeypatch):
    draws = _spy(monkeypatch, "_draw_indices")
    cfg = CcmConfig(dimension=2, library_sizes=(20, 35), samples_per_size=4, seed=3)
    long, short = coupled_logistic_pair(81), coupled_logistic_pair(61)
    for (x, y), drawn in ((long, 8), (long, 0), (short, 8), (short, 0), (long, 8)):
        before = len(draws)
        result = convergence_sweep(x, y, cfg)
        assert len(draws) - before == drawn
        assert ccm._drawn_groups.cache_info().currsize == 1
        twin = convergence_sweep(x, y, CcmConfig(dimension=2, library_sizes=(20, 35),
                                                 samples_per_size=4, seed=3))
        assert len(draws) - before == drawn  # an equal config reuses the grid
        for first, second in zip(result.directions, twin.directions):
            assert first.samples.tobytes() == second.samples.tobytes()


def test_each_sweep_names_its_own_shortfall():
    # each sweep checks again and names its own record's year
    x, y = coupled_logistic_pair(40)
    radius, k = 12, 3
    cfg = CcmConfig(dimension=2, library_sizes=(10, 30), samples_per_size=3, seed=2,
                    exclusion_radius=radius)
    query, admissible = _first_shortfall(_redrawn_library(cfg.seed, 10, 0, len(x) - 1, "random",
                                                          False), len(x) - 1, radius, k)
    for start in (1960, 1990, 1960):
        message = (f"cross-map query at {start + 1 + query} has only {admissible} "
                   f"admissible neighbours, needs {k}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            convergence_sweep(TimeSeries("a", start, x.values), TimeSeries("b", start, y.values),
                              cfg)
    # a shortfall of draws with replacement names the option every time
    data = load_bundled()
    debris, total = data["debris"], data["total"]
    cfg = CcmConfig(dimension=4, library_sizes=tuple(_grid(6, 60, 20)), seed=0, replacement=True)
    years = []
    for shift in (0, 100, 0):
        with pytest.raises(ValueError, match=r"; drawn with replacement "
                                             r"\(replacement, --replacement\)") as caught:
            convergence_sweep(TimeSeries("debris", debris.start_year + shift, debris.values),
                              TimeSeries("total", total.start_year + shift, total.values), cfg)
        years.append(int(re.match(r"cross-map query at (\d+) ", str(caught.value)).group(1)))
    assert years[1] == years[0] + 100 and years[2] == years[0]


def test_distances_at_the_bound_leave_every_neighbour_admissible():
    # b's states lie 2e100 apart, the widest span the magnitude bound admits; a
    # span past float64 used to overflow and then name a shortfall of 0 neighbours
    a = TimeSeries("a", 1960, [float(i) for i in range(30)])
    b = TimeSeries("b", 1960, [_BOUND if i == 10 else -_BOUND for i in range(30)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert skill_defined(cross_map(a, b, dimension=1))
        for replacement in (False, True):
            result = convergence_sweep(a, b, CcmConfig(dimension=1, library_sizes=(5, 20),
                                                       replacement=replacement))
            assert all(np.isfinite(direction.samples).all()
                       for direction in (result.a_from_b, result.b_from_a))


def test_ccm_cli_refuses_a_record_beyond_the_bound(tmp_path, capsys):
    # b spans +-1.7e308, so its Manhattan distances would overflow float64: load_csv
    # names its first cell past the bound, by row and column, before any distance
    path = tmp_path / "ovf.csv"
    path.write_text("year,a,b\n" + "".join(f"{1960 + i},{i},{1.7e308 if i == 10 else -1.7e308!r}\n"
                                          for i in range(30)), encoding="utf-8")
    code = main(["ccm", "--a", "a", "--b", "b", "--e", "1", "--data", str(path),
                 "--out", str(tmp_path / "ccm_ovf")])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {path}: row 2: value '-1.7e+308' beyond the "
                                       f"magnitude bound 1e+100 in column 'b'\n")
    assert not list(tmp_path.glob("ccm_ovf*"))
