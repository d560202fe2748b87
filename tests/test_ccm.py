import tracemalloc

import numpy as np
import pytest

from edmkit import ccm
from edmkit.bundled import load_bundled
from edmkit.ccm import CcmConfig, convergence_sweep, cross_map
from edmkit.cli import _grid, main
from edmkit.timeseries import UNDEFINED_SKILL, TimeSeries, pearson_rho, skill_defined

from helpers import coupled_logistic_pair, logistic_series, oracle_cross_map, random_walk


def test_self_mapping_is_exact_without_leave_one_out():
    series = logistic_series(300)
    rho = cross_map(series, series, dimension=2, leave_one_out=False)
    assert rho == pytest.approx(1.0, abs=1e-9)


def test_self_mapping_with_leave_one_out_on_chaotic_map():
    series = logistic_series(300)
    rho = cross_map(series, series, dimension=2)
    assert rho >= 0.999


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
    return (ccm._BLOCK_ELEMENTS, 7 * n * dimension)


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
        monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", budget)
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
        monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", budget)
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
    monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", rows * n * 2)
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
    """Spy on the driver: (cells, width) of every batch it estimates, in order."""
    batches = []
    estimates = ccm._estimates

    def spy(distances, keep, values, k):
        batches.append(distances.shape[1:])
        return estimates(distances, keep, values, k)

    monkeypatch.setattr(ccm, "_estimates", spy)
    return batches


@pytest.mark.parametrize("radius", [0, 2])
@pytest.mark.parametrize("method, replacement", [("random", True), ("contiguous", False)])
def test_batched_sweep_matches_per_cell_cross_maps(method, replacement, radius, monkeypatch):
    # draws with replacement repeat indices, at the full size too; a
    # contiguous draw at the full size is the whole library
    x, y = coupled_logistic_pair(81)
    n = len(x) - 1
    samples = 6
    cfg = CcmConfig(dimension=2, library_sizes=(30, 50, n), samples_per_size=samples, seed=4,
                    method=method, replacement=replacement, exclusion_radius=radius)
    batches = _record_batches(monkeypatch)
    for budget, split in zip(_block_budgets(n, 2), (False, True)):
        monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", budget)
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
        monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", budget)
        for leave_one_out in (True, False):
            for radius in (0, 2):
                skill = ccm._cross_map_cells(library, groups, radius, leave_one_out)
                expected = [cross_map(a, b, dimension, library_indices=cell,
                                      exclusion_radius=radius, leave_one_out=leave_one_out)
                            for cells in groups for cell in cells]
                assert skill.tobytes() == np.array(expected).tobytes()


def test_constant_cause_is_undefined_in_every_cell():
    effect = logistic_series(80, name="e")
    cause = TimeSeries("c", 0, [2.5] * 80)
    cfg = CcmConfig(dimension=2, library_sizes=(10, 40, 79), samples_per_size=4, seed=1)
    samples = convergence_sweep(cause, effect, cfg).a_from_b.samples
    undefined = np.float64(UNDEFINED_SKILL).tobytes()
    assert np.float64(pearson_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])).tobytes() == undefined
    assert samples.tobytes() == undefined * samples.size


def test_sweep_shortfall_is_named_from_a_later_batch(monkeypatch):
    # the first failing cell is the sixth sample of the smallest size, whose
    # samples are estimated in batches of four; the message still names it
    x, y = coupled_logistic_pair(40)
    a = TimeSeries("a", 1960, x.values)
    b = TimeSeries("b", 1960, y.values)
    n = len(a) - 1
    radius, k, rows, size = 6, 3, 5, 8
    monkeypatch.setattr(ccm, "_BLOCK_ELEMENTS", rows * n * 2)
    cfg = CcmConfig(dimension=2, library_sizes=(size, 20), samples_per_size=8, seed=8,
                    exclusion_radius=radius)
    batches = _record_batches(monkeypatch)
    convergence_sweep(a, b, CcmConfig(dimension=2, library_sizes=(size, 20), samples_per_size=8,
                                      seed=8))  # the same batches, no shortfall
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
