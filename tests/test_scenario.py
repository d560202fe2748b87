import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edmkit.bundled import bundled_path, load_bundled
from edmkit.scenario import (
    CURRENT_PMD_YEARS,
    PolicyScenario,
    ScenarioModelConfig,
    adr_adjust,
    cumulative_deorbited,
    launch_reduction_adjust,
    load_scenario_file,
    pmd_adjust,
    run_scenarios,
    simulate,
)
from edmkit.timeseries import Dataset


def toy_data(start=1995, end=2022):
    years = list(range(start, end + 1))
    n = len(years)
    launched = [100.0 + 5.0 * i for i in range(n)]
    debris = [5000.0 + 120.0 * i for i in range(n)]
    total = [8000.0 + 180.0 * i for i in range(n)]
    return Dataset.from_columns(start, {
        "debris": debris, "launched": launched, "total": total,
    })


def test_scenario_validation():
    with pytest.raises(ValueError):
        PolicyScenario("bogus", pmd_years=5)
    with pytest.raises(ValueError):
        PolicyScenario("pmd")
    with pytest.raises(ValueError):
        PolicyScenario("pmd", pmd_years=5, adr_per_year=10)
    with pytest.raises(ValueError):
        PolicyScenario("launch_reduction", reduction_fraction=1.5)
    with pytest.raises(ValueError):
        PolicyScenario("adr", adr_per_year=100, compliance=2.0)
    scenario = PolicyScenario("pmd", pmd_years=15)
    assert scenario.name == "pmd_15yr"
    assert scenario.adjust_window_end(2022) == 2022 + 10 + 15 == 2047
    assert PolicyScenario("pmd", pmd_years=0).adjust_window_end(2022) == 2032
    assert PolicyScenario("adr", adr_per_year=100).adjust_window_end(2022) == 2022


def test_negative_operational_lifetime_is_rejected():
    # it would make cohorts fall due before their launch year
    with pytest.raises(ValueError, match=r"^operational_lifetime must be >= 0, got -30$"):
        PolicyScenario("pmd", pmd_years=0, operational_lifetime=-30)


def test_cohort_rule_first_deorbit():
    data = toy_data()
    scenario = PolicyScenario("pmd", pmd_years=0, effective_year=2000)
    # cohort 2000 deorbits from 2000 + 10 + 0 = 2010 onward
    launched_2000 = data["launched"].value_at(2000)
    assert cumulative_deorbited(data, scenario, 2009) == 0.0
    assert cumulative_deorbited(data, scenario, 2010) == pytest.approx(launched_2000)
    expected = launched_2000 + data["launched"].value_at(2001)
    assert cumulative_deorbited(data, scenario, 2011) == pytest.approx(expected)


def test_cumulative_deorbited_monotonicity():
    data = toy_data()
    fast = PolicyScenario("pmd", pmd_years=0)
    slow = PolicyScenario("pmd", pmd_years=5)
    values_fast = [cumulative_deorbited(data, fast, y) for y in range(2000, 2040)]
    values_slow = [cumulative_deorbited(data, slow, y) for y in range(2000, 2040)]
    assert all(b >= a for a, b in zip(values_fast, values_fast[1:]))
    # shorter disposal window removes at least as much, every year
    assert all(f >= s for f, s in zip(values_fast, values_slow))


def test_pmd_adjust_applies_cumulative_subtraction():
    data = toy_data()
    scenario = PolicyScenario("pmd", pmd_years=0, effective_year=2000)
    adjusted = pmd_adjust(data, scenario)
    assert adjusted["launched"].values == data["launched"].values
    for year in range(1995, 2010):
        assert adjusted["debris"].value_at(year) == data["debris"].value_at(year)
    removed_2012 = cumulative_deorbited(data, scenario, 2012)
    assert adjusted["debris"].value_at(2012) == pytest.approx(
        data["debris"].value_at(2012) - removed_2012)
    assert adjusted["total"].value_at(2012) == pytest.approx(
        data["total"].value_at(2012) - removed_2012)
    assert min(adjusted["debris"].values) >= 0.0


def test_pmd_compliance_scales_cohorts():
    data = toy_data()
    full = PolicyScenario("pmd", pmd_years=0)
    partial = PolicyScenario("pmd", pmd_years=0, compliance=0.9)
    assert cumulative_deorbited(data, partial, 2015) == pytest.approx(
        0.9 * cumulative_deorbited(data, full, 2015))


def test_launch_reduction_adjust():
    data = toy_data()
    scenario = PolicyScenario("launch_reduction", reduction_fraction=0.4,
                              effective_year=2000)
    adjusted = launch_reduction_adjust(data, scenario)
    for year in range(2000, 2023):
        assert adjusted["launched"].value_at(year) == pytest.approx(
            0.6 * data["launched"].value_at(year))
    # total bodies lose the cumulative shortfall
    shortfall = 0.4 * sum(data["launched"].value_at(y) for y in range(2000, 2011))
    assert adjusted["total"].value_at(2010) == pytest.approx(
        data["total"].value_at(2010) - shortfall)
    # debris loses the per-year debris-per-launched ratio times the shortfall
    assert adjusted["debris"].value_at(2010) < data["debris"].value_at(2010)

    z_only = launch_reduction_adjust(
        data, PolicyScenario("launch_reduction", reduction_fraction=0.4,
                             launch_x_mode="z_only"))
    assert z_only["debris"].values == data["debris"].values

    identity = launch_reduction_adjust(
        data, PolicyScenario("launch_reduction", reduction_fraction=0.0))
    assert identity["debris"].values == data["debris"].values
    assert identity["total"].values == data["total"].values

    # full reduction is legal and keeps series nonnegative
    stress = launch_reduction_adjust(
        data, PolicyScenario("launch_reduction", reduction_fraction=1.0))
    assert min(stress["launched"].values) == 0.0
    assert min(stress["total"].values) >= 0.0


def test_adr_adjust_modes():
    data = toy_data()
    identity = adr_adjust(data, PolicyScenario("adr", adr_per_year=0))
    assert identity["debris"].values == data["debris"].values

    annual = adr_adjust(data, PolicyScenario("adr", adr_per_year=100))
    for year in range(2000, 2023):
        assert annual["debris"].value_at(year) == pytest.approx(
            data["debris"].value_at(year) - 100.0)
        assert annual["total"].value_at(year) == pytest.approx(
            data["total"].value_at(year) - 100.0)

    cumulative = adr_adjust(
        data, PolicyScenario("adr", adr_per_year=100, adr_cumulative=True))
    assert cumulative["debris"].value_at(2010) == pytest.approx(
        data["debris"].value_at(2010) - 100.0 * 11)
    heavy = adr_adjust(
        data, PolicyScenario("adr", adr_per_year=10_000, adr_cumulative=True))
    assert min(heavy["debris"].values) == 0.0  # floored, never negative


def test_adr_adjustment_monotone_in_rate():
    data = toy_data()
    rates = (100, 300, 1000, 3000)
    adjusted = [adr_adjust(data, PolicyScenario("adr", adr_per_year=r)) for r in rates]
    for weaker, stronger in zip(adjusted, adjusted[1:]):
        weak = np.asarray(weaker["debris"].values)
        strong = np.asarray(stronger["debris"].values)
        assert np.all(strong <= weak + 1e-9)


def test_effective_year_beyond_record_is_identity():
    data = toy_data()
    for scenario in (
        PolicyScenario("pmd", pmd_years=0, effective_year=2030),
        PolicyScenario("launch_reduction", reduction_fraction=0.4, effective_year=2030),
        PolicyScenario("adr", adr_per_year=3000, effective_year=2030),
    ):
        if scenario.kind == "pmd":
            adjusted = pmd_adjust(data, scenario)
        elif scenario.kind == "launch_reduction":
            adjusted = launch_reduction_adjust(data, scenario)
        else:
            adjusted = adr_adjust(data, scenario)
        for name in data.names:
            assert adjusted[name].values == data[name].values


def test_missing_series_is_an_error():
    data = Dataset.from_columns(2000, {"debris": [1.0, 2.0, 3.0]})
    with pytest.raises(ValueError, match="missing required series"):
        pmd_adjust(data, PolicyScenario("pmd", pmd_years=5))


def test_current_policy_constant():
    assert CURRENT_PMD_YEARS == 25


def test_model_config_specs():
    config = ScenarioModelConfig()
    two = config.two_input_config()
    assert two.spec.columns == (("debris", 2), ("total", 2))
    assert two.theta == 7.0
    three = config.three_input_config()
    assert three.spec.columns == (("debris", 1), ("launched", 1), ("total", 1))


def test_scenario_file_parsing(tmp_path):
    path = tmp_path / "s.cfg"
    path.write_text(
        "# comment\n"
        "theta = 7\n"
        "lags = 2\n"
        "horizon = 2050\n"
        "\n"
        "[pmd_15]\n"
        "kind = pmd\n"
        "pmd_years = 15\n"
        "\n"
        "[launch_20]\n"
        "kind = launch_reduction\n"
        "reduction_fraction = 0.2\n",
        encoding="utf-8",
    )
    config, scenarios = load_scenario_file(path)
    assert config.theta == 7.0
    assert config.horizon_end == 2050
    assert [s.name for s in scenarios] == ["pmd_15", "launch_20"]
    assert scenarios[0].pmd_years == 15


def test_scenario_file_skips_a_byte_order_mark(tmp_path):
    # the first key used to be read as '\ufefftheta' and refused as unknown
    text = "theta = 7\n[pmd_15]\nkind = pmd\npmd_years = 15\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert load_scenario_file(marked) == load_scenario_file(plain)
    assert load_scenario_file(marked)[0].theta == 7.0


def test_scenario_file_errors(tmp_path):
    bad_key = tmp_path / "bad.cfg"
    bad_key.write_text("[s]\nkind = pmd\nwarp_factor = 9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_scenario_file(bad_key)

    bad_value = tmp_path / "badv.cfg"
    bad_value.write_text("[s]\nkind = pmd\npmd_years = soon\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 3"):
        load_scenario_file(bad_value)

    no_kind = tmp_path / "nokind.cfg"
    no_kind.write_text("[s]\npmd_years = 5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing 'kind'"):
        load_scenario_file(no_kind)

    with pytest.raises(FileNotFoundError):
        load_scenario_file(tmp_path / "nope.cfg")

    bad_lags = tmp_path / "badlags.cfg"
    bad_lags.write_text("three_input_lags = 1,a,1\n[s]\nkind = pmd\npmd_years = 5\n",
                        encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad_lags))}: three_input_lags needs "
                                         "three comma-separated integers$"):
        load_scenario_file(bad_lags)

    repeated = tmp_path / "repeated.cfg"
    repeated.write_text("[s]\nkind = pmd\npmd_years = 5\n[s]\nkind = adr\nadr_per_year = 1\n",
                        encoding="utf-8")
    with pytest.raises(ValueError, match=r"line 4: repeated section \[s\]$"):
        load_scenario_file(repeated)


@pytest.mark.parametrize("text, line, key", [
    ("theta = 7\ntheta = 2\n[s]\nkind = adr\nadr_per_year = 100\n", 2, "theta"),
    ("[s]\nkind = adr\nadr_per_year = 100\n# again\nadr_per_year = 300\n", 5, "adr_per_year"),
    ("[s]\nkind = adr\nadr_per_year = 1\n[t]\nkind = adr\nkind = pmd\n", 6, "kind"),
])
def test_a_repeated_key_is_named_by_line(tmp_path, text, line, key):
    # the second value silently replaced the first
    path = tmp_path / "repeated.cfg"
    path.write_text(text, encoding="utf-8")
    message = f"{path}: line {line}: repeated key {key!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_scenario_file(path)
    # one key in two sections is no repeat
    path.write_text("theta = 7\n[s]\nkind = adr\nadr_per_year = 100\n"
                    "[t]\nkind = adr\nadr_per_year = 300\n", encoding="utf-8")
    config, scenarios = load_scenario_file(path)
    assert config.theta == 7.0
    assert [s.adr_per_year for s in scenarios] == [100, 300]


def test_zero_baseline_raises_named_error():
    # with no debris on record, both baselines forecast exactly 0 debris
    data = toy_data()
    data = data.with_values({"debris": np.zeros(data.n_years)})
    for scenario in (PolicyScenario("adr", adr_per_year=100),
                     PolicyScenario("launch_reduction", reduction_fraction=0.1)):
        with pytest.raises(ValueError, match=f"{scenario.name}.*2050 is 0"):
            simulate(data, scenario, ScenarioModelConfig())


def test_reset_band_restarts_the_running_variance():
    import edmkit.scenario
    from edmkit.forecast import ForecastResult

    variance = np.random.default_rng(3).uniform(0.0, 50.0, 12)
    times = np.arange(2023, 2035)
    trajectory = ForecastResult("debris", times, np.zeros(12), None, np.nan, np.nan,
                                np.zeros(12), variance)
    for reset_year in range(2021, 2037):
        # reference: a running sum that restarts at reset_year
        expected, running = [], 0.0
        for year, v in zip(times, variance):
            running = (0.0 if year == reset_year else running) + v
            expected.append(1.96 * np.sqrt(running))
        band = edmkit.scenario._reset_band(trajectory, reset_year).band_halfwidth
        assert band.tolist() == expected


def _one_of(*choices):
    return st.sampled_from(choices)


# per key, values the parser accepts; _ODD values reach the same key at random
_MODEL = {"theta": _one_of("0", "2.5"), "lags": _one_of("1", "2"), "tau": _one_of("1", "2"),
          "ridge": _one_of("0", "0.1"), "horizon": _one_of("2040", "2050"),
          "three_input_lags": _one_of("1,2,1", "2, 1, 1")}
_SCENARIO = {"effective_year": st.integers(1990, 2030).map(str),
             "operational_lifetime": st.integers(0, 20).map(str),
             "pmd_years": st.integers(0, 30).map(str), "reduction_fraction": _one_of("0.2", "1"),
             "adr_per_year": st.integers(0, 500).map(str), "compliance": _one_of("0.8", "1"),
             "adr_cumulative": _one_of("yes", "off"), "launch_x_mode": _one_of("ratio", "z_only")}
_ODD = st.one_of(_one_of("nan", "inf", "-inf", "", "a", "1,a,1", "-3", str(10**400), "1e400"),
                 st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
_REQUIRED = {"pmd": "pmd_years", "adr": "adr_per_year", "launch_reduction": "reduction_fraction"}


@st.composite
def scenario_text(draw):
    # mostly well-formed files, so that odd values reach every later check
    def pair(schema, key):
        odd = draw(st.integers(0, 9)) == 0
        return f"{key} = {draw(_ODD if odd else schema[key])}"

    def pairs(schema):
        return [pair(schema, key)
                for key in draw(st.lists(st.sampled_from(sorted(schema)), max_size=2))]

    lines = pairs(_MODEL)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(sorted(_REQUIRED)))
        lines += [f"[{draw(_one_of('a', 'b', 'c', 'd'))}]",  # few names: sections repeat
                  f"kind = {kind}", pair(_SCENARIO, _REQUIRED[kind]), *pairs(_SCENARIO)]
    if draw(st.integers(0, 3)) == 0:  # a comment, blank or malformed line
        noise = draw(st.one_of(_one_of("# note", "", "warp = 9", "[]", "[ ]", "key only"), _ODD))
        lines.insert(draw(st.integers(0, len(lines))), noise)
    return "\n".join(lines) + "\n"


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(scenario_text())
def test_load_scenario_file_returns_or_names_the_error(tmp_path_factory, text):
    # generated files, 400-digit integers, nan, inf and repeated sections
    # included: the parser returns unique scenarios or raises a named error
    path = tmp_path_factory.mktemp("cfg") / "s.cfg"
    path.write_text(text, encoding="utf-8")
    try:
        config, scenarios = load_scenario_file(path)
    except (ValueError, FileNotFoundError):
        return
    assert isinstance(config, ScenarioModelConfig)
    names = [scenario.name for scenario in scenarios]
    assert names and len(set(names)) == len(names)


def test_adjusters_name_the_wrong_kind_and_the_missing_series():
    data = toy_data()
    pmd = PolicyScenario("pmd", pmd_years=5)
    adr = PolicyScenario("adr", adr_per_year=100)
    for adjuster, scenario, message in (
        (pmd_adjust, adr, "pmd_adjust needs a pmd scenario, got 'adr'"),
        (launch_reduction_adjust, pmd,
         "launch_reduction_adjust needs a launch_reduction scenario, got 'pmd'"),
        (adr_adjust, pmd, "adr_adjust needs an adr scenario, got 'pmd'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            adjuster(data, scenario)
    no_total = Dataset.from_columns(data.start_year, {
        name: data[name].values for name in ("debris", "launched")})
    for adjuster, scenario in ((pmd_adjust, pmd),
                               (launch_reduction_adjust,
                                PolicyScenario("launch_reduction", reduction_fraction=0.1)),
                               (adr_adjust, adr)):
        with pytest.raises(ValueError, match="^dataset is missing required series 'total'$"):
            adjuster(no_total, scenario)


def _track_bits(t):
    return [np.asarray(a).tobytes() for a in (t.times, t.predicted, t.band_halfwidth,
                                              t.step_variance, t.coefficients)]


def _bits(report):
    return (_track_bits(report.trajectory),
            repr((report.debris_2050, report.baseline_2050, report.pct_mitigated,
                  report.margin_of_error)))


def test_every_kind_runs_one_pipeline_on_the_bundled_record():
    data = load_bundled()
    config, scenarios = load_scenario_file(bundled_path("scenarios/table2.cfg"))
    batch = {r.scenario.name: r for r in run_scenarios(data, scenarios, config)}
    for scenario in scenarios:
        # shared baselines change nothing
        assert _bits(simulate(data, scenario, config)) == _bits(batch[scenario.name])
    for name, report in batch.items():
        if name.startswith(("adr_", "launch_minus_")):
            # the band restarts at the first forecast year: one running sum
            trajectory = report.trajectory
            assert np.array_equal(trajectory.band_halfwidth,
                                  1.96 * np.sqrt(np.cumsum(trajectory.step_variance))), name
    for name, reset_year in (("pmd_10yr", 2043), ("pmd_0yr", 2033)):
        report = batch[name]
        assert report.scenario.adjust_window_end(data.end_year) + 1 == reset_year
        times, variance = report.trajectory.times, report.trajectory.step_variance
        split = int(np.flatnonzero(times == reset_year)[0])
        expected = np.concatenate([np.cumsum(variance[:split]), np.cumsum(variance[split:])])
        assert np.array_equal(report.trajectory.band_halfwidth, 1.96 * np.sqrt(expected)), name
        assert report.trajectory.band_halfwidth[split] == 1.96 * np.sqrt(variance[split])
    assert batch["pmd_25yr"].pct_mitigated == 0.0


def _zero_floor_baselines(data, config):
    from edmkit.forecast import iterative_forecast

    def floor(year, values):
        return {name: max(0.0, value) for name, value in values.items()}

    return {three: iterative_forecast(data, config.debris, config.three_input_config() if three
                                      else config.two_input_config(), config.horizon_end,
                                      adjust=floor)
            for three in (False, True)}


def _lockstep_spy(monkeypatch):
    import edmkit.scenario

    calls = []
    original = edmkit.scenario._lockstep

    def spy(records, target, cfg, *args, **kwargs):
        forecasts = original(records, target, cfg, *args, **kwargs)
        calls.append((list(records), len(cfg.spec.columns), forecasts))  # inputs: series
        return forecasts

    monkeypatch.setattr(edmkit.scenario, "_lockstep", spy)
    return calls


def test_unchanged_record_reuses_the_baseline_bit_for_bit():
    data = load_bundled()
    config, _ = load_scenario_file(bundled_path("scenarios/table2.cfg"))
    baselines = _zero_floor_baselines(data, config)
    reused = (PolicyScenario("pmd", pmd_years=CURRENT_PMD_YEARS),
              PolicyScenario("adr", adr_per_year=0),
              PolicyScenario("launch_reduction", reduction_fraction=0.0))
    # its record is untouched, but cohorts fall due from 2025, inside the forecast
    pmd = PolicyScenario("pmd", pmd_years=15)
    assert pmd_adjust(data, pmd) == data
    rerun = (PolicyScenario("adr", adr_per_year=100), pmd)
    reports = run_scenarios(data, [*reused, *rerun], config)
    assert reports[1].trajectory is reports[0].trajectory  # adr_0 is pmd_25yr
    for scenario, report in zip(reused, reports):
        expected = baselines[scenario.kind == "launch_reduction"]
        assert _track_bits(report.trajectory) == _track_bits(expected), scenario.name
        assert report.pct_mitigated == 0.0
    # re-forecasting an unchanged record would repeat its baseline bit for bit
    for scenario, adjuster in ((reused[1], adr_adjust), (reused[2], launch_reduction_adjust)):
        three = scenario.kind == "launch_reduction"
        again = _zero_floor_baselines(adjuster(data, scenario), config)[three]
        assert _track_bits(again) == _track_bits(baselines[three]), scenario.name
    for report in reports[len(reused):]:
        assert report.trajectory is not reports[0].trajectory
        assert report.debris_2050 != report.baseline_2050
    for scenario, report in zip(reused, reports):
        assert _bits(simulate(data, scenario, config)) == _bits(report)


def test_the_first_record_of_each_lockstep_is_its_baseline(monkeypatch):
    data = load_bundled()
    config = ScenarioModelConfig()
    expected = _zero_floor_baselines(data, config)
    calls = _lockstep_spy(monkeypatch)
    batch = [PolicyScenario("adr", adr_per_year=100),
             PolicyScenario("launch_reduction", reduction_fraction=0.2)]
    reports = run_scenarios(data, batch, config)
    assert [inputs for _, inputs, _ in calls] == [2, 3]
    for (_, inputs, forecasts), report in zip(calls, reports):
        got, want = forecasts[0], expected[inputs == 3]
        assert _track_bits(got) == _track_bits(want), inputs
        assert got.coefficient_labels == want.coefficient_labels
        assert report.baseline_2050 == want.value_at(config.horizon_end)


def test_a_failing_baseline_names_its_spec(monkeypatch):
    import edmkit.scenario

    data = load_bundled()
    config = ScenarioModelConfig()
    original = edmkit.scenario._floor_counts

    def poisoned(year, values):
        out = original(year, values)
        if year == 2031:
            out[config.total] = float("nan")
        return out

    monkeypatch.setattr(edmkit.scenario, "_floor_counts", poisoned)
    for scenario, spec in ((PolicyScenario("adr", adr_per_year=100), "two"),
                           (PolicyScenario("launch_reduction", reduction_fraction=0.2), "three")):
        message = f"{spec}-input baseline: series 'total' has a non-finite value nan in year 2031"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate(data, scenario, config)


def test_a_failing_lockstep_trajectory_names_its_scenario(monkeypatch):
    # one trajectory of the two-input group turns non-finite in 2031; the
    # error names it, not the group's first member or the baseline
    import edmkit.scenario

    data = load_bundled()
    config, scenarios = load_scenario_file(bundled_path("scenarios/table2.cfg"))
    original = edmkit.scenario._policy_inputs

    def poisoned(data, scenario, config):
        inputs = original(data, scenario, config)
        if scenario.name != "adr_300":
            return inputs
        adjusted, adjust = inputs

        def bad(year, values):
            out = adjust(year, values)
            if year == 2031:
                out[config.total] = float("nan")
            return out
        return adjusted, bad

    monkeypatch.setattr(edmkit.scenario, "_policy_inputs", poisoned)
    message = "scenario 'adr_300': series 'total' has a non-finite value nan in year 2031"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_scenarios(data, scenarios, config)
    adr_300 = next(s for s in scenarios if s.name == "adr_300")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate(data, adr_300, config)


def test_one_lockstep_call_per_spec_group_for_both_entry_points(monkeypatch):
    data = load_bundled()
    config, scenarios = load_scenario_file(bundled_path("scenarios/table2.cfg"))
    calls = _lockstep_spy(monkeypatch)
    run_scenarios(data, scenarios, config)
    # PMD and ADR on two inputs, then launch reduction, each after its baseline
    assert [len(records) for records, _, _ in calls] == [9, 5]
    by_name = {s.name: s for s in scenarios}
    for name, expected in (("adr_100", [2]), ("launch_minus_0pct", [1])):
        calls.clear()
        simulate(data, by_name[name], config)
        assert [len(records) for records, _, _ in calls] == expected, name


def test_each_baseline_is_forecast_once_when_first_needed(monkeypatch):
    data = load_bundled()
    config = ScenarioModelConfig()
    calls = _lockstep_spy(monkeypatch)
    launch = PolicyScenario("launch_reduction", reduction_fraction=0.2)
    adr = PolicyScenario("adr", adr_per_year=100)
    pmd = PolicyScenario("pmd", pmd_years=5)
    for batch, specs in (([launch], [3]), ([adr], [2]), ([launch, adr, launch, pmd], [2, 3]),
                         ([], [])):
        calls.clear()
        run_scenarios(data, batch, config)
        # one call per spec used, its first record the recorded data itself
        assert [inputs for _, inputs, _ in calls] == specs, [s.name for s in batch]
        assert all(records[0] is data and all(record is not data for record in records[1:])
                   for records, _, _ in calls)
