"""Mitigation-policy counterfactuals on the debris system.

Three families of intervention are modelled, all effective from a chosen
year (2000 by default) through the end of the observed record:

* post-mission disposal (PMD): every object launched from the effective
  year on is deorbited once its operational lifetime plus the disposal
  window has elapsed, removing it from both the debris and total-body
  counts;
* launch reduction: a fraction of each year's launches never happens, so
  the total-body count loses the cumulative shortfall and the debris count
  loses the shortfall scaled by the historical debris-per-launched-object
  ratio (or nothing, in "z_only" mode);
* active debris removal (ADR): a fixed number of debris objects is removed
  from each year's count (an optional cumulative mode keeps every removal
  off the books permanently; the annual mode matches how such campaigns are
  usually scored against aggregate counts).

Every kind runs through one pipeline:

1. adjust the observed window with the kind's adjuster;
2. re-forecast the adjusted history with the S-map at the scenario file's
   theta, flooring each year at 0 and, for PMD, removing the cohorts whose
   disposal falls due that year before the value joins the library, so
   later steps learn the policy dynamic; ``run_scenarios`` runs one
   lockstep per embedding the batch uses (PMD and ADR on two inputs,
   launch reduction on three), one fit per year for the group, whose first
   record is the recorded history under the same zero floor, the
   baseline, and whose others are the scenarios, each trajectory from its
   own record and adjuster; ``simulate`` is ``run_scenarios`` of one
   scenario;
3. restart the confidence band the year after ``adjust_window_end``: the
   first forecast year for launch reduction and ADR, so their band runs over
   the whole horizon; for PMD the year after the last cohort deorbits, since
   the clean stretch to the horizon is a fresh prediction problem;
4. score against the two-input baseline, or the three-input one for launch
   reduction, whose launch series changes the system evolution wholesale.

The bundled suite uses the paper's theta = 7, tuned on the original
model-output series; a theta search on the bundled record itself selects
theta = 0.  A disposal window at or beyond the current 25-year practice
leaves the recorded history untouched, so such scenarios are defined to
equal the baseline exactly; a launch-reduction or ADR scenario whose
adjusted record equals the recorded one byte for byte (a 0 % reduction, say)
takes the baseline forecast, which it would repeat bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .embedding import EmbeddingSpec
from .forecast import ForecastResult, _lockstep
from .smap import SMapConfig
from .timeseries import Dataset, _flag, _require_finite, _whole_number

__all__ = [
    "CURRENT_PMD_YEARS",
    "PolicyScenario",
    "ScenarioModelConfig",
    "MitigationReport",
    "pmd_adjust",
    "launch_reduction_adjust",
    "adr_adjust",
    "simulate",
    "run_scenarios",
    "load_scenario_file",
]

#: Disposal window of the policy already in force; scenarios at or above it
#: cannot differ from the recorded history.
CURRENT_PMD_YEARS = 25

#: Each scenario kind and the one parameter it must set (the others stay None).
_KIND_FIELDS = {"pmd": "pmd_years", "launch_reduction": "reduction_fraction",
                "adr": "adr_per_year"}


@dataclass(frozen=True)
class PolicyScenario:
    """One mitigation policy: kind plus exactly that kind's parameters."""

    kind: str
    name: str = ""
    effective_year: int = 2000
    operational_lifetime: int = 10
    pmd_years: int | None = None
    reduction_fraction: float | None = None
    adr_per_year: int | None = None
    compliance: float = 1.0
    adr_cumulative: bool = False
    launch_x_mode: str = "ratio"

    def __post_init__(self) -> None:
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; use {sorted(_KIND_FIELDS)}")
        values = {name: getattr(self, name) for name in _KIND_FIELDS.values()}
        _require_finite(effective_year=self.effective_year,
                        operational_lifetime=self.operational_lifetime,
                        compliance=self.compliance, **values)
        for name in ("effective_year", "operational_lifetime", "pmd_years", "adr_per_year"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))
        object.__setattr__(self, "adr_cumulative", _flag("adr_cumulative", self.adr_cumulative))
        needed = _KIND_FIELDS[self.kind]
        if values[needed] is None:
            raise ValueError(f"{self.kind} scenario needs {needed}")
        for field_name, value in values.items():
            if field_name != needed and value is not None:
                raise ValueError(f"{self.kind} scenario must not set {field_name}")
        if self.kind == "pmd" and self.pmd_years < 0:
            raise ValueError("pmd_years must be >= 0")
        if self.operational_lifetime < 0:
            raise ValueError(f"operational_lifetime must be >= 0, got {self.operational_lifetime}")
        if self.kind == "launch_reduction" and not 0.0 <= self.reduction_fraction <= 1.0:
            raise ValueError(f"reduction_fraction must lie in [0, 1], got {self.reduction_fraction}")
        if self.kind == "adr" and self.adr_per_year < 0:
            raise ValueError("adr_per_year must be >= 0")
        if not 0.0 <= self.compliance <= 1.0:
            raise ValueError(f"compliance must lie in [0, 1], got {self.compliance}")
        if self.launch_x_mode not in ("ratio", "z_only"):
            raise ValueError(f"launch_x_mode must be 'ratio' or 'z_only', got {self.launch_x_mode!r}")
        if not self.name:
            object.__setattr__(self, "name", self._default_name())

    def _default_name(self) -> str:
        if self.kind == "pmd":
            return f"pmd_{self.pmd_years}yr"
        if self.kind == "launch_reduction":
            return f"launch_minus_{round(self.reduction_fraction * 100)}pct"
        return f"adr_{self.adr_per_year}"

    def adjust_window_end(self, data_end: int) -> int:
        """Last year the policy can still alter (PMD reaches past the record)."""
        if self.kind == "pmd":
            return data_end + self.operational_lifetime + self.pmd_years
        return data_end


@dataclass(frozen=True)
class ScenarioModelConfig:
    """Forecast settings shared by a batch of scenario runs.

    Two-input runs (PMD, ADR) embed debris and total bodies with ``lags``
    lags each; launch-reduction runs add the launch series using
    ``three_input_lags``.  Series roles are resolved by name so other
    datasets can reuse the engine.
    """

    theta: float = 7.0
    lags: int = 2
    tau: int = 1
    ridge: float = 0.0
    horizon_end: int = 2050
    debris: str = "debris"
    launched: str = "launched"
    total: str = "total"
    three_input_lags: tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self) -> None:
        _require_finite(theta=self.theta, ridge=self.ridge)
        for name in ("lags", "horizon_end"):
            object.__setattr__(self, name, _whole_number(name, getattr(self, name)))

    def two_input_config(self) -> SMapConfig:
        spec = EmbeddingSpec(
            ((self.debris, self.lags), (self.total, self.lags)), tau=self.tau
        )
        return SMapConfig(spec, self.theta, ridge=self.ridge)

    def three_input_config(self) -> SMapConfig:
        lx, ly, lz = self.three_input_lags
        spec = EmbeddingSpec(
            ((self.debris, lx), (self.launched, ly), (self.total, lz)), tau=self.tau
        )
        return SMapConfig(spec, self.theta, ridge=self.ridge)


@dataclass(frozen=True)
class MitigationReport:
    """Outcome of one scenario run against its kind-appropriate baseline."""

    scenario: PolicyScenario
    debris_2050: float
    baseline_2050: float
    pct_mitigated: float
    margin_of_error: float
    trajectory: ForecastResult

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario.name,
            "kind": self.scenario.kind,
            "debris_2050": self.debris_2050,
            "baseline_2050": self.baseline_2050,
            "pct_mitigated": self.pct_mitigated,
            "margin_of_error": self.margin_of_error,
        }


def _cohorts(data: Dataset, scenario: PolicyScenario, launched: str) -> tuple[np.ndarray, int]:
    """The objects each recorded launch year's cohort deorbits, and their delay.

    Cohort y (objects launched in year y, from the effective year on; none
    before it) comes down in year y + delay, where delay is
    operational_lifetime + pmd_years.  Indexing by launch year keeps the
    array as long as the record, however long the delay.
    """
    launches = data[launched].to_array()
    first = max(scenario.effective_year - data.start_year, 0)
    cohorts = np.zeros(launches.size)
    cohorts[first:] += scenario.compliance * launches[first:]  # a -0.0 cohort adds 0.0
    return cohorts, scenario.operational_lifetime + scenario.pmd_years


def _removed_through(data: Dataset, scenario: PolicyScenario, launched: str,
                     years) -> np.ndarray:
    """Objects the policy has deorbited up to and including each of ``years``."""
    cohorts, delay = _cohorts(data, scenario, launched)
    last = np.minimum(np.asarray(years) - delay - data.start_year, cohorts.size - 1)
    return np.where(last >= 0, np.cumsum(cohorts)[np.maximum(last, 0)], 0.0)


def _floored(values: np.ndarray) -> np.ndarray:
    # max(0.0, v) per entry; np.maximum may return -0.0 where v is -0.0
    return np.where(values > 0.0, values, 0.0)


def _require(data: Dataset, scenario: PolicyScenario, kind: str, *names: str) -> None:
    """The guard of ``<kind>_adjust``: a scenario of that kind, then each named series."""
    if scenario.kind != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise ValueError(f"{kind}_adjust needs {article} {kind} scenario, got {scenario.kind!r}")
    for name in names:
        if name not in data:
            raise ValueError(f"dataset is missing required series {name!r}")


def cumulative_deorbited(data: Dataset, scenario: PolicyScenario, year: int,
                         launched: str = "launched") -> float:
    """Total objects deorbited by the policy up to and including a year."""
    return float(_removed_through(data, scenario, launched, year))


def pmd_adjust(data: Dataset, scenario: PolicyScenario,
               debris: str = "debris", launched: str = "launched",
               total: str = "total") -> Dataset:
    """Subtract cumulative PMD deorbits from the recorded debris and totals.

    Only the observed window changes here; disposals falling due after the
    record ends are applied during the forecast (see ``run_scenarios``).
    """
    _require(data, scenario, "pmd", debris, launched, total)
    removed = _removed_through(data, scenario, launched, data.years)
    changed = removed > 0.0
    x, z = data[debris].to_array(), data[total].to_array()
    return data.with_values({debris: np.where(changed, _floored(x - removed), x),
                             total: np.where(changed, _floored(z - removed), z)})


def launch_reduction_adjust(data: Dataset, scenario: PolicyScenario,
                            debris: str = "debris", launched: str = "launched",
                            total: str = "total") -> Dataset:
    """Scale launches down over the policy window and propagate the shortfall.

    Every unlaunched object is one fewer body in the total count; the debris
    count drops by the per-year debris-per-launched-object ratio times the
    cumulative shortfall ("ratio" mode) or not at all ("z_only" mode).
    """
    _require(data, scenario, "launch_reduction", debris, launched, total)
    fraction = scenario.reduction_fraction
    x, y, z = (data[name].to_array() for name in (debris, launched, total))
    inside = np.arange(data.start_year, data.end_year + 1) >= scenario.effective_year
    shortfall = np.cumsum(np.where(inside, fraction * y, 0.0))
    adjusted = {launched: np.where(inside, (1.0 - fraction) * y, y),
                total: np.where(inside, _floored(z - shortfall), z)}
    if scenario.launch_x_mode == "ratio":
        cumulative_launched = np.cumsum(y)
        scaled = inside & (cumulative_launched > 0)
        ratio = x / np.where(scaled, cumulative_launched, 1.0)
        adjusted[debris] = np.where(scaled, _floored(x - ratio * shortfall), x)
    return data.with_values(adjusted)


def adr_adjust(data: Dataset, scenario: PolicyScenario,
               debris: str = "debris", total: str = "total") -> Dataset:
    """Remove debris by campaign: annual level reduction, or cumulative.

    Removed debris objects are also bodies, so both counts drop.  The annual
    mode reduces each recorded year by the yearly removal count; cumulative
    mode subtracts everything removed so far (and floors hard at zero).
    """
    _require(data, scenario, "adr", debris, total)
    years = np.arange(data.start_year, data.end_year + 1)
    inside = years >= scenario.effective_year
    removal = scenario.adr_per_year
    if scenario.adr_cumulative:
        removal = removal * (years - scenario.effective_year + 1)
    x, z = data[debris].to_array(), data[total].to_array()
    return data.with_values({debris: np.where(inside, _floored(x - removal), x),
                             total: np.where(inside, _floored(z - removal), z)})


def _reset_band(trajectory: ForecastResult, reset_year: int) -> ForecastResult:
    """Restart the cumulative band at reset_year (no-op at the first step or past the last)."""
    variance = trajectory.step_variance
    split = int(np.searchsorted(trajectory.times, reset_year))
    cumulative = np.concatenate([np.cumsum(variance[:split]), np.cumsum(variance[split:])])
    return replace(trajectory, band_halfwidth=1.96 * np.sqrt(cumulative))


def _floor_counts(_year: int, values: dict[str, float]) -> dict[str, float]:
    # population counts cannot go negative; policy trajectories are floored
    return {name: max(0.0, value) for name, value in values.items()}


def _policy_inputs(data: Dataset, scenario: PolicyScenario, config: ScenarioModelConfig):
    """The adjusted record and per-year adjuster of a policy forecast.

    None where the trajectory is its spec's baseline: a PMD window at or
    beyond current practice, which the recorded history already embeds, is
    defined to equal it, and a launch-reduction or ADR adjustment that leaves
    every series byte for byte as recorded would repeat it exactly (its band
    restarts at the first forecast year, where the baseline's starts).  A
    shorter PMD window still removes the cohorts falling due after the
    record, so it always runs.
    """
    if scenario.kind == "pmd" and scenario.pmd_years >= CURRENT_PMD_YEARS:
        return None
    debris, launched, total = config.debris, config.launched, config.total
    adjust = _floor_counts
    if scenario.kind == "adr":
        adjusted = adr_adjust(data, scenario, debris, total)
    elif scenario.kind == "launch_reduction":
        adjusted = launch_reduction_adjust(data, scenario, debris, launched, total)
    else:
        adjusted = pmd_adjust(data, scenario, debris, launched, total)
        cohorts, delay = _cohorts(data, scenario, launched)

        def adjust(year: int, values: dict[str, float]) -> dict[str, float]:
            out = _floor_counts(year, values)
            cohort = year - delay - data.start_year
            removal = float(cohorts[cohort]) if 0 <= cohort < cohorts.size else 0.0
            if removal > 0.0:  # the cohort falling due this year leaves both counts
                out[debris] = max(0.0, out[debris] - removal)
                out[total] = max(0.0, out[total] - removal)
            return out

    if scenario.kind != "pmd" and all(
            adjusted[name].to_array().tobytes() == data[name].to_array().tobytes()
            for name in data.names):
        return None
    return adjusted, adjust


def simulate(data: Dataset, scenario: PolicyScenario,
             config: ScenarioModelConfig) -> MitigationReport:
    """Run one policy scenario end to end and score it against its baseline.

    This is ``run_scenarios(data, [scenario], config)[0]``: the three-input
    baseline for launch reduction, the two-input one for everything else.
    """
    return run_scenarios(data, [scenario], config)[0]


def run_scenarios(data: Dataset, scenarios: Iterable[PolicyScenario],
                  config: ScenarioModelConfig, threads: int = 1) -> list[MitigationReport]:
    """Run a batch of scenarios against shared baselines, in input order.

    Each spec the batch uses (two inputs for PMD and ADR, three for launch
    reduction) runs one lockstep, moving forward one year per fit.  Its
    first record is the recorded data under the zero floor, the spec's
    baseline, labelled ``two-input baseline`` or ``three-input baseline``;
    the others are the scenarios that ``_policy_inputs`` re-forecasts, each
    band restarting the year after the scenario's ``adjust_window_end``.
    The rest take their baseline as their trajectory.  A baseline whose
    final-year debris is 0 raises ValueError naming the first scenario
    scored against it.  ``threads`` is accepted and ignored.
    """
    scenarios = list(scenarios)
    horizon = config.horizon_end
    groups: dict[bool, list] = {}  # three_input: [(index, record, adjust)], baseline first
    for i, scenario in enumerate(scenarios):
        group = groups.setdefault(scenario.kind == "launch_reduction",
                                  [(None, data, _floor_counts)])
        inputs = _policy_inputs(data, scenario, config)
        if inputs is not None:
            group.append((i, *inputs))
    baselines, trajectories = {}, [None] * len(scenarios)
    for three_input in sorted(groups):
        indices, records, adjusts = zip(*groups[three_input])
        labels = [f"{'three' if three_input else 'two'}-input baseline",
                  *(f"scenario {scenarios[i].name!r}" for i in indices[1:])]
        model = config.three_input_config() if three_input else config.two_input_config()
        baselines[three_input], *forecasts = _lockstep(records, config.debris, model, horizon,
                                                       adjusts, labels=labels)
        for i, trajectory in zip(indices[1:], forecasts):
            reset_year = scenarios[i].adjust_window_end(data.end_year) + 1
            trajectories[i] = _reset_band(trajectory, reset_year)
    reports = []
    for scenario, trajectory in zip(scenarios, trajectories):
        baseline = baselines[scenario.kind == "launch_reduction"]
        value = baseline.value_at(horizon)
        if value == 0.0:
            raise ValueError(
                f"scenario {scenario.name!r}: baseline debris forecast for {horizon} is 0, "
                f"so the mitigated share is undefined"
            )
        trajectory = baseline if trajectory is None else trajectory
        final = trajectory.value_at(horizon)
        reports.append(MitigationReport(scenario, final, value, 100.0 * (value - final) / value,
                                        float(trajectory.band_halfwidth[-1]), trajectory))
    return reports


_MODEL_KEYS = {
    "theta": float,
    "lags": int,
    "tau": int,
    "ridge": float,
    "horizon": int,
    "debris": str,
    "launched": str,
    "total": str,
    "three_input_lags": str,
}

_SCENARIO_KEYS = {
    "kind": str,
    "effective_year": int,
    "operational_lifetime": int,
    "pmd_years": int,
    "reduction_fraction": float,
    "adr_per_year": int,
    "compliance": float,
    "adr_cumulative": bool,
    "launch_x_mode": str,
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def load_scenario_file(path) -> tuple[ScenarioModelConfig, list[PolicyScenario]]:
    """Parse a declarative scenario file into model settings plus scenarios.

    Format: ``key = value`` lines; keys before the first ``[section]`` set
    the shared model (theta, lags, tau, ridge, horizon, series names),
    each ``[name]`` section defines one scenario, and its name, which names
    output files, holds no ``/`` or ``\\``.  ``#`` lines are comments.  The
    file is read as UTF-8; a leading byte-order mark is skipped.
    Malformed, unknown or repeated keys (within the model block or one
    section) and repeated sections raise ValueError naming the line.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such scenario file: {path}")
    model_kwargs: dict = {}
    sections: list[tuple[str, dict]] = []
    current: dict | None = None
    with open(path, encoding="utf-8-sig") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if not name:
                    raise ValueError(f"{path}: line {line_no}: empty section name")
                if "/" in name or "\\" in name:  # it names a file under --outdir
                    raise ValueError(f"{path}: line {line_no}: section name {name!r} "
                                     f"must not contain '/' or '\\'")
                if any(name == seen for seen, _ in sections):
                    raise ValueError(f"{path}: line {line_no}: repeated section [{name}]")
                current = {"name": name}
                sections.append((name, current))
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {line_no}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            schema = _MODEL_KEYS if current is None else _SCENARIO_KEYS
            settings = model_kwargs if current is None else current
            if key not in schema:
                raise ValueError(f"{path}: line {line_no}: unknown key {key!r}")
            if key in settings:
                raise ValueError(f"{path}: line {line_no}: repeated key {key!r}")
            caster = schema[key]
            try:
                parsed = _parse_bool(value) if caster is bool else caster(value)
            except ValueError:
                raise ValueError(
                    f"{path}: line {line_no}: bad value {value!r} for key {key!r}"
                ) from None
            settings[key] = parsed

    if "horizon" in model_kwargs:
        model_kwargs["horizon_end"] = model_kwargs.pop("horizon")
    if "three_input_lags" in model_kwargs:
        try:
            lags = tuple(int(p) for p in model_kwargs["three_input_lags"].split(","))
        except ValueError:
            lags = ()
        if len(lags) != 3:
            raise ValueError(f"{path}: three_input_lags needs three comma-separated integers")
        model_kwargs["three_input_lags"] = lags
    config = ScenarioModelConfig(**model_kwargs)

    scenarios = []
    for name, entries in sections:
        if "kind" not in entries:
            raise ValueError(f"{path}: scenario [{name}] is missing 'kind'")
        scenarios.append(PolicyScenario(**entries))
    if not scenarios:
        raise ValueError(f"{path}: no scenario sections found")
    return config, scenarios
