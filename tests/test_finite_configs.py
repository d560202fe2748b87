"""Configs reject NaN and infinite settings with an error naming the field.

NaN passes every ``x < 0`` range check, so without these checks a NaN ridge
fit silently without a ridge and a NaN theta surfaced as a bare
"SVD did not converge" from numpy.
"""

import re

import pytest

import numpy as np

from edmkit.bundled import load_bundled
from edmkit.ccm import CcmConfig
from edmkit.cli import main
from edmkit.embedding import EmbeddingLibrary, EmbeddingSpec, knn
from edmkit.forecast import iterative_forecast, skill_eval
from edmkit.scenario import PolicyScenario, ScenarioModelConfig
from edmkit.simplex import SimplexConfig, embed_dimension_search
from edmkit.smap import SMapConfig, theta_search
from edmkit.timeseries import TimeSeries

NAN = float("nan")
INF = float("inf")
SPEC = EmbeddingSpec((("debris", 2), ("total", 2)))
FORECAST = ["forecast", "--method", "smap", "--columns", "debris,total", "--e", "4",
            "--theta", "2", "--to", "2030"]

# field -> (constructor call, expected message)
API_CASES = {
    "SMapConfig.theta": (lambda: SMapConfig(SPEC, NAN), "theta must be finite, got nan"),
    "SMapConfig.theta_inf": (lambda: SMapConfig(SPEC, INF), "theta must be finite, got inf"),
    "SMapConfig.ridge": (lambda: SMapConfig(SPEC, 2.0, ridge=NAN),
                         "ridge must be finite, got nan"),
    "CcmConfig.convergence_margin": (
        lambda: CcmConfig(2, (10, 20), convergence_margin=NAN),
        "convergence_margin must be finite, got nan"),
    "CcmConfig.plateau_tolerance": (
        lambda: CcmConfig(2, (10, 20), plateau_tolerance=INF),
        "plateau_tolerance must be finite, got inf"),
    "PolicyScenario.pmd_years": (lambda: PolicyScenario("pmd", pmd_years=NAN),
                                 "pmd_years must be finite, got nan"),
    "PolicyScenario.reduction_fraction": (
        lambda: PolicyScenario("launch_reduction", reduction_fraction=NAN),
        "reduction_fraction must be finite, got nan"),
    "PolicyScenario.adr_per_year": (lambda: PolicyScenario("adr", adr_per_year=INF),
                                    "adr_per_year must be finite, got inf"),
    "PolicyScenario.compliance": (lambda: PolicyScenario("adr", adr_per_year=1, compliance=NAN),
                                  "compliance must be finite, got nan"),
    "PolicyScenario.effective_year": (
        lambda: PolicyScenario("adr", adr_per_year=1, effective_year=NAN),
        "effective_year must be finite, got nan"),
    "PolicyScenario.operational_lifetime": (
        lambda: PolicyScenario("pmd", pmd_years=5, operational_lifetime=NAN),
        "operational_lifetime must be finite, got nan"),
    "ScenarioModelConfig.theta": (lambda: ScenarioModelConfig(theta=NAN),
                                  "theta must be finite, got nan"),
    "ScenarioModelConfig.ridge": (lambda: ScenarioModelConfig(ridge=INF),
                                  "ridge must be finite, got inf"),
    # used to fail in int() with "cannot convert float NaN to integer"
    "TimeSeries.start_year": (lambda: TimeSeries("x", NAN, (1.0, 2.0)),
                              "start_year must be a whole number, got nan"),
    "TimeSeries.start_year_text": (lambda: TimeSeries("x", "1990", (1.0, 2.0)),
                                   "start_year must be a whole number, got '1990'"),
    "CcmConfig.dimension_text": (lambda: CcmConfig("2", (10, 20)),
                                 "dimension must be a whole number, got '2'"),
}


@pytest.mark.parametrize("case", sorted(API_CASES))
def test_config_rejects_non_finite_field(case):
    call, message = API_CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# the field as the CLI reaches it: (argv tail, scenario file text or None, message)
CLI_CASES = {
    "forecast_ridge": (["--ridge", "nan"], None, "ridge must be finite, got nan"),
    "forecast_theta": (["--theta", "nan"], None, "theta must be finite, got nan"),
    "forecast_theta_inf": (["--theta", "inf"], None, "theta must be finite, got inf"),
    "scenario_model_theta": (None, "theta = nan\n[s]\nkind = adr\nadr_per_year = 1\n",
                             "theta must be finite, got nan"),
    "scenario_model_ridge": (None, "ridge = nan\n[s]\nkind = adr\nadr_per_year = 1\n",
                             "ridge must be finite, got nan"),
    "scenario_reduction_fraction": (
        None, "[s]\nkind = launch_reduction\nreduction_fraction = nan\n",
        "reduction_fraction must be finite, got nan"),
    "scenario_compliance": (None, "[s]\nkind = adr\nadr_per_year = 1\ncompliance = nan\n",
                            "compliance must be finite, got nan"),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_rejects_non_finite_field(case, tmp_path, capsys):
    tail, scenario_text, message = CLI_CASES[case]
    if scenario_text is None:
        argv = [*FORECAST, *tail, "--out", str(tmp_path / "forecast.csv")]
    else:
        scenarios = tmp_path / "s.cfg"
        scenarios.write_text(scenario_text, encoding="utf-8")
        argv = ["simulate", "--scenarios", str(scenarios), "--outdir", str(tmp_path / "r")]
    assert main(argv) == 2  # on the bundled record
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.glob("forecast*")) and not (tmp_path / "r").exists()


# field -> (constructor of one value, a whole value, reader of the stored field)
WHOLE_CASES = {
    "PolicyScenario.pmd_years": (lambda v: PolicyScenario("pmd", pmd_years=v), 5,
                                 lambda c: c.pmd_years),
    "PolicyScenario.operational_lifetime": (
        lambda v: PolicyScenario("pmd", pmd_years=5, operational_lifetime=v), 2,
        lambda c: c.operational_lifetime),
    "PolicyScenario.effective_year": (
        lambda v: PolicyScenario("adr", adr_per_year=1, effective_year=v), 2000,
        lambda c: c.effective_year),
    "PolicyScenario.adr_per_year": (lambda v: PolicyScenario("adr", adr_per_year=v), 100,
                                    lambda c: c.adr_per_year),
    "SimplexConfig.k": (lambda v: SimplexConfig(SPEC, k=v), 2, lambda c: c.k),
    "CcmConfig.dimension": (lambda v: CcmConfig(v, (10, 20)), 3, lambda c: c.dimension),
    "CcmConfig.tau": (lambda v: CcmConfig(2, (10, 20), tau=v), 1, lambda c: c.tau),
    "CcmConfig.samples_per_size": (lambda v: CcmConfig(2, (10, 20), samples_per_size=v), 2,
                                   lambda c: c.samples_per_size),
    "CcmConfig.seed": (lambda v: CcmConfig(2, (10, 20), seed=v), 1, lambda c: c.seed),
    "CcmConfig.library_sizes": (lambda v: CcmConfig(2, (v, 20)), 10,
                                lambda c: c.library_sizes[0]),
    "CcmConfig.exclusion_radius": (lambda v: CcmConfig(2, (10, 20), exclusion_radius=v), 1,
                                   lambda c: c.exclusion_radius),
    "EmbeddingSpec.lag count for 'debris'": (lambda v: EmbeddingSpec((("debris", v),)), 2,
                                             lambda c: c.columns[0][1]),
    "EmbeddingSpec.exclusion_radius": (
        lambda v: EmbeddingSpec((("debris", 2),), exclusion_radius=v), 1,
        lambda c: c.exclusion_radius),
    "ScenarioModelConfig.horizon_end": (lambda v: ScenarioModelConfig(horizon_end=v), 2030,
                                        lambda c: c.horizon_end),
    "ScenarioModelConfig.lags": (lambda v: ScenarioModelConfig(lags=v), 2, lambda c: c.lags),
    "TimeSeries.start_year": (lambda v: TimeSeries("x", v, (1.0, 2.0)), 1990,
                              lambda c: c.start_year),
}


@pytest.mark.parametrize("case", sorted(WHOLE_CASES))
def test_integer_field_rejects_a_fraction_and_stores_a_whole_float_as_int(case):
    # a fraction used to end in a numpy IndexError or TypeError, or be truncated
    build, whole, read = WHOLE_CASES[case]
    field = case.partition(".")[2]
    message = f"{field} must be a whole number, got {whole + 0.5!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(whole + 0.5)
    stored = read(build(float(whole)))
    assert stored == whole and type(stored) is int


# field -> (constructor of one value, reader of the stored field)
FLAG_CASES = {
    "CcmConfig.replacement": (lambda v: CcmConfig(2, (10, 20), replacement=v),
                              lambda c: c.replacement),
    "EmbeddingSpec.normalize": (lambda v: EmbeddingSpec((("debris", 2),), normalize=v),
                                lambda c: c.normalize),
    "PolicyScenario.adr_cumulative": (
        lambda v: PolicyScenario("adr", adr_per_year=100, adr_cumulative=v),
        lambda c: c.adr_cumulative),
}


@pytest.mark.parametrize("value", ["no", "False", "", 0, 1, 1.0, None])
@pytest.mark.parametrize("case", sorted(FLAG_CASES))
def test_boolean_field_rejects_a_non_bool_and_stores_a_bool(case, value):
    # "no" used to be truthy: a config drew with replacement, a spec normalized,
    # an ADR scenario removed objects cumulatively
    build, read = FLAG_CASES[case]
    field = case.partition(".")[2]
    message = f"{field} must be True or False, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)
    for flag in (True, False, np.True_, np.False_):
        assert read(build(flag)) is bool(flag)


DEBRIS = EmbeddingSpec.univariate("debris", 3)
LIBRARY = EmbeddingLibrary(EmbeddingSpec.univariate("q", 2, exclusion_radius=0), "q", 0,
                           np.arange(4), np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0], [5.0, 5.0]]),
                           np.zeros(4))

# argument -> (call with the argument on the bundled record, a whole value)
WHOLE_ARGUMENTS = {
    "embed_dimension_search.dimension": (
        lambda data, v: embed_dimension_search(data, "debris", [v], train_end=1990), 2),
    "embed_dimension_search.train_end": (
        lambda data, v: embed_dimension_search(data, "debris", [2], train_end=v), 1990),
    "knn.k": (lambda data, v: knn(LIBRARY, (10, [0.0, 0.0]), v), 2),
    "skill_eval.train_end": (
        lambda data, v: skill_eval(data, "debris", SimplexConfig(DEBRIS), v), 1990),
    "skill_eval.eval_start": (
        lambda data, v: skill_eval(data, "debris", SimplexConfig(DEBRIS), 1990, eval_start=v),
        1995),
    "skill_eval.eval_end": (
        lambda data, v: skill_eval(data, "debris", SimplexConfig(DEBRIS), 1990, eval_end=v),
        2010),
    "theta_search.eval_start": (
        lambda data, v: theta_search(data, "debris", DEBRIS, (0.0, 1.0), train_end=1990,
                                     eval_start=v), 2000),
    "iterative_forecast.horizon_end": (
        lambda data, v: iterative_forecast(data, "debris", SimplexConfig(DEBRIS), v), 2030),
}


@pytest.mark.parametrize("case", sorted(WHOLE_ARGUMENTS))
def test_integer_argument_rejects_a_fraction_and_accepts_a_whole_float(case):
    # a fraction used to be truncated, or end in a numpy IndexError or TypeError
    call, whole = WHOLE_ARGUMENTS[case]
    data = load_bundled()
    field = case.partition(".")[2]
    message = f"{field} must be a whole number, got {whole + 0.5!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(data, whole + 0.5)
    assert repr(call(data, float(whole))) == repr(call(data, whole))


HUGE = 10**400  # beyond the float range, where math.isfinite raises OverflowError


@pytest.mark.parametrize("field", ["adr_per_year", "effective_year", "operational_lifetime",
                                   "pmd_years"])
def test_oversized_integer_is_rejected_by_name(field, tmp_path, capsys):
    kind = "pmd" if field == "pmd_years" else "adr"
    fields = {"pmd_years": 5} if kind == "pmd" else {"adr_per_year": 1}
    fields[field] = HUGE
    message = f"{field} is too large, got an integer of {HUGE.bit_length()} bits"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PolicyScenario(kind, **fields)
    scenarios = tmp_path / "s.cfg"
    scenarios.write_text(f"[s]\nkind = {kind}\n"
                         + "".join(f"{key} = {value}\n" for key, value in fields.items()),
                         encoding="utf-8")
    argv = ["simulate", "--scenarios", str(scenarios), "--outdir", str(tmp_path / "r")]
    assert main(argv) == 2  # on the bundled record
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r").exists()
