"""The package namespace and what each command imports.

``edmkit`` resolves its public names on first read, so a process loads only
the submodules it uses.  The names, and the object each one is, are pinned
here; so is the set of edmkit modules and numpy that each CLI command loads,
each in a fresh interpreter, so a stray top-level import shows.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edmkit

#: Every public name under the submodule that defines it.
DEFINED_IN = {
    "bundled": ("bundled_path", "load_bundled"),
    "ccm": ("CcmConfig", "CcmDirection", "CcmResult", "convergence_sweep", "cross_map"),
    "embedding": ("EmbeddingError", "EmbeddingLibrary", "EmbeddingSpec", "NeighborSet",
                  "NeighborShortfallError", "delay_embed", "knn", "multivariate_embed",
                  "state_vector"),
    "forecast": ("ForecastResult", "iterative_forecast", "skill_eval"),
    "scenario": ("CURRENT_PMD_YEARS", "MitigationReport", "PolicyScenario",
                 "ScenarioModelConfig", "adr_adjust", "launch_reduction_adjust",
                 "load_scenario_file", "pmd_adjust", "run_scenarios", "simulate"),
    "simplex": ("DimensionSearchResult", "SimplexConfig", "embed_dimension_search",
                "simplex_predict"),
    "smap": ("DEFAULT_THETA_GRID", "SMapConfig", "SMapStep", "ThetaSearchResult",
             "coefficients_to_csv", "interaction_series", "smap_predict", "theta_search"),
    "timeseries": ("UNDEFINED_SKILL", "Dataset", "TimeSeries", "align", "load_csv",
                   "pearson_rho", "rmse", "skill_defined"),
}
ALIASES = {"smap_skill_eval": ("forecast", "skill_eval"),
           "smap_iterative_forecast": ("forecast", "iterative_forecast")}
SOURCES = {**{name: (module, name) for module, names in DEFINED_IN.items() for name in names},
           **ALIASES}


def test_all_names_the_51_public_names():
    assert len(SOURCES) == 51
    assert sorted(edmkit.__all__) == sorted(SOURCES)
    assert set(edmkit.__all__) <= set(dir(edmkit))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_each_name_is_its_modules_object(name):
    module, attribute = SOURCES[name]
    assert getattr(edmkit, name) is getattr(importlib.import_module(f"edmkit.{module}"), attribute)


def test_aliases_star_import_unknown_names_and_submodules():
    assert edmkit.smap_skill_eval is edmkit.forecast.skill_eval
    assert edmkit.smap_iterative_forecast is edmkit.forecast.iterative_forecast
    namespace: dict = {}
    exec("from edmkit import *", namespace)
    assert all(namespace[name] is getattr(edmkit, name) for name in SOURCES)
    with pytest.raises(AttributeError, match="no_such_name"):
        edmkit.no_such_name
    assert not hasattr(edmkit, "no_such_name")
    assert edmkit.smap is sys.modules["edmkit.smap"]


_LOADED = """
import json, sys
import edmkit
code = edmkit.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "numpy" or m.startswith("edmkit."))]))
"""


@pytest.mark.parametrize("argv, loaded", [
    (["version"], ["edmkit.cli"]),
    (["ccm", "--a", "debris", "--b", "total", "--sizes", "10,20", "--samples", "2",
      "--out", "ccm"],
     ["edmkit.bundled", "edmkit.ccm", "edmkit.cli", "edmkit.embedding", "edmkit.timeseries",
      "numpy"]),
    (["embed-search", "--e", "1:3", "--out", "search.csv"],
     ["edmkit.bundled", "edmkit.cli", "edmkit.embedding", "edmkit.forecast", "edmkit.simplex",
      "edmkit.timeseries", "numpy"]),
    (["forecast", "--method", "simplex", "--columns", "debris", "--e", "3", "--to", "2030",
      "--out", "forecast.csv"],
     ["edmkit.bundled", "edmkit.cli", "edmkit.embedding", "edmkit.forecast", "edmkit.simplex",
      "edmkit.timeseries", "numpy"]),
    (["forecast", "--method", "smap", "--columns", "debris,total", "--e", "4", "--theta", "2",
      "--to", "2030", "--out", "forecast.csv"],
     ["edmkit.bundled", "edmkit.cli", "edmkit.embedding", "edmkit.forecast", "edmkit.smap",
      "edmkit.timeseries", "numpy"]),
], ids=["version", "ccm", "embed-search", "forecast-simplex", "forecast-smap"])
def test_each_command_loads_only_its_modules(tmp_path, argv, loaded):
    src = Path(edmkit.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _LOADED, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True)
    code, modules = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert modules == loaded
