"""Empirical dynamic modeling toolkit.

Delay-coordinate reconstruction, simplex projection, S-map locally weighted
regression, convergent cross mapping, and mitigation-policy simulation for
yearly count data, with a reproducible command line front end.

Each public name is imported from its submodule when first read (PEP 562), so
``import edmkit`` loads neither numpy nor any submodule.
"""

import importlib

__version__ = "0.2.0"

#: Every public name and the (submodule, attribute) that defines it; the two
#: ``smap_*`` names are aliases of ``forecast``'s entry points.
_SOURCES = {name: (module, name) for module, names in {
    "bundled": "bundled_path load_bundled",
    "ccm": "CcmConfig CcmDirection CcmResult convergence_sweep cross_map",
    "embedding": "EmbeddingError EmbeddingLibrary EmbeddingSpec NeighborSet NeighborShortfallError "
                 "delay_embed knn multivariate_embed state_vector",
    "forecast": "ForecastResult iterative_forecast skill_eval",
    "scenario": "CURRENT_PMD_YEARS MitigationReport PolicyScenario ScenarioModelConfig adr_adjust "
                "launch_reduction_adjust load_scenario_file pmd_adjust run_scenarios simulate",
    "simplex": "DimensionSearchResult SimplexConfig embed_dimension_search simplex_predict",
    "smap": "DEFAULT_THETA_GRID SMapConfig SMapStep ThetaSearchResult coefficients_to_csv "
            "interaction_series smap_predict theta_search",
    "timeseries": "UNDEFINED_SKILL Dataset TimeSeries align load_csv pearson_rho rmse skill_defined",
}.items() for name in names.split()}
_SOURCES.update(smap_skill_eval=("forecast", "skill_eval"),
                smap_iterative_forecast=("forecast", "iterative_forecast"))
_SUBMODULES = frozenset({"cli", *(module for module, _ in _SOURCES.values())})

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    """Import a submodule by name, or a public name's submodule, caching the value here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _SOURCES[name]
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), attribute)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
