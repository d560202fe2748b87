"""Empirical dynamic modeling toolkit.

Delay-coordinate reconstruction, simplex projection, S-map locally weighted
regression, convergent cross mapping, and mitigation-policy simulation for
yearly count data, with a reproducible command line front end.
"""

from .bundled import bundled_path, load_bundled
from .ccm import CcmConfig, CcmDirection, CcmResult, convergence_sweep, cross_map
from .embedding import (
    EmbeddingError,
    EmbeddingLibrary,
    EmbeddingSpec,
    NeighborSet,
    NeighborShortfallError,
    delay_embed,
    knn,
    multivariate_embed,
    state_vector,
)
from .forecast import ForecastResult, iterative_forecast, skill_eval
from .forecast import iterative_forecast as smap_iterative_forecast
from .forecast import skill_eval as smap_skill_eval
from .scenario import (
    CURRENT_PMD_YEARS,
    MitigationReport,
    PolicyScenario,
    ScenarioModelConfig,
    adr_adjust,
    launch_reduction_adjust,
    load_scenario_file,
    pmd_adjust,
    run_scenarios,
    simulate,
)
from .simplex import (
    DimensionSearchResult,
    SimplexConfig,
    embed_dimension_search,
    simplex_predict,
)
from .smap import (
    DEFAULT_THETA_GRID,
    SMapConfig,
    SMapStep,
    ThetaSearchResult,
    coefficients_to_csv,
    interaction_series,
    smap_predict,
    theta_search,
)
from .timeseries import (
    UNDEFINED_SKILL,
    Dataset,
    TimeSeries,
    align,
    load_csv,
    pearson_rho,
    rmse,
    skill_defined,
)

__version__ = "0.2.0"
