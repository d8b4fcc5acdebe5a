"""Bilateral research-leadership metrics and parity-year forecasting.

The package turns a publication corpus plus author contribution
statements into three bilateral metrics per region pair and year (lead
share, supporter share, lead premium) and extrapolates each series to
the year the pair reaches parity, with a confidence interval.
"""

from .config import PipelineConfig, load_config
from .errors import (
    ConfigError,
    DataError,
    LeadshareError,
    NumericError,
)
from .features import LeadFeatureVector, build_profiles
from .forecast import (
    ParityForecast,
    RegressionFit,
    confidence_band,
    forecast_series,
    ols_fit,
    parity_year,
)
from .leadmodel import LinearLeadModel, classify, fit, predict
from .metrics import (
    FilterSpec,
    PairYearCounts,
    RegionSeries,
    aggregate,
    build_series,
    lead_premium,
    lead_share,
    supporter_share,
)
from .pipeline import run_all, run_stage, run_sweep
from .records import ContributionRecord, CorpusTable, PublicationRecord
from .roles import (
    RoleClusterModel,
    cluster_roles,
    fractional_lead_value,
    label_clusters,
)
from .tables import load_bri_classification, load_region_map, load_topic_map

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContributionRecord",
    "CorpusTable",
    "DataError",
    "FilterSpec",
    "LeadFeatureVector",
    "LeadshareError",
    "LinearLeadModel",
    "NumericError",
    "PairYearCounts",
    "ParityForecast",
    "PipelineConfig",
    "PublicationRecord",
    "RegionSeries",
    "RegressionFit",
    "RoleClusterModel",
    "aggregate",
    "build_profiles",
    "build_series",
    "classify",
    "cluster_roles",
    "confidence_band",
    "fit",
    "forecast_series",
    "fractional_lead_value",
    "label_clusters",
    "lead_premium",
    "lead_share",
    "load_bri_classification",
    "load_config",
    "load_region_map",
    "load_topic_map",
    "ols_fit",
    "parity_year",
    "predict",
    "run_all",
    "run_stage",
    "run_sweep",
    "supporter_share",
    "__version__",
]
