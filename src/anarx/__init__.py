"""Online forecasting of non-stationary nonlinear series.

An additive pool of per-lag fuzzy nodes (B-spline or Gaussian
memberships), tuned sample by sample with recursive linear-in-parameter
learners, optionally combined by a convexity-constrained adaptive
ensemble. Ships a benchmarking CLI (``anarx``).
"""

from .combiner import CombinerState, ErrorCorrelation, batch_solve
from .errors import AnarxError
from .learning import AdaptiveLearner, KwhLearner, RlsLearner, make_learner
from .membership import (
    GaussianGrid,
    KnotGrid,
    build_gaussian_grid,
    build_uniform_grid,
    eval_bspline,
    eval_gaussian,
)
from .model import (
    AnarxModel,
    DelayLine,
    EvolutionPolicy,
    StepReport,
    StructureChange,
    build_anarx,
)
from .nodes import NeoFuzzyNode, WangMendelNode
from .pipeline import (
    ForecastReport,
    OnlineForecaster,
    RunConfig,
    SeriesFrame,
    load_csv,
    normalize_minmax,
    run_experiment,
)
from .snapshot import snapshot_load, snapshot_save

__version__ = "0.1.0"

__all__ = [
    "AdaptiveLearner",
    "AnarxError",
    "AnarxModel",
    "CombinerState",
    "DelayLine",
    "ErrorCorrelation",
    "EvolutionPolicy",
    "ForecastReport",
    "GaussianGrid",
    "KnotGrid",
    "KwhLearner",
    "NeoFuzzyNode",
    "OnlineForecaster",
    "RlsLearner",
    "RunConfig",
    "SeriesFrame",
    "StepReport",
    "StructureChange",
    "WangMendelNode",
    "batch_solve",
    "build_anarx",
    "build_gaussian_grid",
    "build_uniform_grid",
    "eval_bspline",
    "eval_gaussian",
    "load_csv",
    "make_learner",
    "normalize_minmax",
    "run_experiment",
    "snapshot_load",
    "snapshot_save",
]
