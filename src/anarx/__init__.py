"""Online forecasting of non-stationary nonlinear series.

An additive pool of per-lag neo-fuzzy nodes on one B-spline grid,
tuned sample by sample with recursive linear-in-parameter learners,
optionally combined by a convexity-constrained adaptive ensemble. Ships
a benchmarking CLI (``anarx``). The standalone node classes of
:mod:`anarx.nodes`, Wang-Mendel on Gaussian grids included, are a dense
reference; no pool is built of them.
"""

from .combiner import CombinerState
from .errors import AnarxError
from .learning import AdaptiveLearner, KwhLearner, RlsLearner, make_learner
from .membership import (
    GaussianGrid,
    KnotGrid,
    build_gaussian_grid,
    eval_bspline,
    eval_gaussian,
)
from .model import AnarxModel, EvolutionPolicy, build_anarx
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
    "WangMendelNode",
    "build_anarx",
    "build_gaussian_grid",
    "eval_bspline",
    "eval_gaussian",
    "load_csv",
    "make_learner",
    "normalize_minmax",
    "run_experiment",
    "snapshot_load",
    "snapshot_save",
]
