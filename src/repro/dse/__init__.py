"""Design-space exploration over (t, d, p, m)-way 3D parallelism."""

from repro.dse.cache import PredictionCache, fingerprint
from repro.dse.explorer import DesignPoint, DesignSpaceExplorer, DSEResult
from repro.dse.report import load_csv, save_csv, to_csv, to_markdown
from repro.dse.space import (GridAxes, SearchSpace, count_plans, divisors,
                             enumerate_plans, pipeline_candidates,
                             powers_of_two, tensor_candidates)

__all__ = [
    "PredictionCache",
    "fingerprint",
    "load_csv",
    "save_csv",
    "to_csv",
    "to_markdown",
    "DesignPoint",
    "DesignSpaceExplorer",
    "DSEResult",
    "GridAxes",
    "SearchSpace",
    "count_plans",
    "divisors",
    "enumerate_plans",
    "pipeline_candidates",
    "powers_of_two",
    "tensor_candidates",
]
