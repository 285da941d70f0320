"""Precision tuning: SQNR metric, type systems, pluggable strategies.

Typical use, strategy API (preferred)::

    from repro.tuning import TuningProblem, V2, resolve_strategy
    problem = TuningProblem.for_precision(app, V2, 1e-1)
    report = resolve_strategy("bisect").solve(problem)
    binding = report.result.storage_binding(V2)

or driving a search class directly::

    from repro.tuning import DistributedSearch, V2, precision_to_sqnr_db
    search = DistributedSearch(app, V2, precision_to_sqnr_db(1e-1))
    result = search.tune()
    binding = result.storage_binding(V2)
"""

from .anneal import AnnealingSearch
from .api import (
    DEFAULT_STRATEGY,
    AnnealingStrategy,
    BisectionStrategy,
    CastAwareStrategy,
    GreedyStrategy,
    TuningProblem,
    TuningReport,
    TuningStrategy,
    register_strategy,
    registered_name,
    resolve_strategy,
    strategy_names,
)
from .bisect import BisectionSearch
from .castaware import CastAwareSearch, estimate_cost_pj
from .mapping import (
    MAX_PRECISION_BITS,
    V1,
    V2,
    V2_NO8,
    TypeSystem,
    register_type_system,
    type_system,
    type_system_names,
)
from .refine import refine
from .search import (
    BudgetExceededError,
    DistributedSearch,
    InfeasibleError,
    TuningResult,
)
from .sqnr import (
    PRECISION_LEVELS,
    meets_target,
    precision_to_sqnr_db,
    sqnr_db,
)
from .variables import (
    TunableProgram,
    VarSpec,
    baseline_binding,
    uniform_binding,
)

__all__ = [
    "DEFAULT_STRATEGY",
    "TuningProblem",
    "TuningReport",
    "TuningStrategy",
    "GreedyStrategy",
    "BisectionStrategy",
    "CastAwareStrategy",
    "AnnealingStrategy",
    "register_strategy",
    "registered_name",
    "resolve_strategy",
    "strategy_names",
    "AnnealingSearch",
    "BisectionSearch",
    "BudgetExceededError",
    "CastAwareSearch",
    "estimate_cost_pj",
    "TypeSystem",
    "V1",
    "V2",
    "V2_NO8",
    "MAX_PRECISION_BITS",
    "register_type_system",
    "type_system",
    "type_system_names",
    "DistributedSearch",
    "TuningResult",
    "InfeasibleError",
    "refine",
    "sqnr_db",
    "meets_target",
    "precision_to_sqnr_db",
    "PRECISION_LEVELS",
    "VarSpec",
    "TunableProgram",
    "baseline_binding",
    "uniform_binding",
]
