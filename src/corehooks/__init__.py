"""corehooks: exact hook-length statistics of t-core partitions.

Enumeration of partitions and t-cores (streaming, deterministic),
hook-count tables and bias verdicts, exact q-series oracles for the
counting functions, structural condition checks, and the ternary
quadratic form argument behind the triangular-number lower bound -- all
in exact integer arithmetic, with a CLI (`corehooks`) on top.
"""

from .generate import (
    EMPTY_FILTER,
    PartFilter,
    count_t_cores,
    partitions_of,
    t_cores_of,
    t_cores_up_to,
)
from .hookstats import (
    FAILS,
    HOLDS,
    NOT_APPLICABLE,
    BiasRecord,
    bias_table,
    cross_core_bias_table,
    hook_count_table,
    total_hook_count,
)
from .partition import Cell, Partition
from .qseries import (
    TruncatedSeries,
    core_count_series,
    triangular_indicator_series,
    triple_triangular_series,
    verify_identity,
)
from .quadform import (
    OddRepresentation,
    check_triangular_4core_pair,
    is_dickson_excluded,
    odd_representation,
    representable_flags,
)
from .verify import (
    CheckResult,
    ConditionReport,
    RegionWitness,
    check_2core_ladder,
    check_3core_conditions,
    check_4core_conditions,
    check_restricted_4core_formula,
    region_theorem_scan,
    run_check,
    scan_bias_chain,
    scan_conjecture_5core,
)

__version__ = "0.1.0"
