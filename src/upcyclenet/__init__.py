"""Multi-period facility location and flow optimization for plastic
waste upcycling networks.

The network has six stages: waste sources ship to collection facilities,
then to recovery and treatment facilities, then to chemical processing
facilities, then to downstream processing facilities, and finally to
sinks that buy the products.  The package builds the mixed integer
program for that chain (where to open facilities, at which size, and how
material flows in each period), writes it as MPS for any external solver,
verifies and reports on solutions, and solves small instances exactly
with a built-in enumeration oracle.
"""

from .errors import (
    InstanceError,
    ModelError,
    NamingError,
    OracleError,
    ReportError,
    SimplexIterationError,
    SolutionError,
    SolverRunError,
    UpcycleNetError,
)
from .geo import build_leg_matrices, haversine_km, node_distance_km
from .instance import (
    ECHELON_TAGS,
    LEGS,
    EchelonSpec,
    Finding,
    Instance,
    Node,
    Sink,
    SizeOption,
    Source,
    TimePeriod,
    errors_only,
    parse_instance,
    sanitize_id,
    serialize_instance,
    validate_instance,
)
from .model import (
    Model,
    Row,
    RowBlock,
    VariableIndex,
    build_milp,
    count_columns,
    count_rows,
    flow_column_name,
    install_column_name,
)
from .model_io import (
    Solution,
    VerificationReport,
    compute_gap,
    dump_model,
    format_solution,
    parse_solution,
    recompute_objective,
    run_external_solver,
    solution_vector,
    verify_solution,
    write_mps,
)
from .oracle import (
    OracleCertificate,
    count_configurations,
    describe_configuration,
    solve_exact,
)
from .reporting import (
    CostBreakdown,
    FlowTable,
    LayoutExport,
    breakdown_costs,
    compute_utilization,
    export_flows,
    export_layout,
)
from .scenario import GenSpec, SizeLadder, generate, make_tiny_suite, single_chain_instance
from .simplex import LpResult, solve_lp

__version__ = "0.1.0"

__all__ = [
    "UpcycleNetError",
    "InstanceError",
    "ModelError",
    "NamingError",
    "SolutionError",
    "SolverRunError",
    "OracleError",
    "SimplexIterationError",
    "ReportError",
    "haversine_km",
    "node_distance_km",
    "build_leg_matrices",
    "Node",
    "TimePeriod",
    "SizeOption",
    "EchelonSpec",
    "Source",
    "Sink",
    "Instance",
    "Finding",
    "ECHELON_TAGS",
    "LEGS",
    "sanitize_id",
    "parse_instance",
    "serialize_instance",
    "validate_instance",
    "errors_only",
    "Model",
    "Row",
    "RowBlock",
    "VariableIndex",
    "build_milp",
    "count_columns",
    "count_rows",
    "dump_model",
    "flow_column_name",
    "install_column_name",
    "Solution",
    "VerificationReport",
    "compute_gap",
    "write_mps",
    "parse_solution",
    "format_solution",
    "solution_vector",
    "recompute_objective",
    "verify_solution",
    "run_external_solver",
    "OracleCertificate",
    "count_configurations",
    "describe_configuration",
    "solve_exact",
    "LpResult",
    "solve_lp",
    "GenSpec",
    "SizeLadder",
    "generate",
    "single_chain_instance",
    "make_tiny_suite",
    "CostBreakdown",
    "FlowTable",
    "LayoutExport",
    "breakdown_costs",
    "export_flows",
    "export_layout",
    "compute_utilization",
]
