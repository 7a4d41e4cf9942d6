"""cloudforecast: rank cloud regions by predicted DAG-workflow execution time.

Given a workflow specification and a catalog of candidate regions, the
analysis expands the workflow into per-(region, metric) candidate graphs,
scores them by geographic distance, echo latency and HTTP round-trip time,
and emits a ranked report. A bare-bones executor (simulated or live against
stub nodes) validates the rankings.
"""

from .candidates import (
    CandidateEdge,
    CandidateGraph,
    Leg,
    Metric,
    build_candidate_graph,
    dump_graph,
    enumerate_candidates,
    measurement_pairs,
)
from .errors import (
    CatalogError,
    CloudForecastError,
    CycleError,
    DocumentFormatError,
    MissingMeasurementError,
    NodeUnreachableError,
    SpecValidationError,
    UnknownLocationError,
)
from .executor import (
    ExecutionResult,
    ExperimentReport,
    ExperimentRow,
    Transport,
    Vantage,
    live_execute,
    run_experiment,
    simulate_execution,
    speedup_percent,
)
from .geo import (
    Coordinate,
    LocationTable,
    Region,
    RegionCatalog,
    default_region_catalog,
    haversine_km,
    load_region_catalog,
    resolve_location,
)
from .measurement import (
    Aggregator,
    AgentClient,
    EchoProber,
    Measurement,
    MeasurementStore,
    ProbeConfig,
    SyntheticNetworkModel,
    location_index,
    measure_distance,
    measure_http_rtt,
    measure_latency,
    synthetic_measure,
)
from .scoring import (
    GraphScore,
    RankingEntry,
    RankingReport,
    ScoringConfig,
    final_score,
    rank_regions,
    render_report,
    score_graph,
    shortlist_by_distance,
)
from .workflow import (
    NodeRole,
    WorkflowEdge,
    WorkflowNode,
    WorkflowPattern,
    WorkflowSpec,
    default_node_pool,
    generate_random_workflow,
    parse_workflow,
    render_workflow,
    topological_order,
    validate_dag,
)

__version__ = "0.1.0"
