"""cloudforecast: rank cloud regions by predicted DAG-workflow execution time.

Given a workflow specification and a catalog of candidate regions, the
analysis expands the workflow into per-(region, metric) candidate graphs,
scores them by geographic distance, echo latency and HTTP round-trip time,
and emits a ranked report. A bare-bones executor (simulated or live against
stub nodes) validates the rankings. Each name is imported from the module
that defines it, for example `from cloudforecast.scoring import rank_regions`.
"""

from . import candidates, errors, geo, measurement, scoring, workflow

__version__ = "0.1.0"
