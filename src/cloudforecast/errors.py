"""Exception types shared across the package."""


class CloudForecastError(Exception):
    """Base class for all cloudforecast errors."""


class DocumentFormatError(CloudForecastError):
    """A structured-text document is syntactically invalid (position included)."""


class SpecValidationError(CloudForecastError):
    """A workflow or configuration violates a documented invariant."""


class CycleError(SpecValidationError):
    """The edge set contains a directed cycle."""


class UsageError(CloudForecastError):
    """A command line, setting or config file the CLI cannot use."""


class CatalogError(CloudForecastError):
    """A region catalog is malformed (duplicate ids, empty, bad fields)."""


class UnknownLocationError(CloudForecastError):
    """No coordinate is known for an endpoint."""


class MissingMeasurementError(CloudForecastError):
    """Scoring found a candidate edge with no measurement for its pair."""


class NodeUnreachableError(CloudForecastError):
    """Live execution could not reach a workflow node."""

    def __init__(self, node_id: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"node '{node_id}' unreachable{detail}")
        self.node_id = node_id
