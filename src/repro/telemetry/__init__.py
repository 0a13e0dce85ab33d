"""Gateway observability: metrics registry, provenance, structured logs.

The pipeline-wide default is one process-global :class:`MetricsRegistry`
(:func:`get_registry`) — every component falls back to it when not handed
an explicit registry, so ``repro stream --metrics-out`` sees the whole
pipeline in one snapshot.  Pass :data:`NULL_REGISTRY` (or a private
``MetricsRegistry``) to a component to opt out or isolate.

Real-time stages are timed once, by the streamed path: each backend
observes its ``dice_stage_seconds{stage}`` histogram children, looked up
when the backend is built, once per window.
"""

from __future__ import annotations

from typing import Optional

from .log import (
    HUMAN_FORMAT,
    JSON_FORMAT,
    LEVELS,
    LogConfig,
    TelemetryLogger,
    configure,
    current_config,
    get_logger,
)
from .prometheus import to_prometheus, validate_prometheus_text
from .provenance import (
    NULL_PROVENANCE,
    PROVENANCE_SCHEMA,
    ProvenanceRecorder,
    alert_body,
    render_explanation,
    trace_id,
)
from .registry import (
    DEFAULT_SECONDS_BUCKETS,
    NULL_REGISTRY,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    counter_total,
    histogram_quantile,
    merge_many,
    merge_snapshots,
)

_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every component defaults to."""
    return _default_registry


def resolve(metrics: Optional[MetricsRegistry]) -> MetricsRegistry:
    """``None`` → the global registry; anything else passes through."""
    return _default_registry if metrics is None else metrics


__all__ = [
    "DEFAULT_SECONDS_BUCKETS",
    "HUMAN_FORMAT",
    "JSON_FORMAT",
    "LEVELS",
    "LogConfig",
    "MetricsRegistry",
    "NULL_PROVENANCE",
    "NULL_REGISTRY",
    "PROVENANCE_SCHEMA",
    "ProvenanceRecorder",
    "SNAPSHOT_SCHEMA",
    "TelemetryLogger",
    "alert_body",
    "configure",
    "counter_total",
    "current_config",
    "get_logger",
    "get_registry",
    "histogram_quantile",
    "merge_many",
    "merge_snapshots",
    "render_explanation",
    "resolve",
    "to_prometheus",
    "trace_id",
    "validate_prometheus_text",
]
