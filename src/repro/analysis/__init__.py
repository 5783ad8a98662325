"""Evaluation and back-annotation helpers (the paper's stated future work).

The paper closes with "future work consists of developing tools for
evaluation and back-annotation with the results of co-synthesis tools"; this
package provides exactly that layer on top of the flow:

* :mod:`repro.analysis.metrics` — traffic/latency statistics extracted from
  co-simulation traces,
* :mod:`repro.analysis.timing` — real-time constraint checking over recorded
  waveforms,
* :mod:`repro.analysis.back_annotation` — turning co-synthesis estimates into
  simulation parameters for platform-timed re-simulation.
"""

from repro.analysis.metrics import (
    interface_traffic,
    latency_table,
    service_boundary_words,
    static_boundary_traffic,
)
from repro.analysis.timing import (
    PulseTimingReport,
    check_pulse_timing,
    ResponseLatencyReport,
    check_response_latency,
)
from repro.analysis.back_annotation import BackAnnotation, back_annotate

__all__ = [
    "latency_table",
    "interface_traffic",
    "service_boundary_words",
    "static_boundary_traffic",
    "PulseTimingReport",
    "check_pulse_timing",
    "ResponseLatencyReport",
    "check_response_latency",
    "BackAnnotation",
    "back_annotate",
]
