"""Tracing of service invocations during co-simulation.

The trace is the co-simulation counterpart of the paper's functional
validation: it records which module invoked which access procedure of which
communication unit, when the call started, when it completed and what value
travelled — enough to regenerate the Figure 5 interaction picture and to
compute per-service latency statistics for the protocol ablation.
"""

import math

from repro.utils.text import format_table


def _percentile(sorted_values, quantile):
    """Nearest-rank percentile of a pre-sorted non-empty sequence."""
    rank = max(1, math.ceil(quantile * len(sorted_values)))
    return sorted_values[rank - 1]


class ServiceCallRecord:
    """One completed (or still pending) service invocation."""

    def __init__(self, caller, service, unit, start_time, args=()):
        self.caller = caller
        self.service = service
        self.unit = unit
        self.start_time = start_time
        self.end_time = None
        self.args = tuple(args)
        self.result = None
        self.steps = 0

    @property
    def completed(self):
        return self.end_time is not None

    @property
    def latency(self):
        """Simulated nanoseconds between call start and completion."""
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self):
        status = f"done@{self.end_time}" if self.completed else "pending"
        return (
            f"ServiceCallRecord({self.caller}->{self.service}@{self.unit}, "
            f"start={self.start_time}, {status})"
        )


class ServiceCallTrace:
    """Collects :class:`ServiceCallRecord` objects for a whole co-simulation."""

    def __init__(self):
        self.records = []
        self._open = {}

    def begin(self, caller, service, unit, time, args=(), *, token):
        """Record one step of an invocation (idempotent while pending).

        *token* distinguishes successive invocations of the same service by
        the same caller: the :class:`~repro.cosim.services.ServiceInstance`
        passes its completed-invocation count, so two back-to-back calls in
        one delta cycle open two records instead of merging into one (which
        would silently skew the latency statistics).
        """
        key = (caller, service, token)
        if key in self._open:
            record = self._open[key]
            record.steps += 1
            return record
        record = ServiceCallRecord(caller, service, unit, time, args)
        record.steps = 1
        self.records.append(record)
        self._open[key] = record
        return record

    def complete(self, caller, service, time, result=None, *, token):
        """Mark the pending invocation of (*caller*, *service*) as completed.

        *token* must match the one passed to :meth:`begin`.
        """
        key = (caller, service, token)
        record = self._open.pop(key, None)
        if record is None:
            return None
        record.end_time = time
        record.result = result
        return record

    # ------------------------------------------------------------------ query

    def completed(self, caller=None, service=None):
        """Completed records, optionally filtered by caller and/or service."""
        out = []
        for record in self.records:
            if not record.completed:
                continue
            if caller is not None and record.caller != caller:
                continue
            if service is not None and record.service != service:
                continue
            out.append(record)
        return out

    def count(self, caller=None, service=None):
        return len(self.completed(caller, service))

    def latency_stats(self, service=None, caller=None):
        """Latency distribution of completed invocations (simulated ns).

        Returns ``{"count", "mean", "p50", "p95", "max"}`` — the mean alone
        hides a slow tail (one saturated channel among many fast ones), so
        the percentiles travel everywhere the mean used to.  ``None`` when
        nothing completed.  Percentiles use the nearest-rank method on the
        sorted latencies, so they are exact observed values.
        """
        latencies = sorted(record.latency
                           for record in self.completed(caller, service))
        if not latencies:
            return None
        return {
            "count": len(latencies),
            "mean": sum(latencies) / len(latencies),
            "p50": _percentile(latencies, 0.50),
            "p95": _percentile(latencies, 0.95),
            "max": latencies[-1],
        }

    def latency_summary(self):
        """Per-service :meth:`latency_stats`, keyed by service name."""
        return {service: self.latency_stats(service=service)
                for service in self.services_seen()}

    # ----------------------------------------------------------- state access

    def capture_state(self):
        """Picklable copy of every record plus the pending-invocation index."""
        records = [
            {
                "caller": record.caller,
                "service": record.service,
                "unit": record.unit,
                "start_time": record.start_time,
                "end_time": record.end_time,
                "args": tuple(record.args),
                "result": record.result,
                "steps": record.steps,
            }
            for record in self.records
        ]
        index = {id(record): position
                 for position, record in enumerate(self.records)}
        open_keys = [(key, index[id(record)])
                     for key, record in self._open.items()]
        return {"records": records, "open": open_keys}

    def restore_state(self, state):
        """Overwrite the trace with a :meth:`capture_state` copy."""
        self.records = []
        for data in state["records"]:
            record = ServiceCallRecord(data["caller"], data["service"],
                                       data["unit"], data["start_time"],
                                       data["args"])
            record.end_time = data["end_time"]
            record.result = data["result"]
            record.steps = data["steps"]
            self.records.append(record)
        self._open = {tuple(key): self.records[position]
                      for key, position in state["open"]}

    def services_seen(self):
        return sorted({record.service for record in self.records})

    def as_table(self):
        """Textual interaction table (the Figure 5 transcript)."""
        rows = [
            (
                record.start_time,
                record.end_time if record.completed else "-",
                record.caller,
                record.service,
                record.unit,
                record.result if record.result is not None else "",
            )
            for record in self.records
        ]
        return format_table(
            ["start (ns)", "end (ns)", "caller", "service", "unit", "result"], rows
        )

    def __len__(self):
        return len(self.records)
