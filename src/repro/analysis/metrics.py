"""Statistics over co-simulation traces."""

from repro.utils.text import format_table


def latency_table(summary):
    """Render a :meth:`~repro.cosim.tracing.ServiceCallTrace.latency_summary`
    as a text table, one row per service; a service with no completed
    call shows ``-``."""
    rows = []
    for service, stats in sorted(summary.items()):
        if stats is None:
            rows.append((service, 0, "-", "-", "-", "-"))
        else:
            rows.append((service, stats["count"], round(stats["mean"], 1),
                         stats["p50"], stats["p95"], stats["max"]))
    return format_table(["service", "calls", "mean (ns)", "p50 (ns)",
                         "p95 (ns)", "max (ns)"], rows)


def service_boundary_words(service):
    """Bus words one invocation of *service* touches (static estimate):
    each port its access procedure uses, once, floor one word."""
    return max(1, len(service.ports_used()))


def static_boundary_traffic(model, software_names=None):
    """Per-(module, service) bus-word estimate of the SW/HW boundary traffic.

    Where :func:`interface_traffic` counts completed transfers in a recorded
    co-simulation trace, this is the *static* counterpart used by the DSE
    cost model: every service call issued by a software module crosses the
    communication binding, touching each port its access procedure uses once
    per invocation.  Returns ``{(module, service): port_touches}``.

    *software_names* overrides the modules considered software — the DSE
    explorer passes a candidate placement without rebuilding the model.
    """
    if software_names is None:
        software_names = [m.name for m in model.software_modules()]
    traffic = {}
    for name in sorted(software_names):
        module = model.module(name)
        for service_name in module.services_used():
            unit = model.unit_for(name, service_name)
            service = unit.service(service_name)
            traffic[(name, service_name)] = service_boundary_words(service)
    return traffic


def interface_traffic(trace, unit_name=None):
    """Number of completed transfers per (caller, service) pair.

    When *unit_name* is given only calls through that communication unit are
    counted — this is the SW/HW interface traffic figure of the prototype
    analysis.
    """
    counts = {}
    for record in trace.completed():
        if unit_name is not None and record.unit != unit_name:
            continue
        key = (record.caller, record.service)
        counts[key] = counts.get(key, 0) + 1
    return counts
