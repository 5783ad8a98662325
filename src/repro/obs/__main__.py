"""Telemetry artefact CLI: summarise, convert, diff, smoke-check.

Usage::

    python -m repro.obs summary obs.json          # human-readable digest
    python -m repro.obs convert obs.json --to chrome -o trace.json
    python -m repro.obs convert obs.json --to prometheus
    python -m repro.obs diff before.json after.json
    python -m repro.obs selfcheck [--quick]       # CI obs-smoke entry

An *artefact* is the JSON file :meth:`repro.obs.Telemetry.write` produces
(``--obs-out`` on ``python -m repro.sweep``, or any direct caller).

``selfcheck`` is the end-to-end smoke: it enables telemetry, runs a small
scenario sweep through :class:`~repro.sweep.service.SweepService`, exports
the artefact, then proves the two exposition paths — the Chrome
trace-event JSON passes the importer-shaped schema check
(:func:`~repro.obs.trace.validate_chrome_trace`) and the Prometheus text
parses line by line (:func:`~repro.obs.metrics.parse_prometheus`) — and
that the disabled path allocates no spans.  Exit 0 means the telemetry
layer holds up; ``make obs-smoke`` runs exactly this.
"""

import argparse
import json
import sys

from repro.obs import (
    NOOP_SPAN,
    TELEMETRY,
    chrome_trace,
    load_artifact,
    parse_prometheus,
    validate_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.utils.text import format_table


def _registry_from_artifact(artifact):
    """Rebuild a registry holding the artefact's metric values."""
    registry = MetricsRegistry()
    for family in artifact["metrics"]["families"]:
        for entry in family["series"]:
            labels = entry["labels"] or None
            if family["type"] == "histogram":
                instrument = registry.histogram(
                    family["name"], buckets=family["buckets"],
                    labels=labels, help=family["help"])
                instrument.counts = list(entry["counts"])
                instrument.total = entry["count"]
                instrument.sum = entry["sum"]
            elif family["type"] == "counter":
                registry.counter(family["name"], labels=labels,
                                 help=family["help"]).value = entry["value"]
            else:
                registry.gauge(family["name"], labels=labels,
                               help=family["help"]).value = entry["value"]
    return registry


def _histogram_quantile(buckets, counts, q):
    """Approximate quantile from fixed buckets (upper bound of the bin)."""
    total = sum(counts)
    if not total:
        return None
    target = q * total
    cumulative = 0
    for bound, count in zip(list(buckets) + [float("inf")], counts):
        cumulative += count
        if cumulative >= target:
            return bound
    return float("inf")


# ------------------------------------------------------------------ summary

def _label_text(labels):
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def summarize(artifact):
    """Human-readable digest of one artefact; returns the text."""
    lines = []
    counter_rows, gauge_rows, histo_rows = [], [], []
    for family in artifact["metrics"]["families"]:
        for entry in family["series"]:
            label = _label_text(entry["labels"])
            if family["type"] == "histogram":
                p50 = _histogram_quantile(family["buckets"], entry["counts"],
                                          0.5)
                p95 = _histogram_quantile(family["buckets"], entry["counts"],
                                          0.95)
                histo_rows.append((
                    family["name"], label, entry["count"],
                    round(entry["sum"], 6),
                    "inf" if p50 == float("inf") else p50,
                    "inf" if p95 == float("inf") else p95,
                ))
            elif family["type"] == "counter":
                counter_rows.append((family["name"], label,
                                     round(entry["value"], 6)))
            else:
                gauge_rows.append((family["name"], label, entry["value"]))
    if counter_rows:
        lines.append("counters:")
        lines.append(format_table(["name", "labels", "value"], counter_rows))
    if gauge_rows:
        lines.append("gauges:")
        lines.append(format_table(["name", "labels", "value"], gauge_rows))
    if histo_rows:
        lines.append("histograms:")
        lines.append(format_table(
            ["name", "labels", "count", "sum", "~p50(<=)", "~p95(<=)"],
            histo_rows))

    trace = artifact["trace"]
    by_name = {}
    for span in trace["spans"]:
        entry = by_name.setdefault(span["name"], [0, 0.0])
        entry[0] += 1
        entry[1] += span["dur_us"]
    lines.append(
        f"trace: {trace['finished']} spans finished, "
        f"{trace['dropped']} dropped (ring limit {trace['limit']})"
    )
    if by_name:
        rows = [
            (name, count, round(total_us / 1000, 3),
             round(total_us / count / 1000, 3))
            for name, (count, total_us) in
            sorted(by_name.items(), key=lambda item: -item[1][1])
        ]
        lines.append(format_table(
            ["span", "count", "total (ms)", "mean (ms)"], rows))
    return "\n".join(lines)


# --------------------------------------------------------------------- diff

def diff_artifacts(before, after):
    """Counter/gauge deltas between two artefacts; returns the text."""
    def flat(artifact):
        values = {}
        for family in artifact["metrics"]["families"]:
            if family["type"] == "histogram":
                for entry in family["series"]:
                    key = (family["name"] + "_count",
                           _label_text(entry["labels"]))
                    values[key] = entry["count"]
            else:
                for entry in family["series"]:
                    values[(family["name"], _label_text(entry["labels"]))] \
                        = entry["value"]
        return values

    old, new = flat(before), flat(after)
    rows = []
    for key in sorted(set(old) | set(new)):
        left, right = old.get(key), new.get(key)
        if left == right:
            continue
        delta = (right or 0) - (left or 0)
        rows.append((key[0], key[1],
                     "-" if left is None else round(left, 6),
                     "-" if right is None else round(right, 6),
                     round(delta, 6)))
    if not rows:
        return "no metric differences"
    return format_table(["name", "labels", "before", "after", "delta"], rows)


# ---------------------------------------------------------------- selfcheck

def selfcheck(quick=True):
    """End-to-end telemetry smoke over a small sweep; returns exit code."""
    from repro.sweep.jobs import CosimJob, KernelJob
    from repro.sweep.service import SweepService

    checks = 0

    def note(label):
        nonlocal checks
        checks += 1
        print(f"  [{checks}] {label}")

    # The disabled fast path first: one shared no-op span, nothing stored.
    TELEMETRY.disable()
    TELEMETRY.reset()
    probe = TELEMETRY.span("probe")
    assert probe is NOOP_SPAN, "disabled telemetry must hand out NOOP_SPAN"
    with probe:
        pass
    assert len(TELEMETRY.tracer) == 0, "disabled telemetry recorded a span"
    note("disabled path: shared no-op span, ring buffer untouched")

    TELEMETRY.enable()
    try:
        jobs = [KernelJob("tiny", seed) for seed in range(2 if quick else 8)]
        jobs += [KernelJob("tiny", 0, kernel="reference")]
        jobs += [CosimJob(seed) for seed in range(1 if quick else 4)]
        report = SweepService(jobs, workers=1).run()
        assert report.ok, f"sweep failed:\n{report.summary()}"
        note(f"instrumented sweep of {len(jobs)} jobs passed")

        artifact = TELEMETRY.export()
        spans = artifact["trace"]["spans"]
        families = artifact["metrics"]["families"]
        assert any(span["name"] == "sweep.job" for span in spans), \
            "no sweep.job spans were traced"
        assert any(f["name"] == "repro_kernel_phase_seconds_total"
                   for f in families), \
            "kernel phase counters missing from the registry"
        note(f"artefact holds {len(spans)} spans and "
             f"{len(families)} metric families")

        def total(name, kernel=None):
            return sum(series["value"] for family in families
                       if family["name"] == name for series in family["series"]
                       if kernel in (None, series["labels"]["kernel"]))

        fast_edges = total("repro_kernel_clock_fast_edges_total")
        assert fast_edges > 0, \
            "the kernel clock fast path never fired with telemetry on"
        note(f"kernel clock fast path taken under telemetry "
             f"({fast_edges:g} edges)")
        # The reference label only: production CosimJobs add fused-step
        # run compensation to process_runs that the profiler cannot see.
        profiled = total("repro_kernel_process_profile_runs_total", "reference")
        counted = total("repro_kernel_process_runs_total", "reference")
        assert counted > 0 and profiled == counted, \
            f"profiler saw {profiled:g} of {counted:g} reference process runs"
        note(f"profiler attributes all {counted:g} reference process runs")

        trace = chrome_trace(artifact["trace"])
        events = validate_chrome_trace(
            json.loads(json.dumps(trace)))  # through a real JSON round-trip
        note(f"Chrome trace-event JSON validates ({events} events)")

        exposition = TELEMETRY.metrics.to_prometheus()
        samples = parse_prometheus(exposition)
        assert samples, "empty Prometheus exposition"
        note(f"Prometheus exposition parses ({len(samples)} samples)")
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    print(f"obs selfcheck OK ({checks} checks)")
    return 0


# --------------------------------------------------------------------- main

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="summarise, convert and diff telemetry artefacts",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("summary", help="print a digest of an artefact")
    cmd.add_argument("artifact")

    cmd = commands.add_parser("convert",
                              help="export an artefact in another format")
    cmd.add_argument("artifact")
    cmd.add_argument("--to", choices=("chrome", "prometheus"),
                     required=True, dest="target")
    cmd.add_argument("-o", "--out", default=None,
                     help="output file (default stdout)")

    cmd = commands.add_parser("diff",
                              help="metric deltas between two artefacts")
    cmd.add_argument("before")
    cmd.add_argument("after")

    cmd = commands.add_parser("selfcheck",
                              help="instrumented sweep + exposition checks")
    cmd.add_argument("--quick", action="store_true",
                     help="smallest job mix (CI smoke tier)")

    args = parser.parse_args(argv)
    try:
        if args.command == "selfcheck":
            return selfcheck(quick=args.quick)
        if args.command == "summary":
            print(summarize(load_artifact(args.artifact)))
            return 0
        if args.command == "diff":
            print(diff_artifacts(load_artifact(args.before),
                                 load_artifact(args.after)))
            return 0
        artifact = load_artifact(args.artifact)
        if args.target == "chrome":
            payload = chrome_trace(artifact["trace"])
            validate_chrome_trace(payload)
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            registry = _registry_from_artifact(artifact)
            text = registry.to_prometheus()
            parse_prometheus(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"written to {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"selfcheck FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
