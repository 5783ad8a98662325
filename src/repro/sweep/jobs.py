"""Sweep job descriptions.

A job is a small, picklable **recipe** — never a live model or simulator —
so it can travel to a worker process, serve as a cache key and appear in a
report verbatim.  Three kinds cover the project's workloads:

* :class:`KernelJob` — one generated kernel scenario
  (:class:`~repro.testkit.generator.KernelScenario`) run on one kernel,
  fingerprinted.
* :class:`CosimJob` — one generated system co-simulated to completion (or
  to a fixed horizon), functionally checked against the generator's
  expectations, fingerprinted; optionally executed through a mid-run
  checkpoint/restore round-trip (``checkpoint_at``), which by construction
  must not change the fingerprint.  A job builds its model once and
  every session, validation, lint verdict and compiled program of the
  job derives from that object.
* :class:`CosynJob` — one generated system (optionally repartitioned, e.g.
  to a DSE Pareto candidate) co-synthesized on one platform.  The full
  artefact dict is the **cacheable payload**: the sweep service stores it
  content-addressed by the job spec, so repeated partitions never re-run
  HLS.
* :class:`ConformanceJob` — one named testkit scenario
  (``kernel-<size>-<seed>``, ``system-<seed>``, ``fault-<kind>-<seed>``,
  ``realtime-<seed>``) replayed through the differential conformance
  oracles; divergences surface as functional problems.
* :class:`DseJob` — one full partition exploration
  (:class:`~repro.dse.explorer.DesignSpaceExplorer`) of a generated
  system; the JSON exploration report (Pareto front + synthesis
  artefacts) is the cacheable payload.

``job.spec()`` is the job's identity (canonical, JSON-serializable);
``job.execute()`` returns ``(record, payload)`` where *record* is the
deterministic report entry and *payload* the cacheable artefact (or None),
a :class:`~repro.utils.canonical.CanonicalPayload` rendered once: the
record's digest and the cache entry both derive from that rendering.
"""

from repro.utils.canonical import CanonicalPayload, content_digest


def _check_tier(tier, default, allowed):
    """*tier* or *default* when None; ``ValueError`` unless it is *allowed*.

    Raised at construction, so ``job_from_dict`` (and ``POST /jobs``)
    refuse a bad tier before the job ever reaches a worker.
    """
    if tier is None:
        return default
    if tier not in allowed:
        raise ValueError(f"unknown tier {tier!r}; available: {allowed}")
    return tier


def _lint_preflight(model, no_lint):
    """Lint *model* before running a job; returns the report summary dict.

    Error-level findings abort the job with a
    :class:`~repro.utils.errors.ValidationError` (surfacing as the job's
    error record) unless *no_lint* is set, in which case the lint step is
    skipped entirely and ``None`` is recorded.  Warnings never refuse a
    job; they are visible in the recorded summary.
    """
    if no_lint:
        return None
    from repro.lint.engine import memo_report
    from repro.utils.errors import ValidationError

    # The memoised report: the session's validation reads its structural
    # stage, so the model is linted once per job.
    report = memo_report(model)
    if report.errors:
        raise ValidationError(report.errors)
    return report.summary()


class SweepJob:
    """Base class: identity, naming and error records shared by all kinds."""

    kind = None
    #: True when ``execute`` produces a payload the service may cache.
    cacheable = False

    def spec(self):
        """The job's canonical identity as a JSON-serializable dict."""
        raise NotImplementedError

    @property
    def name(self):
        raise NotImplementedError

    def execute(self):
        """Run the job; returns ``(record, payload_or_none)``."""
        raise NotImplementedError

    def error_record(self, exc):
        """Deterministic report entry for a job that raised *exc*."""
        record = dict(self.spec())
        record["name"] = self.name
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record

    def _base_record(self):
        record = dict(self.spec())
        record["name"] = self.name
        record["error"] = None
        return record

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


class KernelJob(SweepJob):
    """Run one generated kernel scenario and fingerprint every observable."""

    kind = "kernel"

    def __init__(self, size, seed, kernel="production"):
        from repro.testkit.generator import SIZES

        if size not in SIZES:
            raise ValueError(f"unknown scenario size {size!r}; "
                             f"available: {sorted(SIZES)}")
        self.size = size
        self.seed = int(seed)
        self.kernel = kernel

    def spec(self):
        return {"kind": self.kind, "size": self.size, "seed": self.seed,
                "kernel": self.kernel}

    @property
    def name(self):
        return f"kernel-{self.size}-{self.seed}@{self.kernel}"

    def execute(self):
        from repro.testkit.generator import KernelScenario

        scenario = KernelScenario(self.seed, size=self.size)
        instance = scenario.build(self.kernel)
        instance.run()
        fingerprint = instance.fingerprint()
        record = self._base_record()
        record.update({
            "end_time": fingerprint["end_time"],
            "log_entries": len(fingerprint["log"]),
            "delta_cycles": fingerprint["statistics"]["delta_cycles"],
            "process_runs": fingerprint["statistics"]["process_runs"],
            "fingerprint_digest": content_digest(fingerprint),
        })
        return record, None


class CosimJob(SweepJob):
    """Co-simulate one generated system; check and fingerprint the outcome.

    With *until* unset the session runs to software completion
    (:func:`~repro.testkit.oracles.run_session_to_completion`) and the
    generator's functional expectations are checked; with *until* set it
    runs to that fixed horizon.  *checkpoint_at* (< *until* or < the
    completion horizon) routes execution through
    ``save()`` → fresh session → ``restore()`` mid-run: the recorded
    fingerprint digest must equal the uninterrupted variant's, which is
    exactly what the sweep's checkpoint tests pin.  Sessions, fault plan
    and completion horizon come from the conformance kit's
    :class:`~repro.testkit.scenarios.SystemScenario` (a
    :class:`~repro.testkit.scenarios.FaultScenario` when *fault_kind* is
    set), so a job simulates exactly the kit's scenario.
    """

    kind = "cosim"

    def __init__(self, seed, networks=None, kernel="production", until=None,
                 checkpoint_at=None, tier=None, coverage=False,
                 fault_kind=None, fault_unit_index=0, no_lint=False):
        self.seed = int(seed)
        self.networks = None if networks is None else int(networks)
        self.kernel = kernel
        # Resolved at construction so the job spec — the report/replay
        # identity — stays explicit even if the project default flips.
        from repro.cosim.session import DEFAULT_TIER, TIERS

        self.tier = _check_tier(tier, DEFAULT_TIER, TIERS)
        self.until = None if until is None else int(until)
        self.checkpoint_at = (None if checkpoint_at is None
                              else int(checkpoint_at))
        if self.checkpoint_at is not None and self.checkpoint_at <= 0:
            raise ValueError("checkpoint_at must be a positive time")
        if (self.checkpoint_at is not None and self.until is not None
                and self.checkpoint_at >= self.until):
            raise ValueError("checkpoint_at must lie before until")
        self.coverage = bool(coverage)
        if fault_kind is not None:
            from repro.cosim.faults import FAULT_KINDS

            if fault_kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {fault_kind!r}; "
                                 f"available: {FAULT_KINDS}")
        self.fault_kind = fault_kind
        self.fault_unit_index = int(fault_unit_index)
        self.no_lint = bool(no_lint)
        # Coverage maps are deterministic and reasonably sized, so a
        # coverage-collecting run is worth caching: the record plus the
        # serialized map become the payload.
        self.cacheable = self.coverage

    def spec(self):
        return {
            "kind": self.kind,
            "seed": self.seed,
            "networks": self.networks,
            "kernel": self.kernel,
            "tier": self.tier,
            "until": self.until,
            "checkpoint_at": self.checkpoint_at,
            "coverage": self.coverage,
            "fault_kind": self.fault_kind,
            "fault_unit_index": self.fault_unit_index,
            "no_lint": self.no_lint,
        }

    @property
    def name(self):
        suffix = f"x{self.networks}" if self.networks is not None else ""
        fault = f"+{self.fault_kind}" if self.fault_kind is not None else ""
        return f"cosim-{self.seed}{suffix}{fault}@{self.kernel}"

    def _scenario(self):
        """The testkit scenario this job runs: plain, or faulted."""
        from repro.testkit.models import generate_system
        from repro.testkit.scenarios import FaultScenario, SystemScenario

        if self.fault_kind is None:
            return SystemScenario(generate_system(self.seed,
                                                  networks=self.networks))
        return FaultScenario(self.seed, self.fault_kind,
                             networks=self.networks,
                             unit_index=self.fault_unit_index)

    def execute(self):
        """Run the scenario on the job's one model; ``(record, payload)``.

        The checkpoint's restore target shares that *model* object, so
        its validation, lint verdict and fused program are computed once
        per job.
        """
        from repro.testkit.coverage import (
            CoverageMap,
            attach_session,
            coverage_universe,
            scoreboard,
        )
        from repro.testkit.oracles import (
            cosim_fingerprint,
            run_session_to_completion,
        )

        scenario = self._scenario()
        model = scenario.system.build_model()
        lint = _lint_preflight(model, self.no_lint)
        coverage = CoverageMap() if self.coverage else None
        session = scenario.build_session(self.kernel, self.tier, model)
        if coverage is not None:
            attach_session(session, coverage)
        if self.checkpoint_at is not None:
            session.run(until=self.checkpoint_at)
            checkpoint = session.save()
            session = scenario.build_session(self.kernel, self.tier,
                                             model).restore(checkpoint)
            if coverage is not None:
                # Rewire the observers onto the restored instances; the
                # map keeps accumulating across the checkpoint boundary.
                attach_session(session, coverage, seed_states=False)
        if self.until is None:
            result = run_session_to_completion(
                session, scenario.system.expectations,
                max_time=scenario.max_time(session))
            problems = scenario.functional_problems(session, result)
        else:
            result = session.run(until=self.until)
            problems = None
        faulted = self.fault_kind is not None
        record = self._base_record()
        record.update({
            "end_time": result.end_time,
            "service_calls": len(result.trace),
            "sw_finished_all": all(result.sw_finished.values()),
            # A faulted run may legitimately miss its expectations; that is
            # the fault-survival signal, not an error.
            "functional_problems": None if faulted else problems,
            # Execution-tier counters: steps split by engine, so a fused
            # run shows its steps as system_compile_hits.
            "fsm": dict(result.fsm_counters),
            "tier": result.tier,
            "fingerprint_digest": content_digest(
                cosim_fingerprint(session, result)
            ),
            "fault_survival": (not problems if faulted
                               and self.until is None else None),
        })
        if coverage is not None:
            coverage.record_trace(result.trace)
            record["scoreboard"] = scoreboard(
                coverage, coverage_universe(session.model),
                fault_survival=record["fault_survival"],
            )
            record["coverage_digest"] = coverage.digest()
        # Lint pre-flight summary (None when skipped via no_lint); an
        # error-level finding never reaches here — the job refuses.
        record["lint"] = lint
        if coverage is None:
            return record, None
        record["cached"] = False
        identity = set(self.spec()) | {"name", "error"}
        payload = CanonicalPayload.render({
            "record": {key: value for key, value in record.items()
                       if key not in identity and key != "cached"},
            "coverage": coverage.as_dict(),
        })
        return record, payload

    def record_from_payload(self, payload, cached):
        """Report entry for a cache-served coverage run."""
        record = self._base_record()
        record.update(payload["record"])
        record["cached"] = cached
        return record


class CosynJob(SweepJob):
    """Co-synthesize one generated system on one platform; cacheable.

    *hw_modules* overrides the generated partitioning (a sorted list of
    module names to place in hardware — the form DSE Pareto candidates
    arrive in); None keeps the generator's own partitioning.
    """

    kind = "cosyn"
    cacheable = True

    def __init__(self, seed, networks=None, platform="pc_at_fpga",
                 hw_modules=None, no_lint=False):
        self.seed = int(seed)
        self.networks = None if networks is None else int(networks)
        self.platform = platform
        self.hw_modules = (None if hw_modules is None
                           else sorted(str(name) for name in hw_modules))
        self.no_lint = bool(no_lint)

    def spec(self):
        return {
            "kind": self.kind,
            "seed": self.seed,
            "networks": self.networks,
            "platform": self.platform,
            "hw_modules": self.hw_modules,
            "no_lint": self.no_lint,
        }

    @property
    def name(self):
        suffix = f"x{self.networks}" if self.networks is not None else ""
        return f"cosyn-{self.seed}{suffix}@{self.platform}"

    def execute(self):
        from repro.cosyn import CosynthesisFlow
        from repro.dse.space import repartition
        from repro.platforms import get_platform
        from repro.testkit.models import generate_system

        system = generate_system(self.seed, networks=self.networks)
        model = system.build_model()
        if self.hw_modules is not None:
            model = repartition(model, self.hw_modules)
        # Lint the model actually synthesized (post-repartition): the
        # summary travels in the payload so a cache-served record carries
        # the same lint evidence as a fresh one.
        lint = _lint_preflight(model, self.no_lint)
        result = CosynthesisFlow(model, get_platform(self.platform)).run()
        payload = result.as_dict(include_text=True)
        payload["lint"] = lint
        payload = CanonicalPayload.render(payload)
        return self.record_from_payload(payload, cached=False), payload

    def record_from_payload(self, payload, cached):
        """Report entry from an artefact :class:`CanonicalPayload`
        (fresh or cache-served)."""
        record = self._base_record()
        record.update({
            "ok": payload["ok"],
            "problems": list(payload["problems"]),
            "total_clbs": payload["total_clbs"],
            "system_clock_ns": payload["system_clock_ns"],
            "hardware_modules": sorted(payload["hardware"]),
            "software_modules": sorted(payload["software"]),
            "lint": payload.get("lint"),
            "artifact_digest": payload.digest,
            "cached": cached,
        })
        return record


class ConformanceJob(SweepJob):
    """Replay one named conformance scenario through the differential kit.

    *scenario* is the testkit name (``kernel-<size>-<seed>``,
    ``system-<seed>``, ``fault-<kind>-<seed>``, ``realtime-<seed>``) —
    exactly what ``python -m repro.testkit --replay`` accepts.  Any
    divergence between kernels/tiers (or a missed functional expectation)
    lands in the record's ``functional_problems``, so a batch containing
    conformance jobs fails its report when conformance breaks.
    """

    kind = "conformance"

    def __init__(self, scenario, tier=None):
        from repro.cosim.session import DEFAULT_TIER, TIERS
        from repro.testkit.runner import parse_scenario_name

        self.scenario = str(scenario)
        parse_scenario_name(self.scenario)  # refused here, like a bad tier
        # "differential" replays the scenario on every tier.
        self.tier = _check_tier(tier, DEFAULT_TIER, TIERS + ("differential",))

    def spec(self):
        return {"kind": self.kind, "scenario": self.scenario,
                "tier": self.tier}

    @property
    def name(self):
        return f"conformance-{self.scenario}"

    def execute(self):
        from repro.testkit.runner import replay

        problems = replay(self.scenario, tier=self.tier)
        record = self._base_record()
        record.update({
            "ok": not problems,
            "functional_problems": list(problems),
        })
        return record, None


class DseJob(SweepJob):
    """One full hw/sw partition exploration of a generated system; cacheable.

    The exploration report — Pareto front with complete co-synthesis
    artefacts per winner — is a pure function of the spec (the search is
    seeded), so it is stored in the artefact cache like a synthesis run.
    Evaluation always runs serially inside the job: sweep/server workers
    are daemonic processes and may not spawn a nested pool; parallelism
    comes from running many jobs, not from inside one.
    """

    kind = "dse"
    cacheable = True

    def __init__(self, seed, networks=None, mode="auto", platforms=None,
                 search_seed=0, restarts=3, max_rounds=20):
        self.seed = int(seed)
        self.networks = None if networks is None else int(networks)
        if mode not in ("auto", "exhaustive", "heuristic"):
            raise ValueError(f"unknown DSE mode {mode!r}; "
                             "expected auto, exhaustive or heuristic")
        self.mode = mode
        self.platforms = (None if platforms is None
                          else sorted(str(name) for name in platforms))
        self.search_seed = int(search_seed)
        self.restarts = int(restarts)
        self.max_rounds = int(max_rounds)

    def spec(self):
        return {
            "kind": self.kind,
            "seed": self.seed,
            "networks": self.networks,
            "mode": self.mode,
            "platforms": self.platforms,
            "search_seed": self.search_seed,
            "restarts": self.restarts,
            "max_rounds": self.max_rounds,
        }

    @property
    def name(self):
        suffix = f"x{self.networks}" if self.networks is not None else ""
        return f"dse-{self.seed}{suffix}@{self.mode}"

    def execute(self):
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.testkit.models import generate_system

        system = generate_system(self.seed, networks=self.networks)
        explorer = DesignSpaceExplorer(system.build_model(),
                                       platforms=self.platforms,
                                       cosim_params=system.cosim_params,
                                       expectations=system.expectations)
        report = explorer.explore(mode=self.mode, seed=self.search_seed,
                                  restarts=self.restarts,
                                  max_rounds=self.max_rounds)
        payload = CanonicalPayload.render(report.as_dict())
        return self.record_from_payload(payload, cached=False), payload

    def record_from_payload(self, payload, cached):
        """Report entry from an exploration report's
        :class:`CanonicalPayload` (fresh or cache-served)."""
        record = self._base_record()
        record.update({
            "mode": payload["mode"],
            "platforms": list(payload["platforms"]),
            "evaluated": payload["evaluated"],
            "feasible": payload["feasible"],
            "front": [{"platform": entry["platform"],
                       "hw_modules": entry["hw_modules"]}
                      for entry in payload["front"]],
            "report_digest": payload.digest,
            "cached": cached,
        })
        return record


_JOB_KINDS = {
    KernelJob.kind: KernelJob,
    CosimJob.kind: CosimJob,
    CosynJob.kind: CosynJob,
    ConformanceJob.kind: ConformanceJob,
    DseJob.kind: DseJob,
}


def job_from_dict(data):
    """Build a job from its spec dict (the JSON job-file entry format)."""
    if not isinstance(data, dict):
        raise ValueError(f"job entry must be an object, got {data!r}")
    kwargs = dict(data)
    kind = kwargs.pop("kind", None)
    try:
        factory = _JOB_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown job kind {kind!r}; available: {sorted(_JOB_KINDS)}"
        ) from None
    try:
        return factory(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad {kind} job {data!r}: {exc}") from None


def jobs_from_dse_report(report, seed, networks=None):
    """Cosyn jobs for every Pareto-front candidate of a DSE report dict.

    The DSE report names the swept system but not the generator recipe
    that built it, so the caller supplies *seed*/*networks* (the values
    passed to ``python -m repro.dse``).
    """
    jobs = []
    for entry in report.get("front", ()):
        jobs.append(CosynJob(seed, networks=networks,
                             platform=entry["platform"],
                             hw_modules=entry["hw_modules"]))
    return jobs
