"""The design-space exploration engine.

:class:`DesignSpaceExplorer` ties the subsystem together: it enumerates (or
heuristically walks) the hw/sw placements of a model across every requested
platform, scores candidates with the memoized static cost model — serially
or on a ``multiprocessing`` worker pool — prunes by platform constraints,
extracts the Pareto front, re-runs the full
:class:`~repro.cosyn.flow.CosynthesisFlow` on each front member so winners
come with complete synthesis artefacts, and (optionally) validates the
front in co-simulation.  The cost model and the winners' flows share the
evaluator's HLS memo: one HLS run per FSM per exploration.
"""

import json

from repro.cosyn.flow import CosynthesisFlow
from repro.dse.cost import CandidateEvaluator
from repro.dse.parallel import ParallelEvaluationPool
from repro.dse.pareto import pareto_front
from repro.dse.search import (
    EXHAUSTIVE_LIMIT_CANDIDATES,
    exhaustive_search,
    heuristic_search,
    total_placements,
)
from repro.dse.space import PartitionSpace, repartition
from repro.dse.validate import validate_candidate
from repro.obs import TELEMETRY
from repro.platforms import available_platforms, get_platform
from repro.utils.errors import ReproError, SynthesisError
from repro.utils.text import format_table


class ExplorationReport:
    """Everything one exploration produced, JSON-serializable."""

    def __init__(self, system, mode, seed, platform_names, space, scores,
                 front, winners, validation, stats):
        self.system = system
        self.mode = mode
        self.seed = seed
        self.platform_names = list(platform_names)
        self.movable = list(space.movable)
        self.pinned_hw = list(space.pinned_hw)
        self.pinned_sw = list(space.pinned_sw)
        self.scores = list(scores)
        self.front = list(front)
        #: ``{candidate key: CosynthesisResult | SynthesisError}`` aligned
        #: with :attr:`front`.
        self.winners = winners
        self.validation = validation
        #: Per-platform ``{"enumerated", "evaluated", "feasible"}`` counts;
        #: ``enumerated`` is None in heuristic mode (the space is sampled).
        self.stats = stats

    @property
    def feasible(self):
        return [score for score in self.scores if score.feasible]

    def front_entries(self):
        """Front scores with their full co-synthesis artefact dicts."""
        entries = []
        for score in self.front:
            entry = score.as_dict()
            winner = self.winners.get(score.candidate.key())
            if winner is None:
                entry["cosynthesis"] = None
            elif isinstance(winner, ReproError):
                entry["cosynthesis"] = {"error": str(winner)}
            else:
                entry["cosynthesis"] = winner.as_dict()
            entries.append(entry)
        return entries

    def as_dict(self, include_scores=False):
        data = {
            "system": self.system,
            "mode": self.mode,
            "seed": self.seed,
            "objectives": ["area_clbs", "latency_ns", "sw_load_ns"],
            "platforms": self.platform_names,
            "movable_modules": self.movable,
            "pinned_hw": self.pinned_hw,
            "pinned_sw": self.pinned_sw,
            "per_platform": self.stats,
            "evaluated": len(self.scores),
            "feasible": len(self.feasible),
            "front": self.front_entries(),
            "validation": self.validation,
        }
        if include_scores:
            data["scores"] = [
                score.as_dict()
                for score in sorted(self.scores,
                                    key=lambda s: s.candidate.key())
            ]
        return data

    def to_json(self, include_scores=False, indent=2):
        """Deterministic JSON rendering (byte-identical for equal runs)."""
        return json.dumps(self.as_dict(include_scores=include_scores),
                          indent=indent, sort_keys=True)

    def summary(self):
        rows = []
        for score in self.front:
            verdict = ""
            if self.validation is not None:
                for item in self.validation:
                    if item["candidate"] == score.candidate.label():
                        verdict = "ok" if item["ok"] else "FAILED"
            rows.append((
                score.candidate.platform,
                "+".join(score.candidate.hw_modules) or "(all sw)",
                score.area_clbs,
                round(score.clock_ns, 1),
                round(score.latency_ns, 1),
                round(score.sw_load_ns, 1),
                verdict,
            ))
        table = format_table(
            ["platform", "hw modules", "CLBs", "clock (ns)", "latency (ns)",
             "sw load (ns)", "cosim"],
            rows,
        )
        return (
            f"design-space exploration of {self.system} ({self.mode} mode)\n"
            f"{len(self.scores)} candidates evaluated, "
            f"{len(self.feasible)} feasible, "
            f"Pareto front of {len(self.front)}:\n{table}"
        )


class DesignSpaceExplorer:
    """Sweeps hw/sw placements of one model across the registered platforms."""

    def __init__(self, model, platforms=None, pins=None,
                 cosim_params=None, expectations=None, environment=None):
        self.model = model
        self.platform_names = sorted(platforms) if platforms is not None \
            else available_platforms()
        if not self.platform_names:
            raise SynthesisError("no platforms to sweep")
        self.platforms = {name: get_platform(name)
                          for name in self.platform_names}
        self.space = PartitionSpace(model, pins=pins)
        self.cosim_params = dict(cosim_params or {})
        self.expectations = expectations
        #: Optional ``hook(session)`` attached to every validation cosim
        #: (e.g. the motor's physical plant).
        self.environment = environment
        self.evaluator = CandidateEvaluator(model, self.platform_names)

    def resolve_mode(self, mode):
        if mode == "auto":
            total = total_placements(self.space, self.platforms)
            return ("exhaustive" if total <= EXHAUSTIVE_LIMIT_CANDIDATES
                    else "heuristic")
        if mode not in ("exhaustive", "heuristic"):
            raise SynthesisError(
                f"unknown search mode {mode!r}; "
                "expected auto, exhaustive or heuristic"
            )
        return mode

    def explore(self, mode="auto", seed=0, workers=1, restarts=3,
                max_rounds=20, validate=False, synthesize_winners=True):
        """Run one exploration and return an :class:`ExplorationReport`.

        With ``workers > 1`` candidate evaluation runs on a multiprocessing
        pool; the report is byte-identical to a serial run.
        """
        mode = self.resolve_mode(mode)

        def run_search(evaluate_many):
            if mode == "exhaustive":
                return exhaustive_search(self.space, self.platforms,
                                         evaluate_many)
            return heuristic_search(self.space, self.platforms, evaluate_many,
                                    seed=seed, restarts=restarts,
                                    max_rounds=max_rounds)

        if workers > 1:
            with ParallelEvaluationPool(self.model, self.platform_names,
                                        workers) as pool:
                scores = run_search(pool.evaluate_many)
        else:
            scores = run_search(self.evaluator.evaluate_many)

        front = pareto_front(scores)

        winners = {}
        if synthesize_winners:
            # The winners' repartitioned models share their module FSMs
            # with the model the evaluator costed, so its HLS memo already
            # holds every process a serial search placed in hardware.
            with TELEMETRY.span("dse.synthesize_front", cat="dse",
                                system=self.model.name, front=len(front)):
                for score in front:
                    winners[score.candidate.key()] = self._synthesize(score)

        validation = None
        if validate:
            validation = [
                validate_candidate(self.model, score.candidate,
                                   cosim_params=self.cosim_params,
                                   expectations=self.expectations,
                                   environment=self.environment)
                for score in front
            ]

        stats = {}
        for name in self.platform_names:
            platform_scores = [s for s in scores
                               if s.candidate.platform == name]
            stats[name] = {
                "enumerated": (self.space.placement_count(self.platforms[name])
                               if mode == "exhaustive" else None),
                "evaluated": len(platform_scores),
                "feasible": sum(1 for s in platform_scores if s.feasible),
            }

        return ExplorationReport(
            self.model.name, mode, seed, self.platform_names, self.space,
            scores, front, winners, validation, stats,
        )

    def _synthesize(self, score):
        """Full co-synthesis of one front candidate (complete artefacts)."""
        try:
            candidate_model = repartition(self.model,
                                          score.candidate.hw_modules)
            flow = CosynthesisFlow(candidate_model,
                                   self.platforms[score.candidate.platform],
                                   hls_memo=self.evaluator.hls_memo)
            return flow.run()
        except ReproError as exc:
            # A winner that fails full synthesis becomes a per-entry error,
            # never an abort — the search already ran.
            return exc


def explore_model(model, **kwargs):
    """One-call convenience wrapper: explore *model* with default settings.

    Keyword arguments are split between :class:`DesignSpaceExplorer`
    (``platforms``, ``pins``, ``cosim_params``, ``expectations``,
    ``environment``) and :meth:`~DesignSpaceExplorer.explore` (everything
    else).
    """
    init_keys = ("platforms", "pins", "cosim_params", "expectations",
                 "environment")
    init_kwargs = {key: kwargs.pop(key) for key in init_keys if key in kwargs}
    explorer = DesignSpaceExplorer(model, **init_kwargs)
    return explorer.explore(**kwargs)
