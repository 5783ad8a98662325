"""Tests of the static analyzer: diagnostics, rules, suppression, CLI."""

import json

import pytest

from repro.apps.motor_controller.system import build_system
from repro.apps.motor_controller.two_axis import build_two_axis_system
from repro.cosim import CosimSession
from repro.lint import RULES_BY_ID, STRUCTURAL_RULES, Diagnostic, LintReport, lint_model
from repro.lint.__main__ import main as lint_main
from repro.lint.selfcheck import MUTANTS, run_selfcheck
from repro.testkit.models import generate_system
from repro.utils.errors import ValidationError


class TestDiagnostics:
    def test_format_and_dict(self):
        diagnostic = Diagnostic("DF001", "warning", "module/M/F",
                                "variable 'X' may be read before init",
                                data={"variable": "X"})
        assert diagnostic.format() == (
            "warning DF001    module/M/F: variable 'X' may be read before init")
        assert diagnostic.as_dict()["data"] == {"variable": "X"}

    def test_suppression_matching(self):
        diagnostic = Diagnostic("DF002", "warning", "module/M/F",
                                "variable 'MSTATE' is written but never read")
        assert diagnostic.matches("DF002")
        assert diagnostic.matches("DF002:'MSTATE'")
        assert not diagnostic.matches("DF002:'OTHER'")
        assert not diagnostic.matches("DF001")

    def test_report_thresholds(self):
        report = LintReport("t")
        report.add(Diagnostic("DF001", "warning", "p", "m"))
        assert report.fails("warning") and not report.fails("error")
        report.add(Diagnostic("RACE001", "error", "p", "m"))
        assert report.fails("error")
        assert report.max_severity() == "error"

    def test_scoped_suppression_requires_prefix(self):
        report = LintReport("t")
        report.add(Diagnostic("DF002", "warning", "module/A/F", "m"))
        report.add(Diagnostic("DF002", "warning", "module/B/F", "m"))
        report.apply_suppressions([("DF002", "module/A")])
        assert len(report.diagnostics) == 1
        assert report.diagnostics[0].path == "module/B/F"
        assert len(report.suppressed) == 1

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("X001", "fatal", "p", "m")


class TestMutants:
    """Every engineered mutant must trip exactly its rule family."""

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_trips_expected_rule(self, name):
        builder, rule = MUTANTS[name]
        report = lint_model(builder())
        findings = report.by_rule(rule)
        assert findings, f"{name}: {rule} did not fire"
        for diagnostic in findings:
            assert diagnostic.severity == RULES_BY_ID[rule].severity

    def test_race_finding_names_both_writers(self):
        builder, _ = MUTANTS["dup-writer"]
        report = lint_model(builder())
        writers = set()
        for diagnostic in report.by_rule("RACE001"):
            writers.update(diagnostic.data["writers"])
        assert any("ProdA" in writer for writer in writers)
        assert any("ProdB" in writer for writer in writers)

    def test_bad_width_path_points_at_call_site(self):
        builder, rule = MUTANTS["bad-width"]
        (finding,) = lint_model(builder()).by_rule(rule)
        assert finding.path.startswith("module/Prod/PROD")


class TestCorpusClean:
    """The shipped apps and the conformance seeds are pinned lint-clean."""

    def test_motor_app_clean_with_audited_suppression(self):
        report = lint_model(build_system()[0])
        assert not report.diagnostics
        # The one audited finding: Distribution's deliberately unread MSTATE.
        assert [d.rule for d in report.suppressed] == ["DF002"]

    def test_two_axis_app_clean(self):
        report = lint_model(build_two_axis_system()[0])
        assert not report.diagnostics
        assert [d.rule for d in report.suppressed] == ["DF002", "DF002"]

    @pytest.mark.parametrize("seed", range(10))
    def test_generated_seed_clean(self, seed):
        report = lint_model(generate_system(seed).build_model())
        assert not report.diagnostics, [d.format() for d in report.diagnostics]

    def test_selfcheck_passes(self):
        assert run_selfcheck() == []


class TestStructuralValidation:
    def test_validation_error_carries_diagnostics(self):
        builder, _ = MUTANTS["trap-state"]
        with pytest.raises(ValidationError) as excinfo:
            CosimSession(builder())
        exc = excinfo.value
        assert exc.diagnostics
        assert {d.rule for d in exc.diagnostics} == {"FSM003"}
        assert all(d.severity == "error" for d in exc.diagnostics)
        assert str(exc) == "model validation failed: " + "; ".join(
            d.format() for d in exc.diagnostics)

    def test_structural_stage_ignores_suppressions(self):
        # The motor app suppresses DF002, an extended rule: the structural
        # stage stays clean AND does not consult suppressions.
        model = build_system()[0]
        report = lint_model(model, structural_only=True)
        assert report.diagnostics == [] and report.suppressed == []
        assert [d.rule for d in lint_model(model).suppressed] == ["DF002"]
        CosimSession(model)

    @pytest.mark.parametrize("mutant", ["dead-state", "trap-state"])
    def test_shared_fsms_and_units_are_checked_once(self, mutant,
                                                    monkeypatch):
        """A repartitioned model takes the structural findings of the FSMs
        and units it shares from the memo, with the same verdict."""
        from repro.dse.space import repartition
        from repro.lint import dataflow, interface

        builder, rule = MUTANTS[mutant]
        model = builder()
        assert lint_model(model, structural_only=True).by_rule(rule)
        calls = []
        for module, name in ((dataflow, "structural_pass"),
                             (interface, "unit_port_pass")):
            def counting(*args, _real=getattr(module, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(module, name, counting)
        moved = lint_model(repartition(model, ["Prod"]), structural_only=True)
        assert calls == []
        fresh = lint_model(repartition(builder(), ["Prod"]),
                           structural_only=True)
        assert calls, "a fresh model's FSMs are checked"
        assert moved.as_dict() == fresh.as_dict()
        assert moved.by_rule(rule)

    def test_extended_errors_do_not_refuse_a_session(self):
        builder, rule = MUTANTS["bad-width"]
        # IF006 is an extended (non-structural) error: validation passes.
        assert rule not in STRUCTURAL_RULES
        assert lint_model(builder(), structural_only=True).diagnostics == []
        CosimSession(builder())
        assert lint_model(builder()).by_rule(rule)


class TestCli:
    def test_default_targets_clean(self, capsys):
        assert lint_main([]) == 0
        out = capsys.readouterr().out
        assert "app:motor" in out and "app:two-axis" in out

    def test_json_report(self, capsys):
        assert lint_main(["--seed", "0", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert [r["target"] for r in reports] == ["seed:0"]
        assert reports[0]["summary"]["errors"] == 0

    def test_fail_on_warning_still_passes_clean_corpus(self):
        assert lint_main(["--app", "motor", "--fail-on", "warning"]) == 0

    def test_disable_unknown_rule_rejected(self):
        with pytest.raises(SystemExit):
            lint_main(["--disable", "NOPE999"])

    def test_rules_catalog(self, capsys):
        assert lint_main(["--rules"]) == 0
        lines = {line.split()[0]: line.split()[2]
                 for line in capsys.readouterr().out.splitlines()}
        assert lines["FSM001"] == "structural"
        assert lines["RACE001"] == "extended"
        assert {rule for rule, stage in lines.items()
                if stage == "structural"} == STRUCTURAL_RULES

    def test_selfcheck_entry(self, capsys):
        assert lint_main(["--selfcheck"]) == 0
        assert "selfcheck: OK" in capsys.readouterr().out
