"""Unit tests of IR transformations, structural checks and the pretty printer."""

from repro.ir import (
    Assign,
    FsmBuilder,
    If,
    INT,
    PortWrite,
    constant_fold,
    format_expr,
    format_fsm,
    format_stmt,
    port,
    reachable_states,
    remove_unreachable_states,
    var,
)
from repro.ir.expr import BinOp, Const, UnOp
from repro.ir.transform import fold_fsm, fold_statement
from repro.lint import LintReport
from repro.lint.dataflow import structural_pass


class TestConstantFold:
    def test_folds_pure_constant_trees(self):
        expr = BinOp("add", BinOp("mul", 3, 4), 5)
        folded = constant_fold(expr)
        assert isinstance(folded, Const) and folded.value == 17

    def test_keeps_variables_unfolded(self):
        expr = BinOp("add", var("x"), BinOp("sub", 10, 4))
        folded = constant_fold(expr)
        assert isinstance(folded, BinOp)
        assert isinstance(folded.right, Const) and folded.right.value == 6

    def test_folds_unary(self):
        assert constant_fold(UnOp("neg", Const(5))).value == -5
        assert constant_fold(UnOp("abs", Const(-5))).value == 5

    def test_division_by_zero_left_for_runtime(self):
        expr = BinOp("div", 1, 0)
        folded = constant_fold(expr)
        assert isinstance(folded, BinOp)

    def test_string_equality_folds(self):
        folded = constant_fold(BinOp("eq", Const("A"), Const("A")))
        assert isinstance(folded, Const) and folded.value == 1

    def test_fold_statement_simplifies_constant_if(self):
        stmt = If(Const(1), [Assign("x", 1)], [Assign("x", 2)])
        folded = fold_statement(stmt)
        assert isinstance(folded, Assign) and folded.target == "x"

    def test_fold_fsm_preserves_structure(self):
        build = FsmBuilder("F")
        build.variable("x", INT, 0)
        with build.state("A") as state:
            state.do(Assign("x", BinOp("add", 2, 3)))
            state.go("A")
        fsm = build.build(initial="A")
        folded = fold_fsm(fsm)
        action = folded.state("A").actions[0]
        assert isinstance(action.expr, Const) and action.expr.value == 5
        assert folded.name == fsm.name and folded.initial == fsm.initial


def structural_findings(fsm):
    """``(rule, path)`` of every FSM001–FSM005 finding on *fsm*."""
    report = LintReport()
    structural_pass(fsm, "F", report)
    return [(d.rule, d.path) for d in report.diagnostics]


class TestReachability:
    def _fsm_with_orphan(self):
        build = FsmBuilder("F")
        with build.state("A") as state:
            state.go("B")
        with build.state("B", done=True) as state:
            state.stay()
        with build.state("Orphan") as state:
            state.stay()
        return build.build(initial="A")

    def test_reachable_states(self):
        fsm = self._fsm_with_orphan()
        assert reachable_states(fsm) == {"A", "B"}

    def test_remove_unreachable_states(self):
        fsm = self._fsm_with_orphan()
        trimmed = remove_unreachable_states(fsm)
        assert set(trimmed.states) == {"A", "B"}
        assert "Orphan" not in trimmed.states

    def test_structural_pass_reports_orphans(self):
        fsm = self._fsm_with_orphan()
        assert structural_findings(fsm) == [("FSM002", "F/Orphan")]

    def test_structural_pass_reports_unknown_target(self):
        build = FsmBuilder("F")
        with build.state("A") as state:
            state.go("Missing")
        fsm = build.build(initial="A")
        assert structural_findings(fsm) == [("FSM001", "F/A")]

    def test_structural_pass_reports_undeclared_variables(self):
        build = FsmBuilder("F")
        with build.state("A") as state:
            state.do(Assign("x", var("y") + 1))
            state.stay()
        report = LintReport()
        structural_pass(build.build(initial="A"), "F", report)
        assert [(d.rule, d.message) for d in report.diagnostics] == [
            ("FSM004", "variable 'y' is read but never declared"),
            ("FSM005", "variable 'x' is written but never declared"),
        ]

    def test_structural_pass_accepts_clean_fsm(self):
        build = FsmBuilder("F")
        build.variable("x", INT, 0)
        with build.state("A") as state:
            state.do(Assign("x", var("x") + 1))
            state.go("B", when=var("x").ge(2))
            state.stay()
        with build.state("B", done=True) as state:
            state.stay()
        assert structural_findings(build.build(initial="A")) == []

    def test_structural_pass_reports_trap_state(self):
        build = FsmBuilder("F")
        with build.state("A") as state:
            state.go("Dead")
        build.add_state("Dead")
        fsm = build.build(initial="A")
        assert structural_findings(fsm) == [("FSM003", "F/Dead")]


class TestVisitors:
    def test_variables_read_and_written(self):
        build = FsmBuilder("F")
        build.variable("a", INT, 0)
        build.variable("b", INT, 0)
        with build.state("S") as state:
            state.do(Assign("a", var("b") + 1), PortWrite("P", var("a")))
            state.call("Svc", args=[var("a")], store="b", then="S")
        fsm = build.build(initial="S")
        assert fsm.vars_read == ("a", "b")
        assert fsm.vars_written == ("a", "b")


class TestPrinter:
    def test_format_expr_infix(self):
        text = format_expr((var("a") + 1).eq(port("P")))
        assert text == "((a + 1) = P)"

    def test_format_stmt_if(self):
        text = format_stmt(If(var("a").eq(1), [Assign("b", 2)], [Assign("b", 3)]))
        assert "if (a = 1) then" in text
        assert "else" in text
        assert "end if;" in text

    def test_format_fsm_contains_states_and_variables(self):
        build = FsmBuilder("DEMO")
        build.variable("x", INT, 4)
        with build.state("First") as state:
            state.do(PortWrite("OUTP", var("x")))
            state.go("Second", when=var("x").ge(1))
        with build.state("Second", done=True) as state:
            state.stay()
        text = format_fsm(build.build(initial="First"))
        assert "fsm DEMO" in text
        assert "state First" in text
        assert "state Second [done]" in text
        assert "OUTP <= x;" in text
        assert "when (x >= 1) => goto Second" in text
