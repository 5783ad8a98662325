"""Unit tests of IR expressions and statements."""

import pytest

from repro.ir.expr import BinOp, Const, PortRef, UnOp, Var, const, port, var, wrap
from repro.ir.stmt import Assign, If, Nop, PortWrite
from repro.utils.errors import ModelError


class TestExpressionConstruction:
    def test_const_accepts_scalars_and_strings(self):
        assert Const(5).value == 5
        assert Const("INIT").value == "INIT"
        assert Const(True).value is True

    def test_const_rejects_other_types(self):
        with pytest.raises(ModelError):
            Const(3.5)
        with pytest.raises(ModelError):
            Const([1, 2])

    def test_var_and_port_validate_names(self):
        assert Var("COUNT").name == "COUNT"
        assert PortRef("B_FULL").port_name == "B_FULL"
        with pytest.raises(ModelError):
            Var("not valid")
        with pytest.raises(ModelError):
            PortRef("signal")

    def test_binop_validates_operator(self):
        with pytest.raises(ModelError):
            BinOp("pow", Const(2), Const(3))

    def test_unop_validates_operator(self):
        with pytest.raises(ModelError):
            UnOp("sqrt", Const(4))

    def test_wrap_converts_scalars(self):
        wrapped = wrap(7)
        assert isinstance(wrapped, Const)
        assert wrap(wrapped) is wrapped
        with pytest.raises(ModelError):
            wrap(object())

    def test_factory_helpers(self):
        assert isinstance(const(1), Const)
        assert isinstance(var("x"), Var)
        assert isinstance(port("p"), PortRef)


class TestOperatorSugar:
    def test_arithmetic_operators_build_binops(self):
        expr = var("a") + 1
        assert isinstance(expr, BinOp) and expr.op == "add"
        assert (var("a") - var("b")).op == "sub"
        assert (var("a") * 2).op == "mul"

    def test_comparison_helpers(self):
        assert var("a").eq(1).op == "eq"
        assert var("a").ne(1).op == "ne"
        assert var("a").lt(1).op == "lt"
        assert var("a").le(1).op == "le"
        assert var("a").gt(1).op == "gt"
        assert var("a").ge(1).op == "ge"

    def test_logic_helpers(self):
        assert var("a").and_(var("b")).op == "and"
        assert var("a").or_(0).op == "or"

    def test_children_traversal(self):
        expr = (var("a") + 1).eq(port("p"))
        children = expr.children()
        assert len(children) == 2
        assert isinstance(children[0], BinOp)
        assert isinstance(children[1], PortRef)


class TestExpressionEquality:
    def test_structural_equality(self):
        assert var("x") == Var("x")
        assert const(3) == Const(3)
        assert (var("x") + 3) == BinOp("add", Var("x"), Const(3))

    def test_hashable(self):
        expressions = {var("x"), var("x"), const(1), port("p")}
        assert len(expressions) == 3


class TestStatements:
    def test_assign_validates_target(self):
        stmt = Assign("COUNT", var("COUNT") + 1)
        assert stmt.target == "COUNT"
        with pytest.raises(ModelError):
            Assign("bad name", 1)

    def test_portwrite_wraps_value(self):
        stmt = PortWrite("DATAIN", 5)
        assert isinstance(stmt.expr, Const)

    def test_if_holds_branches(self):
        stmt = If(var("a").eq(1), [Assign("x", 1)], [Assign("x", 2)])
        assert len(stmt.then) == 1
        assert len(stmt.orelse) == 1

    @pytest.mark.parametrize("then,orelse", [
        ([Assign("x", 1), var("x")], []),
        ([Assign("x", 1)], [5]),
    ])
    def test_if_refuses_a_non_statement_branch(self, then, orelse):
        with pytest.raises(ModelError, match="non-statement"):
            If(var("a").eq(1), then, orelse)

    def test_if_branches_are_frozen(self):
        stmt = If(var("a").eq(1), [Assign("x", 1)])
        assert isinstance(stmt.then, tuple) and stmt.orelse == ()
        for branch in (stmt.then, stmt.orelse):
            with pytest.raises(AttributeError):
                branch.append(Nop())
        assert len(stmt.then) == 1 and stmt.orelse == ()

    def test_nop_repr(self):
        assert "Nop" in repr(Nop())
