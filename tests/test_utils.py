"""Unit tests of repro.utils: errors, identifiers, text, worker pool."""

import os
import signal
import time

import pytest

from repro.lint import Diagnostic
from repro.utils.errors import (
    ModelError,
    ReproError,
    SimulationError,
    SynthesisError,
    ValidationError,
    ViewError,
)
from repro.utils.ids import check_identifier, unique_name
from repro.utils.pool import PoolError, WorkerPool
from repro.utils.text import format_table, indent_block


class TestErrors:
    def test_all_errors_derive_from_repro_error(self):
        for exc in (ModelError, SimulationError, SynthesisError, ViewError):
            assert issubclass(exc, ReproError)

    def test_validation_error_renders_its_diagnostics(self):
        findings = [Diagnostic("IF001", "error", "module/A", "first problem"),
                    Diagnostic("FSM003", "error", "module/B/F/S", "second")]
        error = ValidationError(iter(findings))
        assert error.diagnostics == findings
        assert str(error) == (
            "model validation failed: "
            "error   IF001    module/A: first problem; "
            "error   FSM003   module/B/F/S: second")

    def test_validation_error_is_a_model_error(self):
        assert issubclass(ValidationError, ModelError)


class TestCheckIdentifier:
    def test_accepts_simple_names(self):
        assert check_identifier("B_FULL") == "B_FULL"
        assert check_identifier("SetupControl") == "SetupControl"
        assert check_identifier("x1") == "x1"

    def test_rejects_empty_and_non_string(self):
        with pytest.raises(ModelError):
            check_identifier("")
        with pytest.raises(ModelError):
            check_identifier(None)
        with pytest.raises(ModelError):
            check_identifier(42)

    def test_rejects_leading_digit_and_bad_chars(self):
        with pytest.raises(ModelError):
            check_identifier("1abc")
        with pytest.raises(ModelError):
            check_identifier("with space")
        with pytest.raises(ModelError):
            check_identifier("with-dash")

    def test_rejects_vhdl_incompatible_underscores(self):
        with pytest.raises(ModelError):
            check_identifier("double__underscore")
        with pytest.raises(ModelError):
            check_identifier("trailing_")

    def test_rejects_reserved_words_case_insensitive(self):
        for word in ("signal", "Case", "WAIT", "int", "switch"):
            with pytest.raises(ModelError):
                check_identifier(word)

    def test_error_message_names_the_role(self):
        with pytest.raises(ModelError, match="port name"):
            check_identifier("bad name", "port name")

    def test_repeated_names_keep_their_verdicts_and_messages(self):
        for _ in range(2):
            assert check_identifier("RepeatMe") == "RepeatMe"
            for what in ("port name", "state name"):
                with pytest.raises(ModelError) as excinfo:
                    check_identifier("bad__name", what)
                assert str(excinfo.value) == (
                    f"{what} 'bad__name' is not portable to VHDL "
                    "(underscore rule)")
        with pytest.raises(ModelError, match="non-empty string"):
            check_identifier(b"RepeatMe")

    def test_memo_of_valid_names_is_bounded(self):
        from repro.utils import ids

        for index in range(ids._VALID_LIMIT + 10):
            check_identifier(f"N{index}")
        assert 0 < len(ids._VALID) <= ids._VALID_LIMIT


class TestUniqueName:
    def test_generates_distinct_names(self):
        fresh = unique_name("tmp")
        names = {fresh() for _ in range(100)}
        assert len(names) == 100
        assert all(name.startswith("tmp") for name in names)

    def test_prefix_is_validated(self):
        with pytest.raises(ModelError):
            unique_name("bad prefix")

    def test_independent_factories_do_not_share_state(self):
        first = unique_name("a")
        second = unique_name("a")
        assert first() == second() == "a1"


class TestText:
    def test_indent_block_indents_non_empty_lines(self):
        text = "line1\n\nline2"
        indented = indent_block(text, levels=2, width=2)
        lines = indented.splitlines()
        assert lines[0] == "    line1"
        assert lines[1] == ""
        assert lines[2] == "    line2"

    def test_format_table_aligns_columns(self):
        table = format_table(["name", "value"], [("a", 1), ("longer", 22)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("| name")
        assert all(line.startswith("|") and line.endswith("|") for line in lines)

    def test_format_table_handles_empty_rows(self):
        table = format_table(["only", "header"], [])
        assert "only" in table
        assert len(table.splitlines()) == 2

    def test_format_table_converts_cells_to_strings(self):
        table = format_table(["k", "v"], [("x", None), ("y", 3.5)])
        assert "None" in table
        assert "3.5" in table


def _double(value):
    return value * 2


def _die_on_seven(value):
    if value == 7:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.01)
    return value * 2


class TestWorkerPool:
    def test_map_preserves_order(self):
        with WorkerPool(2) as pool:
            assert pool.map(_double, range(8)) == [v * 2 for v in range(8)]

    def test_map_of_nothing_is_empty(self):
        with WorkerPool(2) as pool:
            assert pool.map(_double, []) == []

    def test_pool_error_derives_from_repro_error(self):
        assert issubclass(PoolError, ReproError)

    def test_dead_worker_raises_pool_error_naming_the_item(self):
        """An OOM-killed/crashed worker must not hang the batch.

        Without detection this is an infinite wait: ``multiprocessing``
        replaces the dead process but the task it carried is lost, so
        ``Pool.map`` never returns.  The pool must notice the PID
        disappearing and fail the batch with the first unfinished index.
        """
        start = time.monotonic()
        with WorkerPool(2) as pool:
            with pytest.raises(PoolError) as info:
                pool.map(_die_on_seven, range(16), chunksize=1)
        assert time.monotonic() - start < 30
        assert info.value.item_index is not None
        assert 0 <= info.value.item_index < 16
        assert f"item {info.value.item_index} of 16" in str(info.value)

    def test_broken_pool_refuses_further_maps(self):
        pool = WorkerPool(2)
        try:
            with pytest.raises(PoolError):
                pool.map(_die_on_seven, range(16), chunksize=1)
            with pytest.raises(PoolError, match="broken"):
                pool.map(_double, range(4))
        finally:
            pool.close()

    def test_exceptional_context_exit_terminates_promptly(self):
        """Unwinding an exception through the pool must not join-hang."""
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="unrelated"):
            with WorkerPool(2) as pool:
                pool.map(_double, range(4))
                raise RuntimeError("unrelated failure mid-batch")
        assert time.monotonic() - start < 30
