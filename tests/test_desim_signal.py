"""Unit tests of signals."""

import pytest

from repro.desim.signal import ForceValue, ReleaseValue, Signal
from repro.utils.errors import ModelError


class TestSignal:
    def test_initial_value_and_name(self):
        signal = Signal("data", init=7)
        assert signal.name == "data"
        assert signal.value == 7
        assert signal.read() == 7
        assert signal.change_count == 0

    def test_invalid_name_rejected(self):
        with pytest.raises(ModelError):
            Signal("bad name")

    def test_stage_then_apply_changes_value_and_sets_event(self):
        signal = Signal("data", init=0)
        signal.stage(5)
        assert signal.value == 0, "staged value must not be visible before apply"
        changed = signal.apply_pending(now=100)
        assert changed is True
        assert signal.value == 5
        assert signal.event is True
        assert signal.last_changed == 100
        assert signal.change_count == 1

    def test_apply_without_pending_is_a_noop(self):
        signal = Signal("data", init=0)
        assert signal.apply_pending(now=10) is False
        assert signal.event is False

    def test_same_value_transaction_produces_no_event(self):
        signal = Signal("data", init=3)
        signal.stage(3)
        assert signal.apply_pending(now=50) is False
        assert signal.event is False
        assert signal.change_count == 0

    def test_last_stage_wins_within_one_delta(self):
        signal = Signal("data", init=0)
        signal.stage(1)
        signal.stage(2)
        signal.apply_pending(now=0)
        assert signal.value == 2

    def test_clear_event(self):
        signal = Signal("data", init=0)
        signal.stage(1)
        signal.apply_pending(now=0)
        signal.clear_event()
        assert signal.event is False
        assert signal.value == 1

    def test_reset_restores_initial_state(self):
        signal = Signal("data", init=9)
        signal.stage(1)
        signal.apply_pending(now=5)
        signal.reset()
        assert signal.value == 9
        assert signal.change_count == 0
        assert signal.last_changed == 0


class TestForceReleasePayloads:
    def test_compare_and_hash_by_value(self):
        assert ForceValue(3) == ForceValue(3)
        assert ForceValue(3) != ForceValue(4)
        assert ForceValue(1) != 1
        assert ReleaseValue() == ReleaseValue()
        assert ReleaseValue() != ForceValue(None)
        assert len({ForceValue(3), ForceValue(3), ReleaseValue(),
                    ReleaseValue()}) == 2
