"""Tests for the trigger unit (mask, AND/OR condition, FIFO front end)."""

import pytest

from repro.core.trigger import TriggerCondition, TriggerUnit


class TestTriggerUnit:
    def test_disabled_unit_never_fires(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b1, enabled=False)
        assert not trigger.evaluate(0b1, cycle=0)
        assert trigger.pending == 0

    def test_zero_mask_never_fires(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0)
        assert not trigger.evaluate(0xFFFF_FFFF, cycle=0)

    def test_or_condition_any_selected_active(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b110, condition=TriggerCondition.ANY_SELECTED_ACTIVE)
        assert trigger.evaluate(0b010, cycle=1)
        assert trigger.evaluate(0b100, cycle=2)
        assert not trigger.evaluate(0b001, cycle=3)
        assert trigger.triggers == 2

    def test_and_condition_all_selected_active(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b110, condition=TriggerCondition.ALL_SELECTED_ACTIVE)
        assert not trigger.evaluate(0b010, cycle=1)
        assert trigger.evaluate(0b110, cycle=2)
        assert trigger.evaluate(0b111, cycle=3)

    def test_triggers_buffered_in_fifo(self):
        trigger = TriggerUnit(fifo_depth=2)
        trigger.configure(mask=0b1)
        trigger.evaluate(0b1, cycle=1)
        trigger.evaluate(0b1, cycle=2)
        trigger.evaluate(0b1, cycle=3)  # dropped
        assert trigger.pending == 2
        assert trigger.fifo.dropped == 1

    def test_last_trigger_cycle(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b1)
        trigger.evaluate(0b1, cycle=7)
        assert trigger.last_trigger_cycle == 7

    def test_masked_snapshot_stored(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b011)
        trigger.evaluate(0b111, cycle=0)
        assert trigger.fifo.peek().events_snapshot == 0b011

    def test_negative_mask_rejected(self):
        trigger = TriggerUnit()
        with pytest.raises(ValueError):
            trigger.configure(mask=-1)

    def test_status_word(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b1, condition=TriggerCondition.ALL_SELECTED_ACTIVE)
        trigger.evaluate(0b1, cycle=0)
        status = trigger.status_word()
        assert status & 0xFF == 1          # FIFO level
        assert status & (1 << 8)           # enabled
        assert status & (1 << 9)           # AND condition

    def test_condition_mnemonics(self):
        assert TriggerCondition.ANY_SELECTED_ACTIVE.mnemonic == "OR"
        assert TriggerCondition.ALL_SELECTED_ACTIVE.mnemonic == "AND"

    def test_reset(self):
        trigger = TriggerUnit()
        trigger.configure(mask=0b1)
        trigger.evaluate(0b1, cycle=0)
        trigger.reset()
        assert trigger.mask == 0
        assert not trigger.enabled
        assert trigger.pending == 0
        assert trigger.triggers == 0
