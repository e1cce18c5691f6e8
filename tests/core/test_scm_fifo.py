"""Tests for the SCM instruction memory and the trigger FIFO."""

import pytest

from repro.core.fifo import TriggerFifo
from repro.core.isa import Command, Opcode
from repro.core.scm import ScmMemory, scm_bits


class TestScmMemory:
    def test_store_and_fetch(self):
        scm = ScmMemory(4)
        scm.store(0, Command.write(1, 0xAB))
        fetched = scm.fetch(0)
        assert fetched.opcode is Opcode.WRITE
        assert fetched.data == 0xAB

    def test_access_counters(self):
        scm = ScmMemory(4)
        scm.store(0, Command.end())
        scm.fetch(0)
        scm.fetch(0)
        assert scm.peek(0).opcode is Opcode.END  # a lookahead is not a read
        assert scm.write_count == 1
        assert scm.read_count == 2
        assert (scm.traffic.reads, scm.traffic.writes) == (2, 1)

    def test_load_program_pads_with_end(self):
        scm = ScmMemory(4)
        scm.load_program([Command.write(1, 2)])
        contents = scm.dump()
        assert contents[0].opcode is Opcode.WRITE
        assert all(command.opcode is Opcode.END for command in contents[1:])

    def test_program_too_large_rejected(self):
        """A link's flexibility is bounded by its SCM size (the Figure 6a trade-off)."""
        scm = ScmMemory(4)
        program = [Command.write(0, 0)] * 5
        with pytest.raises(ValueError):
            scm.load_program(program)

    def test_out_of_range_access_rejected(self):
        scm = ScmMemory(4)
        with pytest.raises(IndexError):
            scm.read_line(4)
        with pytest.raises(IndexError):
            scm.write_line(-1, 0)

    def test_oversized_encoded_value_rejected(self):
        scm = ScmMemory(2)
        with pytest.raises(ValueError):
            scm.write_line(0, 1 << 48)

    def test_clear(self):
        scm = ScmMemory(2)
        scm.store(0, Command.write(1, 2))
        scm.fetch(0)
        scm.clear()
        assert scm.read_count == 0
        assert scm.write_count == 0
        assert scm.dump()[0].opcode is Opcode.END
        # The running total PELS attributes from never goes down.
        assert (scm.traffic.reads, scm.traffic.writes) == (1, 1)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            ScmMemory(0)

    def test_paper_scm_sizes(self):
        """The paper sweeps 4, 6, and 8 command lines per link."""
        for lines in (4, 6, 8):
            scm = ScmMemory(lines)
            assert len(scm) == lines

    def test_scm_bits_helper(self):
        assert scm_bits(4) == 4 * 48 + 32
        assert scm_bits(4, optional_capture_register=False) == 192
        with pytest.raises(ValueError):
            scm_bits(0)

    def test_dump_does_not_count_reads(self):
        scm = ScmMemory(2)
        scm.dump()
        assert scm.read_count == 0


class TestTriggerFifo:
    def test_push_pop_order(self):
        fifo = TriggerFifo(4)
        fifo.push(1, 0b01)
        fifo.push(5, 0b10)
        first = fifo.pop()
        second = fifo.pop()
        assert first.cycle == 1 and first.events_snapshot == 0b01
        assert second.cycle == 5
        assert fifo.pop() is None

    def test_overflow_drops_and_counts(self):
        fifo = TriggerFifo(2)
        assert fifo.push(0, 1)
        assert fifo.push(1, 1)
        assert not fifo.push(2, 1)
        assert fifo.dropped == 1
        assert fifo.level == 2

    def test_peek_does_not_remove(self):
        fifo = TriggerFifo(2)
        fifo.push(3, 0xF)
        assert fifo.peek().cycle == 3
        assert fifo.level == 1

    def test_flags(self):
        fifo = TriggerFifo(1)
        assert fifo.empty and not fifo.full
        fifo.push(0, 1)
        assert fifo.full and not fifo.empty

    def test_high_watermark(self):
        fifo = TriggerFifo(4)
        fifo.push(0, 1)
        fifo.push(1, 1)
        fifo.pop()
        fifo.push(2, 1)
        assert fifo.high_watermark == 2

    def test_statistics_and_clear(self):
        fifo = TriggerFifo(4)
        fifo.push(0, 1)
        fifo.pop()
        fifo.clear()
        assert fifo.pushed == 0 and fifo.popped == 0 and len(fifo) == 0

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            TriggerFifo(0)
