"""PELS's lookup tables agree with a fresh walk of the configuration.

``ExecutionUnit.quiet_run`` looks quiet runs up in the SCM's
``quiet_runs`` table and ``Pels._deliver_action`` looks routes up in
``Pels._deliveries``.  Both are caches of a walk over the SCM lines and the
action routes, so every SCM write (line store, config window, program load,
``clear``) and every re-route must invalidate them.  The property test here
drives random sequences of those changes and deliveries and, after each,
compares a grid of lookups, the run's length and whether it finishes the
sequence, with the uncached walk (``ExecutionUnit._walk_quiet_run``); each
delivery is compared with one resolved from the routes by hand.
"""

from itertools import count, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.apb import ApbBus
from repro.core.config import PelsConfig
from repro.core.execution import ExecutionState
from repro.core.isa import Command, JumpCondition, encode_command
from repro.core.pels import LINK_SCM_WINDOW, LINK_WINDOW_BASE, LINK_WINDOW_STRIDE, Pels
from repro.core.scm import QUIET_RUN_TABLE_LIMIT
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.sim import Simulator
from repro.sim.simulator import SimulationError

N_LINKS = 2
SCM_LINES = 6
GROUPS = 2
BITS = 3
PAD_PORTS = ("toggle_pad0", "set_pad0", "clear_pad0")
#: ``BLINK: action 0 0x1; wait 10; loop BLINK 3; end`` from its first fetch:
#: four turns of action (1) + wait 10 (11) + loop (1), then the fetch of
#: ``end``, which finishes the sequence.
BLINKER_RUN = (4 * 13 + 1, True)


def commands():
    """Mostly quiet commands, so runs are long and a stale entry shows."""
    line = st.integers(min_value=0, max_value=SCM_LINES)
    small = st.integers(min_value=0, max_value=3)
    group = st.integers(min_value=0, max_value=GROUPS - 1)
    quiet = st.one_of(
        st.builds(Command.wait, st.integers(min_value=0, max_value=9)),
        st.builds(Command.loop, small, st.sampled_from((0, 1, 2, 70))),
        st.builds(Command.jump_if, line, st.sampled_from(tuple(JumpCondition)), st.integers(min_value=0, max_value=1)),
        st.builds(Command.action, group, st.integers(min_value=0, max_value=7)),
    )
    loud = st.one_of(
        st.builds(Command.write, small, small),
        st.builds(Command.capture, small, st.just(0xFF)),
        st.just(Command.end()),
    )
    return st.one_of(quiet, quiet, quiet, loud)


link_index = st.integers(min_value=0, max_value=N_LINKS - 1)
scm_line = st.integers(min_value=0, max_value=SCM_LINES - 1)
operations = st.one_of(
    st.tuples(st.just("store"), link_index, scm_line, commands()),
    st.tuples(st.just("window"), link_index, scm_line, commands()),
    st.tuples(st.just("load"), link_index, st.lists(commands(), max_size=SCM_LINES)),
    st.tuples(st.just("clear"), link_index),
    st.tuples(
        st.just("route"),
        st.integers(min_value=0, max_value=GROUPS - 1),
        st.integers(min_value=0, max_value=BITS - 1),
        st.sampled_from(("pad", "loopback", "callback")),
        st.sampled_from(PAD_PORTS),
    ),
    st.tuples(
        st.just("deliver"),
        link_index,
        st.integers(min_value=0, max_value=GROUPS - 1),
        st.integers(min_value=0, max_value=(1 << BITS) - 1),
    ),
)


def _build():
    fabric = EventFabric()
    gpio = Gpio("gpio")
    gpio.connect_events(fabric)
    pels = Pels(PelsConfig(n_links=N_LINKS, scm_lines=SCM_LINES), fabric, peripheral_bus=ApbBus("apb"))
    loopback = pels.add_loopback_line("loop")
    return pels, gpio, loopback


def _window_write(pels, link, line, command):
    """Store ``command`` through the PELS configuration window, as the CPU does."""
    encoded = encode_command(command)
    offset = LINK_WINDOW_BASE + link * LINK_WINDOW_STRIDE + LINK_SCM_WINDOW + line * 8
    pels.bus_write(offset + 4, encoded >> 32)
    pels.bus_write(offset, encoded & 0xFFFF_FFFF)


def _probe(execution):
    """Look up a small grid of states, so entries an earlier probe filled are
    met again after the next change; each must match the uncached walk."""
    for state, pc, loop_remaining, capture in product(
        (ExecutionState.FETCH, ExecutionState.WAITING), range(3), (None, 1), (0, 1)
    ):
        execution.state = state
        execution.pc = pc
        execution._loop_remaining = loop_remaining
        execution.capture_register = capture
        execution._wait_remaining = 5
        start = pc + 1 if state is ExecutionState.WAITING else pc
        ticks, finishes, _ = execution._walk_quiet_run(start, loop_remaining)
        if state is ExecutionState.WAITING:
            ticks += 5
        assert execution.quiet_run() == (ticks, finishes), (state, pc, loop_remaining, capture)


class TestTablesMatchAFreshWalk:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.lists(commands(), max_size=SCM_LINES), min_size=N_LINKS, max_size=N_LINKS),
        st.lists(operations, min_size=1, max_size=30),
    )
    def test_every_lookup_matches_the_uncached_walk(self, programs, ops):
        pels, gpio, loopback = _build()
        routes = {}  # (group, bit) -> the kind and target the test routed
        for bit, port in enumerate(PAD_PORTS):
            pels.route_action_to_peripheral(0, bit, gpio, port)
            routes[(0, bit)] = ("pad", port)
        for link, program in zip(pels.links, programs):
            link.load_program(program)
        called = []
        callback_ids = count()  # a re-routed bit gets a new label: a stale route shows
        for op in ops:
            kind = op[0]
            if kind == "store":
                _, link, line, command = op
                pels.links[link].scm.store(line, command)
            elif kind == "window":
                _, link, line, command = op
                _window_write(pels, link, line, command)
            elif kind == "load":
                _, link, program = op
                pels.links[link].load_program(program)
            elif kind == "clear":
                pels.links[op[1]].scm.clear()
            elif kind == "route":
                _, group, bit, target, port = op
                if target == "pad":
                    pels.route_action_to_peripheral(group, bit, gpio, port)
                    routes[(group, bit)] = ("pad", port)
                elif target == "loopback":
                    pels.route_action_to_fabric(group, bit, loopback)
                    routes[(group, bit)] = ("loopback", loopback)
                else:
                    label = f"callback{next(callback_ids)}"
                    pels.route_action_to_callback(group, bit, label, lambda label=label: called.append(label))
                    routes[(group, bit)] = ("callback", label)
            else:
                _, link, group, mask = op
                expected = [routes.get((group, bit)) for bit in range(BITS) if mask >> bit & 1]
                before = (pels.instant_actions_delivered, pels.unrouted_actions, gpio.toggle_count)
                called.clear()
                pels._pending_loopback = []
                pels._deliver_action(link, group, mask, False, 0)
                routed = [route for route in expected if route is not None]
                assert pels.instant_actions_delivered - before[0] == len(routed)
                assert pels.unrouted_actions - before[1] == len(expected) - len(routed)
                assert called == [label for target, label in routed if target == "callback"]
                assert pels._pending_loopback == [line for target, line in routed if target == "loopback"]
                toggles = sum(1 for target, port in routed if (target, port) == ("pad", "toggle_pad0"))
                assert gpio.toggle_count - before[2] == toggles
            for link in pels.links:
                _probe(link.execution)
                assert len(link.scm.quiet_runs) <= QUIET_RUN_TABLE_LIMIT + 1


class TestQuietRunTableKeys:
    @staticmethod
    def _link(program):
        pels, gpio, _ = _build()
        pels.route_action_to_peripheral(0, 0, gpio, "toggle_pad0")
        link = pels.links[0]
        link.load_program(program)
        link.execution.state = ExecutionState.FETCH
        return link.execution

    def test_every_scm_change_and_re_route_empties_the_table(self):
        blinker = [Command.action(0, 0x1), Command.wait(10), Command.loop(0, 3), Command.end()]
        changes = (
            lambda pels, gpio: pels.links[0].scm.store(1, Command.wait(2)),
            lambda pels, gpio: _window_write(pels, 0, 1, Command.wait(2)),
            lambda pels, gpio: pels.links[0].load_program(blinker[:2]),
            lambda pels, gpio: pels.links[0].scm.clear(),
            lambda pels, gpio: pels.route_action_to_fabric(0, 0, "pels.loop"),
            lambda pels, gpio: pels.route_action_to_callback(0, 0, "sink", lambda: None),
        )
        for change in changes:
            pels, gpio, _ = _build()
            pels.route_action_to_peripheral(0, 0, gpio, "toggle_pad0")
            link = pels.links[0]
            link.load_program(blinker)
            link.execution.state = ExecutionState.FETCH
            assert link.execution.quiet_run() == BLINKER_RUN
            change(pels, gpio)
            assert link.scm.quiet_runs == {}
            assert link.execution.quiet_run() == link.execution._walk_quiet_run(0, None)[:2] != BLINKER_RUN

    def test_a_run_without_jump_if_ignores_the_capture_register(self):
        execution = self._link([Command.action(0, 0x1), Command.wait(10), Command.loop(0, 3), Command.end()])
        for capture in range(1_000):
            execution.capture_register = capture
            assert execution.quiet_run() == BLINKER_RUN
        assert execution.scm.quiet_runs == {(0, None): BLINKER_RUN}

    def test_the_finishing_run_is_a_horizon_only_inside_run_until(self):
        """The blinker's run ends in ``end``: no bound while stepping, and
        the ``end`` fetch as the wake while ``run_until`` polls."""
        pels, gpio, _ = _build()
        pels.route_action_to_peripheral(0, 0, gpio, "toggle_pad0")
        simulator = Simulator()
        simulator.add_component(pels)
        link = pels.links[0]
        link.load_program([Command.action(0, 0x1), Command.wait(10), Command.loop(0, 3), Command.end()])
        simulator.step(1)  # attribute the programming traffic
        link.trigger.fifo.push(0, 0)
        simulator.step(1)  # the queued trigger starts the link
        assert link.execution.quiet_run() == BLINKER_RUN
        assert pels.next_event() is None
        horizons = []
        simulator.run_until(lambda: horizons.append(pels.next_event()) or True)
        assert horizons == [BLINKER_RUN[0]]
        assert link.scm.quiet_runs == {(0, None): BLINKER_RUN}

    def test_captured_values_cannot_grow_the_table_past_its_bound(self):
        """A run crossing ``jump_if`` is keyed on the capture register too;
        sensor data feeds that register, so the table must stay bounded."""
        execution = self._link([Command.wait(2), Command.jump_if(0, JumpCondition.GT, 500), Command.end()])
        for capture in range(3 * QUIET_RUN_TABLE_LIMIT):
            execution.capture_register = capture
            expected = execution._walk_quiet_run(0, None)[:2]
            assert execution.quiet_run() == expected
            assert len(execution.scm.quiet_runs) <= QUIET_RUN_TABLE_LIMIT + 1
        # A capture at or below 500 falls through to ``end`` after one turn
        # (4 ticks, then the fetch of ``end``); above it the jump loops until
        # the walk cap (32 turns of 4 ticks) and the run does not finish.
        execution.capture_register = 500
        assert execution.quiet_run() == (5, True)
        execution.capture_register = 501
        assert execution.quiet_run() == (32 * 4, False)


class TestSkipGuard:
    @staticmethod
    def _waiting():
        """``wait 20; wait 30; end`` on one link, counting down ``wait 20``."""
        simulator = Simulator()
        fabric = EventFabric()
        fabric.add_line("ext", producer="test")
        bus = ApbBus("apb")
        pels = Pels(PelsConfig(n_links=1, scm_lines=4), fabric, peripheral_bus=bus)
        pels.program_link(0, [Command.wait(20), Command.wait(30), Command.end()], trigger_mask=0x1)
        simulator.add_component(pels)
        simulator.add_component(bus)
        fabric.pulse("ext")
        simulator.step(3)  # trigger, start, fetch ``wait 20``
        execution = pels.links[0].execution
        assert execution.state is ExecutionState.WAITING
        return simulator, pels, execution

    def test_skip_raises_when_a_rewrite_turns_a_quiet_command_into_write(self):
        """The run ends in ``end``, so PELS promised no bound; once ``wait``
        becomes ``write`` the promise is stale: ``skip`` must re-derive it
        from the rewritten SCM and refuse."""
        _, pels, execution = self._waiting()
        assert execution.quiet_run() == (execution._wait_remaining + 31 + 1, True)
        assert pels.next_event() is None
        pels.links[0].scm.store(1, Command.write(0, 0x1))
        pels._record_scm_traffic()  # the write is attributed: only the run decides now
        assert pels.next_event() == execution._wait_remaining + 1
        with pytest.raises(SimulationError):
            pels.skip(execution._wait_remaining + 31)

    def test_inside_run_until_the_promise_ends_at_the_end_fetch(self):
        simulator, pels, execution = self._waiting()

        def probe():
            promised = pels.next_event()
            assert promised == execution._wait_remaining + 31 + 1
            pels.links[0].scm.store(1, Command.write(0, 0x1))
            pels._record_scm_traffic()
            assert pels.next_event() == execution._wait_remaining + 1
            with pytest.raises(SimulationError):
                pels.skip(promised - 1)
            return True

        simulator.run_until(probe)
