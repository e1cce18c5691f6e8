"""Differential property tests for PELS quiet-microcode horizons (hypothesis).

While every busy link runs quiet microcode (``wait`` countdowns and the
fetches of ``wait``, ``loop`` and ``jump_if``) and nothing else moves, PELS
promises the event kernel a horizon one past the shortest quiet run and
replays the ticks before it in one :meth:`~repro.core.pels.Pels.skip`.  The
claim is cycle-exact equivalence with dense stepping, so these tests run
random ``wait``/``loop``/``jump_if``/``action``/``write``/``capture``/``set``
microcode on 1–4 links — with ANY/ALL trigger conditions, loopback routes
between links, GPIO pad actions (passive, so replayed inside quiet runs)
alone and mixed with loopback bits in one mask, and external triggers that
land mid-wait (the FIFO fills and the horizon must fall back to 1) — under
the dense kernel, the event kernel, and the batch round loop, at several
``step()`` chunkings.  At every boundary they compare the
activity counters, the traced instant actions, the link records, the
execution units' statistics and wait counters, the trigger state, the
FIFO counters, and the GPIO latch, toggle count and
edge-detection history.
"""

from bisect import bisect_left
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.apb import ApbBus
from repro.core.config import PelsConfig
from repro.core.execution import ExecutionState
from repro.core.isa import Command, JumpCondition, encode_command
from repro.core.pels import (
    LINK_REG_ENABLE,
    LINK_REG_MASK,
    LINK_SCM_WINDOW,
    LINK_WINDOW_BASE,
    LINK_WINDOW_STRIDE,
    Pels,
)
from repro.core.trigger import TriggerCondition
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.sim import BatchSimulator, Simulator
from repro.sim.component import Component

EXTERNAL_LINES = ("ext.a", "ext.b")
SCM_LINES = 8
GPIO_BASE = 0x1000


class Stimulus(Component):
    """Pulses external fabric lines at fixed cycles."""

    def __init__(self, fabric, pulses):
        super().__init__("stimulus")
        self.fabric = fabric
        self.pulses = {}
        for cycle, line in pulses:
            self.pulses.setdefault(cycle, []).append(line)
        self.cycles = sorted(self.pulses)

    def tick(self, cycle):
        for line in self.pulses.get(cycle, ()):
            self.fabric.pulse(line)

    def next_event(self):
        now = self.simulator.current_cycle
        index = bisect_left(self.cycles, now)
        return self.cycles[index] - now + 1 if index < len(self.cycles) else None


@st.composite
def link_programs(draw):
    """A random program of up to SCM_LINES commands.

    It may hold several ``loop``s (sharing the one hardware counter), some
    with counts past the quiet-run walk cap, ``jump_if`` forward, backward or
    past the last line under every condition, and ``capture``/``set`` so the
    capture register, and with it the branch outcomes, vary.
    """
    commands = []
    for pc in range(draw(st.integers(min_value=1, max_value=SCM_LINES))):
        kind = draw(
            st.sampled_from(("wait", "wait", "action", "action", "write", "loop", "jump_if", "capture", "set", "end"))
        )
        if kind == "wait":
            cycles = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=64)))
            commands.append(Command.wait(cycles))
        elif kind == "action":
            # Group 2 first: its masks are all passive (see _build).
            group = draw(st.sampled_from((2, 0, 1)))
            commands.append(Command.action(group, draw(st.integers(min_value=1, max_value=7))))
        elif kind == "write":
            # Offset 6 is the GPIO's RISE_EVT register.
            offset = draw(st.integers(min_value=0, max_value=6))
            commands.append(Command.write(offset, draw(st.integers(min_value=0, max_value=0xFF))))
        elif kind == "loop" and pc > 0:
            target = draw(st.integers(min_value=0, max_value=pc - 1))
            count = draw(st.one_of(st.integers(min_value=0, max_value=3), st.integers(min_value=60, max_value=100)))
            commands.append(Command.loop(target, count))
        elif kind == "jump_if":
            target = draw(st.integers(min_value=0, max_value=SCM_LINES))
            condition = draw(st.sampled_from(tuple(JumpCondition)))
            commands.append(Command.jump_if(target, condition, draw(st.integers(min_value=0, max_value=3))))
        elif kind in ("capture", "set"):
            offset = draw(st.integers(min_value=0, max_value=5))
            mask = draw(st.sampled_from((0x1, 0x3, 0xFF)))
            commands.append(Command.capture(offset, mask) if kind == "capture" else Command.set(offset, mask))
        else:
            commands.append(Command.end())
    return commands


links = st.fixed_dictionaries(
    {
        "program": link_programs(),
        # Bits 0-1: external lines; bits 2-3: the two loopback lines.  Most
        # links listen to ``ext.a`` so that several links wait at once.
        "mask": st.one_of(st.integers(min_value=0, max_value=0xF), st.sampled_from((0x1, 0x5, 0x9))),
        "condition": st.sampled_from(tuple(TriggerCondition)),
        "enabled": st.sampled_from((True, True, True, False)),
    }
)

scenarios = st.fixed_dictionaries(
    {
        "links": st.lists(links, min_size=1, max_size=4),
        # Whether a rising edge on GPIO pad 0 pulses ``gpio.rise``.
        "rise_evt": st.integers(min_value=0, max_value=1),
        # Always an ``ext.a`` pulse at cycle 0, so that most draws start a
        # link even when their horizon ends before the other pulses.
        "pulses": st.lists(
            st.tuples(st.integers(min_value=0, max_value=1_200), st.sampled_from(EXTERNAL_LINES)),
            max_size=16,
        ).map(lambda pulses: [(0, "ext.a"), *pulses]),
        "chunks": st.lists(st.integers(min_value=1, max_value=300), min_size=1, max_size=5),
    }
)


def _build(scenario, dense=False):
    simulator = Simulator(dense=dense)
    fabric = EventFabric()
    for line in EXTERNAL_LINES:
        fabric.add_line(line, producer="stimulus")
    bus = ApbBus("apb")
    gpio = Gpio("gpio")
    gpio.connect_events(fabric)
    gpio.regs.write(gpio.register_offset("RISE_EVT"), scenario.get("rise_evt", 0))
    bus.attach_slave(GPIO_BASE, 0x1000, gpio)
    pels = Pels(PelsConfig(n_links=len(scenario["links"]), scm_lines=SCM_LINES), fabric, peripheral_bus=bus)
    # Group 0: bits 0-1 loop back, bit 2 toggles a pad (a mixed mask is no
    # passive action).  Group 1: bits 0-1 call back, bit 2 is unrouted.
    # Group 2: bits 0-2 drive the GPIO's passive pad inputs.
    loopbacks = [pels.add_loopback_line(f"loop{bit}") for bit in range(2)]
    for bit, line in enumerate(loopbacks):
        pels.route_action_to_fabric(group=0, bit=bit, line_name=line)
    pels.route_action_to_peripheral(group=0, bit=2, peripheral=gpio, port="toggle_pad0")
    for bit in range(2):
        pels.route_action_to_callback(group=1, bit=bit, label=f"sink{bit}", callback=lambda: None)
    for bit, port in enumerate(("toggle_pad0", "set_pad0", "clear_pad0")):
        pels.route_action_to_peripheral(group=2, bit=bit, peripheral=gpio, port=port)
    lines = [fabric.index_of(name) for name in (*EXTERNAL_LINES, *loopbacks)]
    for index, spec in enumerate(scenario["links"]):
        mask = 0
        for bit, line in enumerate(lines):
            if spec["mask"] >> bit & 1:
                mask |= 1 << line
        link = pels.program_link(index, spec["program"], trigger_mask=mask, condition=spec["condition"])
        link.set_base_address(GPIO_BASE)
        link.trigger.enabled = spec["enabled"]
    pels._sync_observed_lines()
    simulator.add_component(Stimulus(fabric, scenario["pulses"]))
    for component in (gpio, pels, bus):
        simulator.add_component(component)
    return simulator, pels, gpio


def _public(obj, *skip):
    return {key: value for key, value in vars(obj).items() if key not in skip}


def observe(simulator, pels, gpio):
    """Everything a WAIT-window skip must reproduce exactly."""
    links = []
    for link in pels.links:
        fifo = link.trigger.fifo
        links.append(
            (
                link.events_serviced,
                tuple(link.records),
                link._open_record,
                _public(link.execution, "scm", "bus_submit", "action_sink", "_pending_request"),
                _public(link.trigger, "fifo"),
                (tuple(fifo._entries), fifo.pushed, fifo.popped, fifo.dropped, fifo.high_watermark),
                (link.scm.read_count, link.scm.write_count),
            )
        )
    return (
        simulator.current_cycle,
        simulator.activity.as_dict(),
        # PELS traces every instant action at its base tick, so an action
        # replayed inside a skip shows up at the wrong cycle.
        tuple(simulator.traces.merged_timeline()),
        tuple(links),
        (pels.instant_actions_delivered, pels.unrouted_actions),
        (gpio.output_value, gpio.toggle_count, gpio._previous_out),
    )


def run_stepped(scenario, dense, between=None):
    """Step ``scenario`` chunk by chunk, observing at every boundary.

    ``between(boundary, pels, gpio)``, when given, then reconfigures PELS
    from the host before the next chunk (``boundary`` counts from 0).
    """
    simulator, pels, gpio = _build(scenario, dense=dense)
    observations = []
    for boundary, chunk in enumerate(scenario["chunks"]):
        simulator.step(chunk)
        observations.append(observe(simulator, pels, gpio))
        if between is not None:
            between(boundary, pels, gpio)
    return observations, simulator.kernel_stats


def run_batched(scenario, between=None):
    simulator, pels, gpio = _build(scenario)
    observations = []

    def stop(boundary):
        def at_stop(elapsed):
            observations.append(observe(simulator, pels, gpio))
            if between is not None:
                between(boundary, pels, gpio)

        return at_stop

    batch = BatchSimulator()
    batch.add(simulator, [(cycle, stop(boundary)) for boundary, cycle in enumerate(accumulate(scenario["chunks"]))])
    batch.run()
    return observations


class TestWaitWindowDifferential:
    @settings(max_examples=100, deadline=None)
    @given(scenarios)
    def test_every_kernel_matches_dense_at_every_boundary(self, scenario):
        dense, _ = run_stepped(scenario, dense=True)
        event, stats = run_stepped(scenario, dense=False)
        assert event == dense
        assert stats["dense_ticks"] + stats["cycles_skipped"] == sum(scenario["chunks"])
        assert run_batched(scenario) == dense


class TestWaitWindowHorizon:
    """Hand-built cases pinning the horizon itself, not just equivalence."""

    @staticmethod
    def _scenario(waits, pulses):
        """One link per entry of ``waits``, each running ``action; wait N; action``
        on every ``ext.a`` pulse."""
        program = [Command.action(1, 0x1), None, Command.action(1, 0x1), Command.end()]
        links = [
            {
                "program": [Command.wait(wait) if command is None else command for command in program],
                "mask": 0x1,
                "condition": TriggerCondition.ANY_SELECTED_ACTIVE,
                "enabled": True,
            }
            for wait in waits
        ]
        return {"links": links, "pulses": pulses, "chunks": [200]}

    def test_a_wait_window_is_skipped_in_one_span(self):
        scenario = self._scenario([40], [(0, "ext.a")])
        simulator, pels, _ = _build(scenario)
        simulator.step(3)  # trigger + start, fetch action, fetch wait
        assert pels.links[0].execution._wait_remaining == 40
        assert pels.next_event() == 41
        event, stats = run_stepped(scenario, dense=False)
        dense, dense_stats = run_stepped(scenario, dense=True)
        assert event == dense
        # The whole 40-tick countdown is replayed by one skip.
        assert stats["dense_ticks"] <= dense_stats["dense_ticks"] - 40

    def test_the_horizon_is_the_smallest_remaining_wait(self):
        scenario = self._scenario([30, 10, 20], [(0, "ext.a")])
        simulator, pels, _ = _build(scenario)
        simulator.step(3)
        assert [link.execution._wait_remaining for link in pels.links] == [30, 10, 20]
        assert pels.next_event() == 11
        assert run_stepped(scenario, dense=False)[0] == run_stepped(scenario, dense=True)[0]

    def test_a_loop_that_never_leaves_pels_is_cut_by_the_walk_cap(self):
        """``L: wait 3; jump_if L always`` never reaches an external command."""
        program = [Command.wait(3), Command.jump_if(0, JumpCondition.ALWAYS, 0)]
        link = {"program": program, "mask": 0x1, "condition": TriggerCondition.ANY_SELECTED_ACTIVE, "enabled": True}
        scenario = {"links": [link], "pulses": [(0, "ext.a")], "chunks": [1_000] * 5}
        dense, _ = run_stepped(scenario, dense=True)
        event, stats = run_stepped(scenario, dense=False)
        assert event == dense
        assert run_batched(scenario) == dense
        # Each horizon covers a capped walk (32 turns of the 5-tick loop),
        # not one tick and not the whole run.
        assert 5_000 // 161 <= stats["dense_ticks"] <= 5_000 // 64

    def test_every_jump_if_outcome_matches_dense(self):
        """``L: wait 3; jump_if L <cond> <operand>; action; end`` with the
        capture register at 0: each condition taken (a loop the walk cap
        cuts) and not taken (the walk must stop at the ``action``)."""
        for condition in JumpCondition:
            for operand in (0, 1):
                program = [
                    Command.wait(3),
                    Command.jump_if(0, condition, operand),
                    Command.action(1, 0x1),
                    Command.end(),
                ]
                link = {
                    "program": program,
                    "mask": 0x1,
                    "condition": TriggerCondition.ANY_SELECTED_ACTIVE,
                    "enabled": True,
                }
                scenario = {"links": [link], "pulses": [(0, "ext.a")], "chunks": [150, 150]}
                dense, _ = run_stepped(scenario, dense=True)
                assert run_stepped(scenario, dense=False)[0] == dense, (condition, operand)
                assert run_batched(scenario) == dense, (condition, operand)

    def test_a_trigger_landing_mid_wait_drops_the_horizon_to_one(self):
        scenario = self._scenario([40], [(0, "ext.a"), (20, "ext.a"), (25, "ext.a")])
        simulator, pels, _ = _build(scenario)
        simulator.step(21)  # through the mid-wait pulse at cycle 20
        link = pels.links[0]
        assert link.execution._wait_remaining > 1
        assert link.trigger.fifo.level == 1
        assert pels.next_event() == 1
        assert run_stepped(scenario, dense=False)[0] == run_stepped(scenario, dense=True)[0]

    @staticmethod
    def _blinker(group, mask):
        """The paper's blinker, ``BLINK: action <group> <mask>; wait 10;
        loop BLINK 3; end``, started by an ``ext.a`` pulse at cycle 0."""
        program = [Command.action(group, mask), Command.wait(10), Command.loop(0, 3), Command.end()]
        link = {"program": program, "mask": 0x1, "condition": TriggerCondition.ANY_SELECTED_ACTIVE, "enabled": True}
        return {"links": [link], "pulses": [(0, "ext.a")], "chunks": [30, 300]}

    def test_a_blinker_toggling_a_pad_runs_to_end_in_one_horizon(self):
        simulator, pels, _ = _build(self._blinker(2, 0x1))
        simulator.step(1)  # the trigger starts the link; it fetches the action next
        execution = pels.links[0].execution
        assert (execution.state, execution.pc) == (ExecutionState.FETCH, 0)
        # Four turns of action (1) + wait 10 (11) + loop (1); the tick after
        # them fetches ``end`` and finishes, so the run sets no bound.
        assert execution.quiet_run() == (4 * 13 + 1, True)
        assert pels.next_event() is None
        scenario = self._blinker(2, 0x1)
        dense, _ = run_stepped(scenario, dense=True)
        event, stats = run_stepped(scenario, dense=False)
        assert event == dense
        assert run_batched(scenario) == dense
        # Only the trigger is a dense tick.
        assert stats["dense_ticks"] <= 1
        simulator, _, gpio = _build(scenario)
        simulator.step(sum(scenario["chunks"]))
        actions = simulator.traces.trace("pels.action").changes()
        assert [action.cycle for action in actions] == [1, 14, 27, 40]
        assert gpio.toggle_count == 4

    def test_inside_run_until_the_blinker_ends_in_a_wake(self):
        """While ``run_until`` polls, the fetch of ``end`` bounds the horizon
        and is a dense tick, so the condition sees the record on its cycle."""
        scenario = self._blinker(2, 0x1)
        results = []
        for dense in (True, False):
            simulator, pels, _ = _build(scenario, dense=dense)
            simulator.step(1)
            horizons = []
            link = pels.links[0]

            def finished(pels=pels, link=link, horizons=horizons):
                horizons.append(pels.next_event())
                return link.last_record is not None

            cycles = simulator.run_until(finished, max_cycles=500)
            results.append((cycles, link.last_record, simulator.activity.as_dict()))
            if not dense:
                assert horizons[0] == 4 * 13 + 1
                assert simulator.kernel_stats["dense_ticks"] <= 2
        assert results[0] == results[1]

    def test_two_blinkers_trace_their_toggles_in_dense_order(self):
        """Links replay one after another inside a skip; their interleaved
        toggles must still be traced by cycle, then link."""
        scenario = self._blinker(2, 0x1)
        fast = [Command.action(2, 0x2), Command.wait(3), Command.loop(0, 3), Command.end()]
        scenario["links"].append(dict(scenario["links"][0], program=fast))
        dense, _ = run_stepped(scenario, dense=True)
        event, stats = run_stepped(scenario, dense=False)
        assert event == dense
        assert run_batched(scenario) == dense
        assert stats["cycles_skipped"] > stats["dense_ticks"]

    def test_a_blinker_action_that_is_not_passive_stays_a_wake(self):
        """The same blinker with its action looped back (group 0 bit 0), with
        a mask mixing a loopback bit and a pad bit (0x5), calling back, or
        with an unrouted bit next to a callback (group 1, 0x5)."""
        for group, mask in ((0, 0x1), (0, 0x5), (1, 0x1), (1, 0x5)):
            scenario = self._blinker(group, mask)
            simulator, pels, _ = _build(scenario)
            simulator.step(1)
            assert pels.links[0].execution.quiet_run() == (0, False), (group, mask)
            assert pels.next_event() == 1, (group, mask)
            dense, _ = run_stepped(scenario, dense=True)
            assert run_stepped(scenario, dense=False)[0] == dense, (group, mask)


def _link(program, mask=0x1):
    return {"program": program, "mask": mask, "condition": TriggerCondition.ANY_SELECTED_ACTIVE, "enabled": True}


class TestCrossLinkActionOrder:
    def test_set_and_toggle_from_two_links_leave_the_pad_as_dense(self):
        """Link 0 toggles pad 0 six times (``action 2 0x1; wait 3; loop 0 5;
        end``) while link 1 sets it once (``action 2 0x2; wait 40; end``),
        both started on cycle 0.  Inside a skip each link replays on its own,
        so the pad is only right when the replayed deliveries are made in
        dense order, by cycle and then link: toggle, set, then five toggles
        leave it low.  Delivering link 0's six toggles before link 1's set
        left it high."""
        toggler = [Command.action(2, 0x1), Command.wait(3), Command.loop(0, 5), Command.end()]
        setter = [Command.action(2, 0x2), Command.wait(40), Command.end()]
        scenario = {
            "links": [_link(toggler), _link(setter)],
            "pulses": [(0, "ext.a")],
            "chunks": [60, 60],
        }
        dense, _ = run_stepped(scenario, dense=True)
        event, stats = run_stepped(scenario, dense=False)
        assert dense[-1][-1] == (0, 6, 0)
        assert event == dense
        assert run_batched(scenario) == dense
        assert stats["dense_ticks"] <= 2


class TestLiveLinks:
    """PELS steps only its live links (busy, with a queued trigger, or with an
    open record); every host path that can change which links those are must
    leave the event and batched kernels equal to dense stepping."""

    @staticmethod
    def _scenario():
        """Link 0 blinks pad 0 on ``ext.a``; link 1 sets pad 0 and waits on
        ``ext.b``.  No ``ext.b`` pulse lands before cycle 250."""
        blinker = [Command.action(2, 0x1), Command.wait(10), Command.loop(0, 3), Command.end()]
        setter = [Command.action(2, 0x2), Command.wait(5), Command.end()]
        pulses = [(0, "ext.a"), (250, "ext.b"), (300, "ext.a"), (420, "ext.b"), (700, "ext.a"), (900, "ext.a")]
        return {
            "links": [_link(blinker, 0x1), _link(setter, 0x2)],
            "pulses": pulses,
            "chunks": [60, 80, 150, 200, 250, 300],
        }

    @staticmethod
    def _window_write(pels, link, register, value):
        pels.bus_write(LINK_WINDOW_BASE + link * LINK_WINDOW_STRIDE + register, value)

    def test_host_paths_between_steps_match_dense(self):
        def between(boundary, pels, gpio):
            if boundary == 0:
                # A trigger pushed straight into an idle link's FIFO.
                pels.links[1].trigger.fifo.push(0, 0)
            elif boundary == 1:
                # Disable link 0 and point link 1 at ``ext.a``.
                self._window_write(pels, 0, LINK_REG_ENABLE, 0)
                self._window_write(pels, 1, LINK_REG_MASK, 1 << pels.fabric.index_of("ext.a"))
            elif boundary == 2:
                # Link 1's set now loops back instead of reaching the pad.
                pels.route_action_to_fabric(group=2, bit=1, line_name="pels.loop0")
                self._window_write(pels, 0, LINK_REG_ENABLE, 1)
            elif boundary == 3:
                pels.program_link(0, [Command.action(2, 0x1), Command.wait(3), Command.end()], trigger_mask=0x1)
            elif boundary == 4:
                pels.reset()
                pels.program_link(1, [Command.action(2, 0x1), Command.wait(7), Command.end()], trigger_mask=0x1)

        scenario = self._scenario()
        dense, _ = run_stepped(scenario, dense=True, between=between)
        event, stats = run_stepped(scenario, dense=False, between=between)
        assert event == dense
        assert run_batched(scenario, between=between) == dense
        # The pushed trigger was serviced before any ``ext.b`` pulse.
        events_serviced = [observation[3][1][0] for observation in dense]
        assert events_serviced[:2] == [0, 1]
        assert stats["cycles_skipped"] > stats["dense_ticks"]


class TestMidRunReconfiguration:
    """The host rewrites microcode or re-routes an action line between
    steps while a link is inside a quiet run.  PELS's lookup tables (quiet
    runs per SCM, deliveries per route) must forget what the change made
    stale, so the event and batched kernels still match dense stepping."""

    @staticmethod
    def _blinkers():
        """Link 0 blinks a pad (``BLINK: action 2 0x1; wait 10; loop BLINK 6;
        end``) on each ``ext.a`` pulse, at cycles 0 and 200; link 1 listens
        to the ``pels.loop0`` loopback line and runs ``action 2 0x2; end``.
        The first boundary falls inside link 0's first quiet run, and the
        second run starts from the table entries the first one filled."""
        blinker = [Command.action(2, 0x1), Command.wait(10), Command.loop(0, 6), Command.end()]
        listener = [Command.action(2, 0x2), Command.end()]
        links = [
            {"program": program, "mask": mask, "condition": TriggerCondition.ANY_SELECTED_ACTIVE, "enabled": True}
            for program, mask in ((blinker, 0x1), (listener, 0x4))
        ]
        return {"links": links, "pulses": [(0, "ext.a"), (200, "ext.a")], "chunks": [20, 25, 300, 300]}

    @staticmethod
    def _window_write(pels, link, line, command):
        """Store ``command`` through the configuration window, high word first."""
        encoded = encode_command(command)
        offset = LINK_WINDOW_BASE + link * LINK_WINDOW_STRIDE + LINK_SCM_WINDOW + line * 8
        pels.bus_write(offset + 4, encoded >> 32)
        pels.bus_write(offset, encoded & 0xFFFF_FFFF)

    def _assert_kernels_agree(self, scenario, between):
        dense, _ = run_stepped(scenario, dense=True, between=between)
        event, stats = run_stepped(scenario, dense=False, between=between)
        assert event == dense
        assert run_batched(scenario, between=between) == dense
        return dense, stats

    def test_the_blinker_is_in_a_quiet_run_at_the_first_boundary(self):
        simulator, pels, _ = _build(self._blinkers())
        simulator.step(20)
        execution = pels.links[0].execution
        assert execution.state is ExecutionState.WAITING
        assert execution.quiet_run()[0] > 0
        assert execution.scm.quiet_runs

    def test_a_microcode_rewrite_through_the_config_window_mid_run(self):
        """Shorten the ``wait``, turn the ``loop`` into a loopback action (a
        wake that triggers link 1) or into ``write`` (a bus transfer), or
        make the pad action a loopback one, while link 0 counts down."""
        rewrites = (
            (1, Command.wait(3)),
            (2, Command.action(0, 0x1)),
            (2, Command.write(6, 0x1)),
            (0, Command.action(0, 0x1)),
        )
        for line, command in rewrites:

            def between(boundary, pels, gpio, line=line, command=command):
                if boundary == 0:
                    self._window_write(pels, 0, line, command)

            dense, _ = self._assert_kernels_agree(self._blinkers(), between)
            unchanged, _ = run_stepped(self._blinkers(), dense=True)
            assert dense[-1] != unchanged[-1], (line, command)

    def test_re_routing_a_passive_bit_to_a_loopback_mid_run(self):
        """The blinker's pad bit is re-routed to the loopback line (the
        action becomes a wake that triggers link 1) for the second run, then
        back to the pad."""

        def between(boundary, pels, gpio):
            if boundary == 0:
                pels.route_action_to_fabric(group=2, bit=0, line_name="pels.loop0")
            elif boundary == 2:
                pels.route_action_to_peripheral(group=2, bit=0, peripheral=gpio, port="toggle_pad0")

        dense, stats = self._assert_kernels_agree(self._blinkers(), between)
        events_serviced = dense[-1][3][1][0]
        assert events_serviced > 0  # the loopback reached link 1
        assert stats["cycles_skipped"] > 0
