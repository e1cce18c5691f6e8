"""PELS top level.

Wires together:

* the incoming **event broadcast**: every cycle the active event-line vector
  of the :class:`~repro.peripherals.events.EventFabric` is presented to every
  link's trigger unit;
* the **links** themselves;
* the **instant-action routing**: outgoing single-wire event lines are
  organised in groups; each (group, bit) position can be routed to a
  peripheral event input, looped back into the event fabric (inter-link
  triggering, marker 9 in Figure 2), or left unconnected;
* the **memory-mapped configuration interface** through which the main CPU
  programs trigger masks, conditions, base addresses, and microcode.

PELS is itself a bus slave (for configuration) *and* a bus master (its links
issue sequenced actions on the peripheral interconnect).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bus.apb import ApbBus
from repro.bus.transaction import BusRequest
from repro.core.assembler import Program
from repro.core.config import PelsConfig
from repro.core.execution import ExecutionState
from repro.core.isa import Command, decode_command
from repro.core.link import Link
from repro.core.scm import ScmTraffic
from repro.core.trigger import TriggerCondition
from repro.peripherals.events import EventFabric
from repro.sim.component import Component
from repro.sim.simulator import SimulationError

# Register map constants (byte offsets within the PELS configuration window).
REG_GLOBAL_CTRL = 0x000
REG_NUM_LINKS = 0x004
REG_SCM_LINES = 0x008
REG_EVENT_COUNT = 0x00C
LINK_WINDOW_BASE = 0x100
LINK_WINDOW_STRIDE = 0x100
LINK_REG_ENABLE = 0x00
LINK_REG_MASK = 0x04
LINK_REG_CONDITION = 0x08
LINK_REG_BASE_ADDR = 0x0C
LINK_REG_STATUS = 0x10
LINK_REG_CAPTURE = 0x14
LINK_SCM_WINDOW = 0x40  # each SCM line occupies two words: data word, then {opcode, field}

GLOBAL_ENABLE_BIT = 0x1

#: Most entries :attr:`Pels._deliveries` holds; a full table starts over, so
#: microcode rewritten with ever new action masks cannot grow it.
DELIVERY_TABLE_LIMIT = 256


@dataclass(frozen=True)
class ActionTarget:
    """Destination of one outgoing instant-action line.

    ``deliver`` calls ``peripheral.on_event_input(port)``
    (:meth:`Pels.route_action_to_peripheral`), pulses a fabric line next
    cycle — the loopback path used for inter-link triggering
    (:meth:`Pels.route_action_to_fabric`) — or invokes an arbitrary callable,
    used by tests and by co-designed peripherals
    (:meth:`Pels.route_action_to_callback`).  ``label`` names it in traces.
    """

    label: str
    deliver: Callable[[], None]


#: What one ``action group mask`` of one link does under the current routes:
#: the link's ``instant_actions_link{i}`` activity name, the routed bits'
#: ``(deliver, trace label)`` pairs in bit order, and how many set bits have
#: no route.
_Delivery = Tuple[str, Tuple[Tuple[Callable[[], None], str], ...], int]


# The wiring callables below are module-level classes rather than closures:
# each holds only a reference to its PELS instance, so a fully built SoC
# graph stays plain, picklable Python data.


class _BusSubmit:
    """Bus-master hook: count the sequenced transfer, then submit."""

    __slots__ = ("pels",)

    def __init__(self, pels: "Pels") -> None:
        self.pels = pels

    def __call__(self, request: BusRequest) -> BusRequest:
        bus = self.pels.peripheral_bus
        assert bus is not None
        self.pels.record("sequenced_transfers")
        return bus.submit(request)


class _ActionSink:
    """Per-link outgoing action line feeding :meth:`Pels._deliver_action`."""

    __slots__ = ("pels", "link_index")

    def __init__(self, pels: "Pels", link_index: int) -> None:
        self.pels = pels
        self.link_index = link_index

    def __call__(self, group: int, mask: int, toggle: bool, cycle: int) -> None:
        self.pels._deliver_action(self.link_index, group, mask, toggle, cycle)

    def passive(self, group: int, mask: int) -> bool:
        """Whether ``action group mask`` only reaches passive inputs.

        True when ``mask`` is non-zero and every set bit is routed to an
        input in its peripheral's ``passive_inputs``.  Such an action may be
        replayed inside a quiet run (:meth:`Pels.skip`).
        """
        return mask != 0 and mask & self.pels._passive_masks.get(group, 0) == mask


class _LiveLinkWatch:
    """FIFO push hook: a link with a queued trigger is live (:meth:`Pels._revive`)."""

    __slots__ = ("pels", "link")

    def __init__(self, pels: "Pels", link: Link) -> None:
        self.pels = pels
        self.link = link

    def __call__(self) -> None:
        self.pels._revive(self.link)


class _PeripheralDelivery:
    """Routed instant action: pulse one peripheral event input."""

    __slots__ = ("peripheral", "port")

    def __init__(self, peripheral, port: str) -> None:
        self.peripheral = peripheral
        self.port = port

    def __call__(self) -> None:
        self.peripheral.sync()
        self.peripheral.on_event_input(self.port)


class _FabricLoopback:
    """Routed instant action: re-inject a fabric line pulse next cycle."""

    __slots__ = ("pels", "line_name")

    def __init__(self, pels: "Pels", line_name: str) -> None:
        self.pels = pels
        self.line_name = line_name

    def __call__(self) -> None:
        self.pels._pending_loopback.append(self.line_name)


class Pels(Component):
    """The Peripheral Event Linking System."""

    def __init__(
        self,
        config: PelsConfig,
        fabric: EventFabric,
        peripheral_bus: Optional[ApbBus] = None,
        name: str = "pels",
    ) -> None:
        super().__init__(name)
        self.config = config
        self.fabric = fabric
        self.peripheral_bus = peripheral_bus
        self._enabled = True
        #: Union of enabled links' trigger masks currently declared observed
        #: on the fabric (consumer-aware wake protocol).
        self._observed_mask = 0
        submit = _BusSubmit(self) if peripheral_bus is not None else None
        self.links: List[Link] = [
            Link(
                index=index,
                config=config.link_config(index),
                bus_submit=submit,
                action_sink=_ActionSink(self, index),
            )
            for index in range(config.n_links)
        ]
        # (group, bit) -> ActionTarget
        self._action_routes: Dict[Tuple[int, int], ActionTarget] = {}
        #: (link, group, mask) -> the delivery :meth:`_deliver_action` makes,
        #: derived from the routes (see ``_Delivery``).
        self._deliveries: Dict[Tuple[int, int, int], _Delivery] = {}
        #: group -> bits routed to a passive peripheral input.
        self._passive_masks: Dict[int, int] = {}
        #: ``(cycle, deliver, label)`` of the actions a :meth:`skip` replays,
        #: delivered and traced once the skip has run every link; ``None``
        #: outside a skip.
        self._replayed_actions: Optional[List[Tuple[int, Callable[[], None], str]]] = None
        #: The links a tick steps, in index order (see :attr:`Link.live`).
        self._live: List[Link] = []
        for link in self.links:
            link.trigger.fifo.on_push = _LiveLinkWatch(self, link)
        self._pending_loopback: List[str] = []
        self.instant_actions_delivered = 0
        self.unrouted_actions = 0
        #: SCM traffic of every link, and how much of it the activity
        #: counters already hold.
        self._scm_traffic = ScmTraffic()
        for link in self.links:
            link.scm.traffic = self._scm_traffic
        self._scm_reads_seen = 0
        self._scm_writes_seen = 0

    # ------------------------------------------------------------ action routing

    def route_action_to_peripheral(self, group: int, bit: int, peripheral, port: str) -> None:
        """Connect output line (``group``, ``bit``) to a peripheral event input."""
        target = ActionTarget(label=f"{peripheral.name}.{port}", deliver=_PeripheralDelivery(peripheral, port))
        self._route(group, bit, target, passive=port in peripheral.passive_inputs)

    def route_action_to_fabric(self, group: int, bit: int, line_name: str) -> None:
        """Loop output line (``group``, ``bit``) back into the event fabric.

        The pulse is applied at the start of the *next* cycle, modelling the
        registered loopback path that enables inter-link triggering.
        """
        self.fabric.line(line_name)  # validate early
        target = ActionTarget(label=line_name, deliver=_FabricLoopback(self, line_name))
        self._route(group, bit, target, passive=False)

    def route_action_to_callback(self, group: int, bit: int, label: str, callback: Callable[[], None]) -> None:
        """Connect output line (``group``, ``bit``) to an arbitrary callback."""
        self._route(group, bit, ActionTarget(label=label, deliver=callback), passive=False)

    def add_loopback_line(self, name: str) -> str:
        """Create a dedicated fabric line for inter-link triggering and return its name."""
        line = self.fabric.add_line(f"{self.name}.{name}", producer=self.name)
        return line.name

    def _route(self, group: int, bit: int, target: ActionTarget, passive: bool) -> None:
        if not 0 <= group < self.config.action_groups:
            raise ValueError(f"action group {group} out of range [0, {self.config.action_groups})")
        if not 0 <= bit < self.config.action_group_width:
            raise ValueError(f"action bit {bit} out of range [0, {self.config.action_group_width})")
        self._action_routes[(group, bit)] = target
        passive_mask = self._passive_masks.get(group, 0) & ~(1 << bit)
        if passive:
            passive_mask |= 1 << bit
        self._passive_masks[group] = passive_mask
        # Both tables derive from the routes.
        self._deliveries.clear()
        for link in self.links:
            link.scm.quiet_runs.clear()

    def _deliver_action(self, link_index: int, group: int, mask: int, toggle: bool, cycle: int) -> None:
        key = (link_index, group, mask)
        delivery = self._deliveries.get(key)
        if delivery is None:
            delivery = self._learn_delivery(key)
        counter, targets, unrouted = delivery
        self.record("instant_actions")
        self.record(counter)
        self.unrouted_actions += unrouted
        replayed = self._replayed_actions
        for deliver, label in targets:
            self.instant_actions_delivered += 1
            if replayed is not None:
                replayed.append((cycle, deliver, label))
                continue
            deliver()
            if self.is_attached:
                self.simulator.trace(f"{self.name}.action", label)

    def _learn_delivery(self, key: Tuple[int, int, int]) -> _Delivery:
        """Resolve ``mask``'s bits in ``group`` against the routes and enter the result."""
        link_index, group, mask = key
        targets = []
        unrouted = 0
        for bit in range(self.config.action_group_width):
            if not mask & (1 << bit):
                continue
            target = self._action_routes.get((group, bit))
            if target is None:
                unrouted += 1
            else:
                targets.append((target.deliver, f"link{link_index}->{target.label}"))
        if len(self._deliveries) >= DELIVERY_TABLE_LIMIT:
            self._deliveries.clear()
        delivery = self._deliveries[key] = (f"instant_actions_link{link_index}", tuple(targets), unrouted)
        return delivery

    # ------------------------------------------------------- host-side configuration

    def link(self, index: int) -> Link:
        """Return link ``index``."""
        if not 0 <= index < len(self.links):
            raise IndexError(f"link index {index} out of range")
        return self.links[index]

    def program_link(
        self,
        index: int,
        program: Program | List[Command],
        trigger_mask: int,
        condition: TriggerCondition = TriggerCondition.ANY_SELECTED_ACTIVE,
        base_address: int = 0,
    ) -> Link:
        """Convenience host-side configuration of one link in a single call."""
        link = self.link(index)
        link.load_program(program)
        link.configure_trigger(trigger_mask, condition, enabled=True)
        link.set_base_address(base_address)
        self._sync_observed_lines()
        return link

    # ------------------------------------------------------- consumer awareness

    @property
    def enabled(self) -> bool:
        """Global PELS enable (mirrors REG_GLOBAL_CTRL bit 0)."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = bool(value)
        self._sync_observed_lines()

    def _sync_observed_lines(self) -> None:
        """Reconcile the fabric's observer table with the trigger config.

        A line is consumed by PELS iff the global enable is set and some
        enabled link's trigger mask selects it; producers of lines that stop
        (or start) being consumed are notified through the fabric so their
        cached wake horizons re-bound on the exact cycle.  Must be called by
        every trigger-configuration path (``program_link``, the register
        window, ``reset``); links must not be reconfigured behind PELS's
        back.
        """
        mask = 0
        if self._enabled:
            for link in self.links:
                if link.trigger.enabled:
                    mask |= link.trigger.mask
        mask &= (1 << len(self.fabric)) - 1
        changed = mask ^ self._observed_mask
        index = 0
        while changed:
            if changed & 1:
                if (mask >> index) & 1:
                    self.fabric.observe(index)
                else:
                    self.fabric.unobserve(index)
            changed >>= 1
            index += 1
        self._observed_mask = mask

    # ----------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        # 1. Apply loopback pulses produced by instant actions last cycle.
        if self._pending_loopback:
            for line_name in self._pending_loopback:
                self.fabric.pulse(line_name)
                self.record("loopback_pulses")
            self._pending_loopback = []
        # 2. Broadcast the current event vector.  A step of a link that is
        #    not live does nothing unless the vector hits its mask, so only
        #    the live links and those the vector hits are stepped.
        events = self.fabric.active_mask() if self.enabled else 0
        live = self._live
        if events & self._observed_mask:
            for link in self.links:
                if events & link.trigger.mask or link.live:
                    link.step(events, cycle)
            live = self._live  # with the links that triggered (see _revive)
        else:
            for link in live:
                link.step(events, cycle)
        busy_links = 0
        for link in live:
            if link.busy:
                busy_links += 1
            else:
                self._park(link)
        if busy_links:
            self.record("busy_cycles")
            self.record("link_busy_cycles", busy_links)
        else:
            self.record("idle_cycles")
        # 3. Attribute this cycle's SCM traffic to PELS for the power model.
        self._record_scm_traffic()
        # 4. Event pulses are single-cycle: clear them after all links sampled.
        self.fabric.end_cycle()

    def _revive(self, link: Link) -> None:
        """Step ``link`` on every tick: a trigger was queued in its FIFO.

        Called by the FIFO (``TriggerFifo.on_push``), so a trigger pushed
        from the host between steps is serviced too.  A link only becomes
        :attr:`~Link.live` through a trigger, so no other path needs this.
        """
        if link not in self._live:
            self._live = [other for other in self.links if other is link or other in self._live]

    def _park(self, link: Link) -> None:
        """Stop stepping ``link`` once it is no longer :attr:`~Link.live`."""
        if not link.live and link in self._live:
            self._live = [other for other in self._live if other is not link]

    def _record_scm_traffic(self) -> None:
        traffic = self._scm_traffic
        if traffic.reads != self._scm_reads_seen:
            self.record("scm_reads", traffic.reads - self._scm_reads_seen)
            self._scm_reads_seen = traffic.reads
        if traffic.writes != self._scm_writes_seen:
            self.record("scm_writes", traffic.writes - self._scm_writes_seen)
            self._scm_writes_seen = traffic.writes

    # ------------------------------------------------------------ wake protocol

    def next_event(self) -> Optional[int]:
        """Cycles until the next tick that does more than run quiet microcode.

        ``None`` when every link is quiescent.  When every busy link is in a
        quiet run (:meth:`~repro.core.execution.ExecutionUnit.quiet_run`:
        ``wait`` countdowns and the fetches of ``wait``, ``loop``,
        ``jump_if`` and passive ``action`` commands, which :meth:`skip`
        replays), one past the shortest run.  An ``action`` is passive when
        its mask is non-zero and every set bit is routed to a peripheral's
        passive input (:meth:`_ActionSink.passive`); an unrouted bit, a
        loopback or a callback keeps it a wake.  A run that ends in the
        fetch of ``end`` (or of a line past the SCM) sets no bound: the
        link is idle after it, and :meth:`skip` replays the finish at its
        own cycle.  While :meth:`~repro.sim.simulator.Simulator.run_until`
        polls a condition (``SimState.polling``) that fetch stays a wake,
        because it changes what such conditions read on the exact cycle:
        ``busy``, ``last_record`` and ``events_serviced``.  ``1`` whenever
        anything else is in motion: a registered loopback pulse to apply,
        an event on the fabric to broadcast (PELS also owns the
        end-of-cycle pulse clearing), a link about to fetch any other
        command or on the bus, queued triggers, a completed event record
        awaiting closure, or SCM traffic (e.g. host-side microcode
        programming) not yet attributed to the activity counters.  Only
        live links (:attr:`Link.live`) are visited.
        """
        if self._pending_loopback or self.fabric.active_mask():
            return 1
        traffic = self._scm_traffic
        if traffic.reads != self._scm_reads_seen or traffic.writes != self._scm_writes_seen:
            return 1
        horizon = None
        for link in self._live:
            if not link.trigger.fifo.empty:
                return 1
            execution = link.execution
            if execution.state is ExecutionState.IDLE:
                if link._open_record is not None:
                    return 1
                continue
            ticks, finishes = execution.quiet_run()
            if not finishes:
                bound = ticks + 1
            elif self._polling():
                bound = ticks
            else:
                continue
            if bound <= 1:
                return 1
            if horizon is None or bound < horizon:
                horizon = bound
        return horizon

    def _polling(self) -> bool:
        """Whether ``run_until`` is polling a condition on this PELS's simulator."""
        simulator = self._simulator
        return simulator is not None and simulator._state.polling

    def skip(self, cycles: int) -> None:
        """Replay ``cycles`` ticks inside the horizon :meth:`next_event` promised.

        Each live link replays its quiet run on its own (links do not
        interact inside it), finishing at its own cycle when the run ends
        in ``end``; the other links have nothing to replay.  The
        passive actions replayed are delivered at their own cycles and
        traced at their own base ticks, in the order dense ticks make them
        (by cycle, then link), so one link's ``set_pad0`` and another's
        ``toggle_pad0`` leave the pad as dense mode does.  The activity
        matches what the dense ticks record: ``busy_cycles`` for the longest
        busy prefix, ``link_busy_cycles`` for the sum of the links' busy
        prefixes, ``idle_cycles`` for the rest, and the SCM reads of the
        replayed fetches.  Raises :class:`SimulationError` when asked to
        replay a tick that would do real work, so a scheduler bug cannot
        silently drop cycles.
        """
        horizon = self.next_event()
        if horizon is not None and cycles >= horizon:
            raise SimulationError(
                f"{self.name}: cannot skip {cycles} cycles; its next tick that does work is {horizon} away"
            )
        live = self._live
        if not live:
            self.record("idle_cycles", cycles)
            return
        longest = total = 0
        replayed = self._replayed_actions = []
        try:
            first = self.simulator.current_cycle
            for link in live:
                busy = link.skip_quiet(cycles, first)
                total += busy
                if busy > longest:
                    longest = busy
                if busy < cycles:
                    self._park(link)
        finally:
            self._replayed_actions = None
        if replayed:
            replayed.sort(key=itemgetter(0))  # stable: links in order within a cycle
            signal = f"{self.name}.action"
            record = self.simulator.traces.record
            for cycle, deliver, label in replayed:
                deliver()
                record(cycle, signal, label)
        if longest:
            self.record("busy_cycles", longest)
            self.record("link_busy_cycles", total)
        if longest < cycles:
            self.record("idle_cycles", cycles - longest)
        self._record_scm_traffic()

    def reset(self) -> None:
        for link in self.links:
            link.reset()
        self._live = []
        self._pending_loopback = []
        self.instant_actions_delivered = 0
        self.unrouted_actions = 0
        self._scm_reads_seen = self._scm_traffic.reads
        self._scm_writes_seen = self._scm_traffic.writes
        self.enabled = True

    # --------------------------------------------------------- bus slave interface

    def bus_read(self, offset: int) -> int:
        """Configuration-window read (PELS as an APB slave)."""
        self.record("config_reads")
        if offset == REG_GLOBAL_CTRL:
            return GLOBAL_ENABLE_BIT if self.enabled else 0
        if offset == REG_NUM_LINKS:
            return self.config.n_links
        if offset == REG_SCM_LINES:
            return self.config.scm_lines
        if offset == REG_EVENT_COUNT:
            return len(self.fabric)
        link, local = self._decode_link_offset(offset)
        if link is None:
            return 0
        if local == LINK_REG_ENABLE:
            return int(link.trigger.enabled)
        if local == LINK_REG_MASK:
            return link.trigger.mask
        if local == LINK_REG_CONDITION:
            return int(link.trigger.condition)
        if local == LINK_REG_BASE_ADDR:
            return link.execution.base_address
        if local == LINK_REG_STATUS:
            return link.status_word()
        if local == LINK_REG_CAPTURE:
            return link.execution.capture_register
        line, is_high_word = self._decode_scm_offset(local, link)
        if line is not None:
            encoded = link.scm.read_line(line)
            return (encoded >> 32) & 0xFFFF if is_high_word else encoded & 0xFFFF_FFFF
        return 0

    def bus_write(self, offset: int, value: int) -> None:
        """Configuration-window write (PELS as an APB slave)."""
        self.record("config_writes")
        if offset == REG_GLOBAL_CTRL:
            self.enabled = bool(value & GLOBAL_ENABLE_BIT)
            return
        link, local = self._decode_link_offset(offset)
        if link is None:
            return
        if local == LINK_REG_ENABLE:
            link.trigger.enabled = bool(value & 0x1)
            self._sync_observed_lines()
        elif local == LINK_REG_MASK:
            link.trigger.mask = value
            self._sync_observed_lines()
        elif local == LINK_REG_CONDITION:
            link.trigger.condition = TriggerCondition(value & 0x1)
        elif local == LINK_REG_BASE_ADDR:
            link.set_base_address(value)
        else:
            line, is_high_word = self._decode_scm_offset(local, link)
            if line is None:
                return
            encoded = link.scm.read_line(line)
            if is_high_word:
                encoded = (encoded & 0xFFFF_FFFF) | ((value & 0xFFFF) << 32)
            else:
                encoded = (encoded & (0xFFFF << 32)) | (value & 0xFFFF_FFFF)
            link.scm.write_line(line, encoded)
            # Validate eagerly so a malformed microcode write fails loudly.
            decode_command(encoded)

    def _decode_link_offset(self, offset: int) -> Tuple[Optional[Link], int]:
        if offset < LINK_WINDOW_BASE:
            return None, 0
        index = (offset - LINK_WINDOW_BASE) // LINK_WINDOW_STRIDE
        local = (offset - LINK_WINDOW_BASE) % LINK_WINDOW_STRIDE
        if index >= len(self.links):
            return None, 0
        return self.links[index], local

    def _decode_scm_offset(self, local: int, link: Link) -> Tuple[Optional[int], bool]:
        if local < LINK_SCM_WINDOW:
            return None, False
        word_index = (local - LINK_SCM_WINDOW) // 4
        line = word_index // 2
        if line >= link.scm.lines:
            return None, False
        return line, bool(word_index % 2)

    # ------------------------------------------------------------------ queries

    @property
    def window_size(self) -> int:
        """Size in bytes of the configuration address window."""
        return LINK_WINDOW_BASE + LINK_WINDOW_STRIDE * self.config.n_links

    @property
    def busy(self) -> bool:
        """Whether any link is currently servicing an event."""
        return any(link.busy for link in self.links)

    def total_events_serviced(self) -> int:
        """Linking events serviced across all links since reset."""
        return sum(link.events_serviced for link in self.links)
