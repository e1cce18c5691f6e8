"""Configurable peripheral-event interconnect (the Section II-B baseline).

This models the class of systems the paper groups under "peripheral-event
interconnect": Silicon Labs PRS, Nordic PPI, Microchip EVSYS, Renesas LELC.
Their common structure is a set of **channels**; each channel selects one or
more producer event lines, optionally combines them with a small
combinational function (AND / OR / LUT-style), and forwards the result to
one or two consumer *tasks* — hard-wired, built-in peripheral actions
delivered over single-wire lines.

Strengths and limits are exactly as Table I states:

* instant actions with fixed single-cycle latency — supported;
* sequenced actions (arbitrary register accesses over the bus) — **not**
  supported: anything beyond the built-in task set still needs the CPU;
* consumers must be co-designed to expose event inputs.

The model plugs into the same :class:`~repro.peripherals.events.EventFabric`
as PELS so the ablation benchmarks can swap one for the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.peripherals.events import EventFabric
from repro.sim.component import Component

# One channel may fan out to at most two tasks (the Nordic PPI restriction,
# the most permissive of the surveyed channel-based systems).
MAX_TASKS_PER_CHANNEL = 2


class ChannelFunction(enum.Enum):
    """Combinational function applied to the selected producer events."""

    ANY = "any"     # OR of the selected events
    ALL = "all"     # AND of the selected events
    NONE = "none"   # forward the first selected event unmodified

    def evaluate(self, levels: Sequence[bool]) -> bool:
        """Whether the channel fires for the sampled producer levels."""
        if not levels:
            return False
        if self is ChannelFunction.ANY:
            return any(levels)
        if self is ChannelFunction.ALL:
            return all(levels)
        return levels[0]


@dataclass
class Channel:
    """One producer-to-task route of the event interconnect."""

    index: int
    producer_lines: List[str] = field(default_factory=list)
    function: ChannelFunction = ChannelFunction.ANY
    tasks: List[Callable[[], None]] = field(default_factory=list)
    task_labels: List[str] = field(default_factory=list)
    enabled: bool = True
    fire_count: int = field(default=0, init=False)

    def add_task(self, label: str, deliver: Callable[[], None]) -> None:
        """Attach a built-in consumer action; at most two per channel."""
        if len(self.tasks) >= MAX_TASKS_PER_CHANNEL:
            raise ValueError(
                f"channel {self.index}: at most {MAX_TASKS_PER_CHANNEL} tasks per channel "
                "(the limitation of channel-based event systems, cf. Table I note b)"
            )
        self.tasks.append(deliver)
        self.task_labels.append(label)


class EventInterconnect(Component):
    """Channel-based event router with built-in actions only.

    The latency from a producer pulse to the consumer task is one cycle
    (sampled at the router's clock edge), matching the "predictable, low
    event latency" property of the surveyed systems.
    """

    def __init__(
        self, name: str = "event_interconnect", fabric: Optional[EventFabric] = None, n_channels: int = 8
    ) -> None:
        super().__init__(name)
        if n_channels < 1:
            raise ValueError("the event interconnect needs at least one channel")
        self.fabric = fabric
        self.channels: List[Channel] = [Channel(index=index) for index in range(n_channels)]
        self.total_fires = 0
        self.last_fire_cycle: Optional[int] = None
        self._last_trigger_cycles: dict[int, int] = {}
        #: Line names currently declared observed per channel (consumer-aware
        #: wake protocol; see EventFabric.observe).
        self._observed_by_channel: dict[int, List[str]] = {}

    # ------------------------------------------------------------ configuration

    def connect_fabric(self, fabric: EventFabric) -> None:
        """Attach the interconnect to the SoC event fabric."""
        if self.fabric is not None:
            raise RuntimeError(f"{self.name}: fabric already connected")
        self.fabric = fabric

    def channel(self, index: int) -> Channel:
        """Return channel ``index``."""
        if not 0 <= index < len(self.channels):
            raise IndexError(f"channel index {index} out of range [0, {len(self.channels)})")
        return self.channels[index]

    def configure_channel(
        self,
        index: int,
        producer_lines: Sequence[str],
        function: ChannelFunction = ChannelFunction.ANY,
        enabled: bool = True,
    ) -> Channel:
        """Select the producer events and combination function of one channel."""
        if self.fabric is None:
            raise RuntimeError(f"{self.name}: connect_fabric() must be called first")
        for line_name in producer_lines:
            self.fabric.line(line_name)  # validate early
        channel = self.channel(index)
        channel.producer_lines = list(producer_lines)
        channel.function = ChannelFunction(function)
        channel.enabled = enabled
        self._sync_observed(channel)
        return channel

    def _sync_observed(self, channel: Channel) -> None:
        """Reconcile the fabric observer table with one channel's config.

        An enabled channel samples its producer lines every pulse cycle, so
        those lines are consumed; reconfiguring or disabling the channel
        retracts the old declarations.  Channels must be reconfigured through
        :meth:`configure_channel`, not by mutating the dataclass directly.
        """
        assert self.fabric is not None
        for line_name in self._observed_by_channel.pop(channel.index, []):
            self.fabric.unobserve(line_name)
        if channel.enabled and channel.producer_lines:
            for line_name in channel.producer_lines:
                self.fabric.observe(line_name)
            self._observed_by_channel[channel.index] = list(channel.producer_lines)

    def route_to_peripheral(self, index: int, peripheral, port: str) -> None:
        """Attach a peripheral's built-in event input as a channel task."""
        channel = self.channel(index)

        def deliver() -> None:
            peripheral.sync()
            peripheral.on_event_input(port)

        channel.add_task(f"{peripheral.name}.{port}", deliver)

    def route_to_callback(self, index: int, label: str, callback: Callable[[], None]) -> None:
        """Attach an arbitrary callback as a channel task (tests, co-simulation)."""
        self.channel(index).add_task(label, callback)

    # ---------------------------------------------------------------- behaviour

    def tick(self, cycle: int) -> None:
        if self.fabric is None:
            return
        fired_any = False
        for channel in self.channels:
            if not channel.enabled or not channel.producer_lines or not channel.tasks:
                continue
            levels = [self.fabric.is_active(name) for name in channel.producer_lines]
            if not channel.function.evaluate(levels):
                continue
            for deliver in channel.tasks:
                deliver()
            channel.fire_count += 1
            self.total_fires += 1
            self.last_fire_cycle = cycle
            self._last_trigger_cycles[channel.index] = cycle
            fired_any = True
            self.record("channel_fires")
        if fired_any:
            self.record("busy_cycles")
        else:
            self.record("idle_cycles")

    # ------------------------------------------------------------ wake protocol

    def next_event(self):
        # Channels sample the fabric's single-cycle pulses, which are only
        # raised inside dense ticks (a producer's wake), so the router needs
        # a real tick exactly while a pulse is waiting to be observed.  An
        # unconnected router never ticks usefully at all.
        if self.fabric is not None and self.fabric.active_mask():
            return 1
        return None

    def skip(self, cycles: int) -> None:
        if self.fabric is None or self.fabric.active_mask():
            return
        # A dense tick with no active producer lines fires nothing and
        # records one idle cycle.
        self.record("idle_cycles", cycles)

    # ------------------------------------------------------------------ queries

    def channel_latency_cycles(self) -> int:
        """Event-to-task latency of this baseline (fixed single cycle)."""
        return 1

    @property
    def supports_sequenced_actions(self) -> bool:
        """Table I: channel-based interconnects cannot issue bus transactions."""
        return False

    def reset(self) -> None:
        for channel in self.channels:
            channel.fire_count = 0
        self.total_fires = 0
        self.last_fire_cycle = None
        self._last_trigger_cycles.clear()
