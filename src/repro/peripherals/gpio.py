"""General-purpose I/O block.

The GPIO is the canonical *consumer* peripheral in the paper's examples: a
PELS sequenced action toggles a pad through the ``toggle``/``set``/``clear``
register semantics, or an instant action drives the pad directly through a
single-wire event input (the "set AGPIO MASK" alternative in Figure 3).
"""

from __future__ import annotations

from repro.peripherals.base import Peripheral
from repro.peripherals.events import EventFabric

GPIO_WIDTH = 32


class Gpio(Peripheral):
    """A 32-bit GPIO bank with direction, output, set/clear/toggle registers.

    Register map (byte offsets):

    ========  =========  =======================================================
    offset    name       function
    ========  =========  =======================================================
    0x00      DIR        1 = output, 0 = input, per pad
    0x04      OUT        output latch (read back current latch)
    0x08      IN         input sample (read only)
    0x0C      SET        write-1-to-set pads in OUT
    0x10      CLEAR      write-1-to-clear pads in OUT
    0x14      TOGGLE     write-1-to-toggle pads in OUT
    0x18      RISE_EVT   pads whose rising edge pulses the ``rise`` event line
    ========  =========  =======================================================
    """

    #: The pad inputs only touch ``OUT`` and ``toggle_count``: the instant
    #: path never runs edge detection, and the GPIO has no tick or wake.
    passive_inputs = frozenset({"set_pad0", "clear_pad0", "toggle_pad0"})

    def __init__(self, name: str = "gpio") -> None:
        super().__init__(name)
        self.regs.define("DIR", 0x00)
        self.regs.define("OUT", 0x04, on_write=self._on_out_write)
        self.regs.define("IN", 0x08, writable_mask=0)
        self.regs.define("SET", 0x0C, on_write=self._on_set)
        self.regs.define("CLEAR", 0x10, on_write=self._on_clear)
        self.regs.define("TOGGLE", 0x14, on_write=self._on_toggle)
        self.regs.define("RISE_EVT", 0x18)
        self.toggle_count = 0
        self._previous_out = 0

    # --------------------------------------------------------------- events

    def declare_events(self, fabric: EventFabric) -> None:
        self.add_output_event("rise")

    def on_event_input(self, local_name: str) -> None:
        """Instant-action input: ``set_pad0`` sets pad 0, ``toggle_pad0`` toggles it."""
        super().on_event_input(local_name)
        out = self.regs.reg("OUT")
        if local_name == "set_pad0":
            out.set_bits(0x1)
        elif local_name == "clear_pad0":
            out.clear_bits(0x1)
        elif local_name == "toggle_pad0":
            out.hw_write(out.value ^ 0x1)
            self.toggle_count += 1

    # ----------------------------------------------------------- register hooks

    def _on_out_write(self, value: int) -> None:
        self._detect_edges()

    def _on_set(self, value: int) -> None:
        self.regs.reg("OUT").set_bits(value)
        self.regs.reg("SET").hw_write(0)
        self._detect_edges()

    def _on_clear(self, value: int) -> None:
        self.regs.reg("OUT").clear_bits(value)
        self.regs.reg("CLEAR").hw_write(0)
        self._detect_edges()

    def _on_toggle(self, value: int) -> None:
        out = self.regs.reg("OUT")
        out.hw_write(out.value ^ value)
        self.regs.reg("TOGGLE").hw_write(0)
        self.toggle_count += 1
        self._detect_edges()

    def _detect_edges(self) -> None:
        current = self.regs.reg("OUT").value
        rising = current & ~self._previous_out
        watch = self.regs.reg("RISE_EVT").value
        if rising & watch and self._fabric is not None:
            self.emit_event("rise")
        self._previous_out = current

    # ----------------------------------------------------------------- queries

    @property
    def output_value(self) -> int:
        """Current value of the output latch."""
        return self.regs.reg("OUT").value

    def pad(self, index: int) -> bool:
        """Logic level currently driven on pad ``index``."""
        if not 0 <= index < GPIO_WIDTH:
            raise ValueError(f"pad index must be in [0, {GPIO_WIDTH})")
        return bool((self.output_value >> index) & 0x1)

    def drive_input(self, value: int) -> None:
        """Testbench helper: set the IN register (external pad levels)."""
        self.regs.reg("IN").hw_write(value)

    def reset(self) -> None:
        super().reset()
        self.toggle_count = 0
        self._previous_out = 0
