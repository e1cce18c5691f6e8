"""PULPissimo SoC top level with PELS integrated (Figure 4 of the paper).

:func:`build_soc` instantiates and wires every block:

* processing domain: Ibex core, interrupt controller, SRAM, SoC interconnect;
* I/O domain: APB peripheral interconnect, GPIO/SPI/ADC/UART/I2C/timer
  peripherals, the µDMA, and PELS.

Component tick order (which fixes the intra-cycle causality) is:
peripherals → µDMA → PELS → CPU → SoC interconnect → APB bus.  Producers pulse
events before PELS samples them; masters submit bus requests before the
fabrics arbitrate them in the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bus.apb import ApbBus
from repro.bus.interconnect import SystemInterconnect
from repro.core.config import PelsConfig
from repro.core.pels import Pels
from repro.cpu.ibex import IbexCore
from repro.cpu.irq import InterruptController
from repro.dma.udma import MicroDma
from repro.peripherals.adc import Adc
from repro.peripherals.events import EventFabric
from repro.peripherals.gpio import Gpio
from repro.peripherals.i2c import I2cController
from repro.peripherals.pwm import Pwm
from repro.peripherals.sensor import SensorWaveform, SyntheticSensor
from repro.peripherals.spi import SpiController
from repro.peripherals.timer import Timer
from repro.peripherals.uart import Uart
from repro.peripherals.watchdog import Watchdog
from repro.sim.component import Component
from repro.sim.simulator import Simulator
from repro.soc.address_map import AddressMap, DEFAULT_ADDRESS_MAP
from repro.soc.memory import SramBank

DEFAULT_FREQUENCY_HZ = 55e6


class _FabricCycleCloser(Component):
    """Clears single-cycle event pulses when no PELS instance does it.

    PELS ends the event cycle itself (after broadcasting the vector to its
    links); in the PELS-less baseline SoC this helper keeps the pulse
    semantics identical.
    """

    def __init__(self, fabric: EventFabric) -> None:
        super().__init__("fabric_closer")
        self._fabric = fabric

    def tick(self, cycle: int) -> None:
        self._fabric.end_cycle()

    def next_event(self):
        # Only needed while a pulse is waiting to be cleared; clearing an
        # empty fabric is a no-op, so idle spans can be skipped freely.
        return 1 if self._fabric.active_mask() else None


@dataclass(frozen=True)
class SocConfig:
    """Build-time parameters of the SoC."""

    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    pels_config: Optional[PelsConfig] = PelsConfig(n_links=4, scm_lines=6)
    with_pels: bool = True
    address_map: AddressMap = DEFAULT_ADDRESS_MAP
    sensor_waveform: Optional[SensorWaveform] = None
    spi_cycles_per_word: int = 4
    adc_conversion_cycles: int = 8
    #: Use the reference cycle-driven kernel instead of event-driven
    #: scheduling with quiescence skipping.  Both produce identical state;
    #: dense mode exists for differential testing and cycle-level polling.
    dense: bool = False

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency_hz must be positive, got {self.frequency_hz!r}")


class PulpissimoSoc:
    """Container object exposing every block of the assembled SoC."""

    def __init__(
        self,
        simulator: Simulator,
        fabric: EventFabric,
        sram: SramBank,
        interconnect: SystemInterconnect,
        peripheral_bus: ApbBus,
        cpu: IbexCore,
        irq_controller: InterruptController,
        udma: MicroDma,
        gpio: Gpio,
        spi: SpiController,
        adc: Adc,
        uart: Uart,
        i2c: I2cController,
        pwm: Pwm,
        wdt: Watchdog,
        timer: Timer,
        sensor: SyntheticSensor,
        pels: Optional[Pels],
        address_map: AddressMap,
        config: SocConfig,
    ) -> None:
        self.simulator = simulator
        self.fabric = fabric
        self.sram = sram
        self.interconnect = interconnect
        self.peripheral_bus = peripheral_bus
        self.cpu = cpu
        self.irq_controller = irq_controller
        self.udma = udma
        self.gpio = gpio
        self.spi = spi
        self.adc = adc
        self.uart = uart
        self.i2c = i2c
        self.pwm = pwm
        self.wdt = wdt
        self.timer = timer
        self.sensor = sensor
        self.pels = pels
        self.address_map = address_map
        self.config = config

    # ------------------------------------------------------------- conveniences

    def run(self, cycles: int) -> None:
        """Advance the whole SoC by ``cycles`` clock cycles."""
        self.simulator.step(cycles)

    def run_until(self, condition, max_cycles: int = 1_000_000, label: str = "condition") -> int:
        """Run until ``condition()`` holds; returns elapsed cycles."""
        return self.simulator.run_until(condition, max_cycles=max_cycles, label=label)

    def register_address(self, peripheral: str, register: str) -> int:
        """Absolute address of ``register`` inside ``peripheral``'s window."""
        block = getattr(self, peripheral)
        return self.address_map.register_address(peripheral, block.regs.offset_of(register))

    @property
    def activity(self):
        """The simulator's activity counters (input to the power model)."""
        return self.simulator.activity

    @property
    def frequency_hz(self) -> float:
        """SoC clock frequency."""
        return self.config.frequency_hz

    def reset(self) -> None:
        """Reset every component and all statistics."""
        self.simulator.reset()
        self.sensor.reset()


def build_soc(config: SocConfig = SocConfig()) -> PulpissimoSoc:
    """Instantiate and wire a complete PULPissimo + PELS system."""
    simulator = Simulator(dense=config.dense)
    address_map = config.address_map
    fabric = EventFabric(capacity=64)

    # ---------------------------------------------------------------- I/O domain
    sensor = SyntheticSensor(
        "sensor", config.sensor_waveform if config.sensor_waveform is not None else SensorWaveform()
    )
    spi = SpiController("spi", sensor=sensor, cycles_per_word=config.spi_cycles_per_word)
    adc = Adc("adc", sensor=sensor, conversion_cycles=config.adc_conversion_cycles)
    gpio = Gpio("gpio")
    uart = Uart("uart")
    i2c = I2cController("i2c")
    pwm = Pwm("pwm")
    wdt = Watchdog("wdt")
    timer = Timer("timer")
    peripherals = [spi, adc, gpio, uart, i2c, pwm, wdt, timer]
    for peripheral in peripherals:
        peripheral.connect_events(fabric)

    peripheral_bus = ApbBus("apb")
    for peripheral in peripherals:
        peripheral_bus.attach_slave(
            address_map.peripheral_base(peripheral.name), address_map.peripheral_window, peripheral
        )

    # --------------------------------------------------------- processing domain
    sram = SramBank("sram", size_bytes=address_map.sram_size)
    interconnect = SystemInterconnect("soc_interconnect", peripheral_bus=peripheral_bus)
    interconnect.attach_memory(address_map.sram_base, address_map.sram_size, sram)

    irq_controller = InterruptController("irq_ctrl", fabric=fabric)
    cpu = IbexCore(
        "ibex",
        interconnect=interconnect,
        irq_controller=irq_controller,
        instruction_memory=sram,
    )
    udma = MicroDma("udma", interconnect=interconnect, fabric=fabric)

    # --------------------------------------------------------------------- PELS
    pels: Optional[Pels] = None
    if config.with_pels and config.pels_config is not None:
        pels = Pels(config.pels_config, fabric, peripheral_bus=peripheral_bus, name="pels")
        peripheral_bus.attach_slave(
            address_map.peripheral_base("pels"), address_map.peripheral_window, pels
        )

    # -------------------------------------------------------- tick-order wiring
    for peripheral in peripherals:
        simulator.add_component(peripheral)
    simulator.add_component(udma)
    if pels is not None:
        simulator.add_component(pels)
    else:
        simulator.add_component(_FabricCycleCloser(fabric))
    simulator.add_component(irq_controller)
    simulator.add_component(cpu)
    simulator.add_component(interconnect)
    simulator.add_component(peripheral_bus)
    simulator.add_component(sram)

    return PulpissimoSoc(
        simulator=simulator,
        fabric=fabric,
        sram=sram,
        interconnect=interconnect,
        peripheral_bus=peripheral_bus,
        cpu=cpu,
        irq_controller=irq_controller,
        udma=udma,
        gpio=gpio,
        spi=spi,
        adc=adc,
        uart=uart,
        i2c=i2c,
        pwm=pwm,
        wdt=wdt,
        timer=timer,
        sensor=sensor,
        pels=pels,
        address_map=address_map,
        config=config,
    )
