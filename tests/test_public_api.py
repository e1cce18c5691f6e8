"""Smoke tests for the top-level public API surface.

A downstream user should be able to drive the whole library from the
``repro`` namespace alone; these tests pin the names re-exported there and
exercise the documented quickstart flow end to end.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


class TestPublicApi:
    def test_version_exposed(self):
        assert repro.__version__ == "0.1.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_core_types_reexported(self):
        assert repro.Opcode.SET.is_read_modify_write
        assert repro.JumpCondition.GT.evaluate(51, 50)
        config = repro.PelsConfig(n_links=2, scm_lines=4)
        assert config.link_config(1).scm_lines == 4

    def test_readme_quickstart_flow(self):
        soc = repro.build_soc(repro.SocConfig())
        region = soc.address_map.peripheral_base("udma")
        gpio_out = soc.address_map.peripheral_base("gpio") + soc.gpio.regs.offset_of("OUT") - region
        assembler = repro.Assembler()
        assembler.define_register("GPIO_OUT", gpio_out)
        program = assembler.assemble("action 0 0x1\nset GPIO_OUT 0x2\nend")
        soc.pels.route_action_to_peripheral(group=0, bit=0, peripheral=soc.gpio, port="set_pad0")
        timer_bit = 1 << soc.fabric.index_of(soc.timer.event_line_name("overflow"))
        soc.pels.program_link(0, program, trigger_mask=timer_bit, base_address=region)
        soc.timer.regs.reg("COMPARE").hw_write(50)
        soc.timer.start()
        soc.run(500)
        assert soc.gpio.output_value == 0x3
        assert soc.cpu.interrupts_serviced == 0

    def test_analysis_entry_points(self):
        assert "PELS" in repro.format_table1()
        sweep = repro.figure6a_sweep(links=(1,), lines=(4,))
        assert len(sweep) == 1
        breakdown = repro.figure6b_breakdown()
        assert "logic_fractions" in breakdown

    def test_workload_configs_constructible(self):
        config = repro.ThresholdWorkloadConfig(n_events=2)
        assert config.samples_above_threshold >= 0
        model = repro.PowerModel()
        assert model.estimate({}, 10, 55e6).total_uw > 0
        area = repro.PelsAreaModel().estimate(repro.PelsConfig(n_links=1, scm_lines=4))
        assert area.total_kge > 0

    def test_import_does_not_load_numpy(self):
        # The kernel is pure python; importing it must not drag numpy in
        # (start-up time and memory of every worker process).
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        code = "import sys, repro; print('numpy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"
