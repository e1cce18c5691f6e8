"""Built-in sweep campaigns.

Three paper-facing campaigns plus a tiny CI smoke campaign:

* ``pipeline-clock-ratio`` — the multi-link pipeline swept over the
  SoC-to-I/O clock ratio and the sampling period.  Shows where the chained
  links' service time (ADC conversion + UART framing + blinker) overruns the
  sampling period as the peripheral shift clock is divided down.
* ``watchdog-fault-injection`` — the autonomous watchdog-recovery loop swept
  over fault-injection seeds (each seed picks the sampling period and the
  stall instant deterministically) and two horizons.  The headline column is
  ``stat.recovered``: PELS restarts the loop before the bite for every seed.
* ``fig5-long-horizon-power`` — the Figure 5 idle bars (PELS vs the Ibex
  interrupt baseline, 27 vs 55 MHz) stretched to paper-scale horizons, up to
  a full second of simulated time (55 M cycles).  The iso-latency power gap
  between ``mode=ibex @ 55 MHz`` and ``mode=pels @ 27 MHz`` holds flat
  across three orders of magnitude of horizon — the Figure 5 trend.
* ``fleet-scale`` — 1008 cheap duty-cycled-logging points (readout shapes ×
  a dense horizon ladder) sized for the fleet orchestrator's scale and
  chaos testing (``python -m repro.run fleet fleet-scale``).
* ``smoke`` — four cheap duty-cycled-logging points for CI and tests.

Campaigns are looked up by name (:func:`campaign`) from the sweep CLI
(``python -m repro.run sweep <name>``); projects can register more via
:func:`register_campaign`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sweep.campaign import CampaignSpec

_CAMPAIGNS: Dict[str, CampaignSpec] = {}


def register_campaign(spec: CampaignSpec) -> CampaignSpec:
    """Register ``spec`` under its name (unique)."""
    if spec.name in _CAMPAIGNS:
        raise ValueError(f"campaign {spec.name!r} is already registered")
    _CAMPAIGNS[spec.name] = spec
    return spec


def campaign(name: str) -> CampaignSpec:
    """Look up a registered campaign by name."""
    try:
        return _CAMPAIGNS[name]
    except KeyError as exc:
        known = ", ".join(sorted(_CAMPAIGNS)) or "<none>"
        raise KeyError(f"unknown campaign {name!r}; registered: {known}") from exc


def campaign_names() -> Tuple[str, ...]:
    """Sorted names of all registered campaigns."""
    return tuple(sorted(_CAMPAIGNS))


def campaigns() -> Tuple[CampaignSpec, ...]:
    """All registered campaigns, sorted by name."""
    return tuple(_CAMPAIGNS[name] for name in campaign_names())


# --------------------------------------------------------------- registrations

register_campaign(
    CampaignSpec(
        name="pipeline-clock-ratio",
        description=(
            "Multi-link pipeline across SoC-to-I/O clock ratios and sampling periods "
            "(56 points): where does the chained service time overrun the period?"
        ),
        scenario="multi-link-pipeline",
        grid={
            # A seven-step horizon ladder: the short end exposes warm-up
            # effects, the long end pins the steady-state rates, and the
            # intermediate rungs trace how quickly each configuration
            # converges.  Horizon depth is nearly free under batched
            # execution — the points of one (ratio, period) pair share a
            # single simulation and only the longest horizon is actually
            # simulated, so the ladder costs one run per group, not seven.
            "horizon_cycles": (10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 70_000),
            "clock_ratio": (1, 2, 4, 8),
            "timer_period_cycles": (150, 600),
        },
    )
)

register_campaign(
    CampaignSpec(
        name="watchdog-fault-injection",
        description=(
            "Autonomous watchdog recovery under 12 seeded fault injections × 2 horizons "
            "(24 points): every seed must end with recovered=1 and zero bites."
        ),
        scenario="watchdog-recovery",
        grid={
            "horizon_cycles": (200_000, 400_000),
            "seed": tuple(range(12)),
        },
    )
)

register_campaign(
    CampaignSpec(
        name="fig5-long-horizon-power",
        description=(
            "Figure 5 idle power (PELS vs Ibex baseline, 27 vs 55 MHz) at paper-scale "
            "horizons up to 1 s of simulated time (24 points)."
        ),
        scenario="figure5-idle",
        grid={
            "mode": ("pels", "ibex"),
            "frequency_mhz": (27.0, 55.0),
            "horizon_cycles": (55_000, 110_000, 550_000, 1_100_000, 5_500_000, 55_000_000),
        },
    )
)

register_campaign(
    CampaignSpec(
        name="fleet-scale",
        description=(
            "Duty-cycled logging across readout shapes and a dense horizon ladder "
            "(1008 points): the fleet-orchestration scale/chaos campaign."
        ),
        scenario="duty-cycled-logging",
        grid={
            # Horizon is the fastest-varying axis, so each (period, words,
            # spi) group is one contiguous run of indices and a shard of
            # whole groups is one index range.  Batched execution collapses
            # each group to one simulation of its longest horizon, which
            # keeps 1008 points cheap enough to chaos-test in CI while
            # still being a real 1000+-point campaign.
            "sample_period_cycles": (1_500, 2_000, 3_000, 4_000),
            "words_per_readout": (2, 4, 8),
            "spi_cycles_per_word": (8, 16, 24, 32),
            "horizon_cycles": tuple(range(30_000, 135_000, 5_000)),
        },
    )
)

register_campaign(
    CampaignSpec(
        name="smoke",
        description="Tiny duty-cycled-logging campaign (4 points) for CI and tests.",
        scenario="duty-cycled-logging",
        grid={
            "horizon_cycles": (40_000, 60_000),
            "sample_period_cycles": (2_000, 4_000),
        },
    )
)
