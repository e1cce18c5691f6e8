"""Sweep campaigns: a scenario crossed with a parameter grid.

A :class:`CampaignSpec` names one scenario from
:mod:`repro.workloads.registry` and a grid of parameter axes.
:func:`expand_campaign` turns the spec into the ordered list of
:class:`SweepPoint` instances the executor shards across processes:

* the reserved axis ``horizon_cycles`` sweeps the simulated horizon (when
  absent, the scenario's default horizon is the single value);
* every other axis must be a parameter the scenario declares in
  :attr:`~repro.workloads.registry.ScenarioSpec.params`;
* points are enumerated in row-major order over the axes as written in the
  grid, so point indices — and therefore artifacts — are stable across
  executions, process counts, and machines.

Points that differ only in their horizon form one **batch group**
(:func:`batch_groups`), the unit of work everywhere: :func:`cut_groups`
cuts the groups, priced by :func:`estimate_costs`, into cost-balanced runs
of whole groups, and that one cut sizes pool tasks, balanced
``--shard I/N`` slices (:class:`ShardSpec`), fleet shards and heal shards.
Because points are keyed by index, the shards' artifacts merge back
(:mod:`repro.sweep.merge`) into exactly the single-host run.

Every point carries a **deterministic seed** derived from the campaign name,
the campaign's base seed, and the point's index (:func:`derive_point_seed`).
Scenarios that declare a ``seed`` parameter receive it automatically — but
only when the grid sweeps no other scenario parameter and does not pin
``seed`` itself, because seed-aware scenarios may treat the seed and
explicit parameters as mutually exclusive (watchdog-recovery does).  That is
how the fault-injection campaigns stay reproducible point by point.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.workloads.registry import ScenarioSpec, scenario

#: Grid axis that sweeps the simulated horizon rather than a scenario param.
HORIZON_AXIS = "horizon_cycles"


@dataclass(frozen=True)
class CampaignSpec:
    """One sweep campaign: a scenario name plus a parameter grid."""

    name: str
    description: str
    scenario: str
    #: Axis name -> tuple of values.  ``horizon_cycles`` is reserved for the
    #: simulated horizon; all other axes are scenario parameters.
    grid: Mapping[str, Tuple[object, ...]]
    base_seed: int = 0xC0FFEE
    #: Run every point under the reference dense kernel (A/B studies only).
    dense: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a campaign needs a non-empty name")
        if not self.grid:
            raise ValueError(f"campaign {self.name!r}: the grid needs at least one axis")
        frozen: Dict[str, Tuple[object, ...]] = {}
        for axis, values in self.grid.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"campaign {self.name!r}: axis {axis!r} has no values")
            frozen[axis] = values
        object.__setattr__(self, "grid", frozen)

    @property
    def n_points(self) -> int:
        """How many points the grid expands to."""
        total = 1
        for values in self.grid.values():
            total *= len(values)
        return total


@dataclass(frozen=True)
class SweepPoint:
    """One fully resolved run of a campaign."""

    index: int
    campaign: str
    scenario: str
    horizon_cycles: int
    dense: bool
    params: Mapping[str, object] = field(default_factory=dict)
    seed: int = 0


#: Price per simulated cycle when no timing was ever observed.  Arbitrary
#: but positive: costs are only ever compared, so any common scale works.
DEFAULT_SECONDS_PER_CYCLE = 1e-6


def batch_groups(points: Sequence[SweepPoint]) -> List[List[SweepPoint]]:
    """Group points that can share one prepared simulation.

    Points of the same scenario with identical parameters (and kernel) that
    differ only in ``horizon_cycles`` form one group: the simulation of the
    largest horizon passes through every smaller one, so a single instance
    serves the whole group.  A point of a scenario without a prepare hook
    shares nothing and is a group of its own.  Groups preserve
    first-occurrence order and each group is sorted by horizon.
    """
    grouped: Dict[Tuple, List[SweepPoint]] = {}
    for point in points:
        if scenario(point.scenario).prepare is None:
            key: Tuple = (point.index,)
        else:
            key = (point.scenario, point.dense, tuple(sorted(point.params.items())))
        grouped.setdefault(key, []).append(point)
    return [sorted(group, key=lambda point: point.horizon_cycles) for group in grouped.values()]


def estimate_costs(groups: Sequence[Sequence[SweepPoint]], walls: Mapping[int, float]) -> List[float]:
    """Price every group in (estimated) seconds.

    A group whose every point has an observed wall costs the sum of those
    walls: a batched point's wall is its share of the shared simulation, so
    the sum is what the group took.  Any other group costs its deepest
    horizon, because one simulation to that horizon serves every shallower
    point, times the median seconds per cycle of the observed groups
    (:data:`DEFAULT_SECONDS_PER_CYCLE` when none was observed).  Every price
    is clamped strictly positive so that no cut ever sees a free group.
    """
    def deepest(group: Sequence[SweepPoint]) -> int:
        return max(point.horizon_cycles for point in group)

    observed: List[Optional[float]] = []
    for group in groups:
        group_walls = [walls.get(point.index, 0.0) for point in group]
        observed.append(sum(group_walls) if all(wall > 0.0 for wall in group_walls) else None)
    rates = [cost / deepest(group) for group, cost in zip(groups, observed) if cost is not None]
    rate = DEFAULT_SECONDS_PER_CYCLE
    if rates:
        # Imported here: statistics pulls in decimal and fractions, which
        # every worker would otherwise pay for on start.
        from statistics import median

        rate = median(rates)
    return [max(cost if cost is not None else deepest(group) * rate, 1e-12) for group, cost in zip(groups, observed)]


def cut_groups(
    groups: Sequence[Sequence[SweepPoint]], costs: Sequence[float], parts: int
) -> List[List[Sequence[SweepPoint]]]:
    """Cut ``groups`` into at most ``parts`` contiguous runs of whole groups,
    in group order, with equal-as-possible total cost.

    The one cut behind pool tasks, balanced ``--shard I/N``, fleet shards
    and heal shards.  A group is never split: each fragment would
    re-simulate the shared prefix.  Greedy walk: a part takes the next
    group while that brings its cost nearer the remaining average, always
    takes at least one, and leaves at least one group for every later part;
    the last part takes the rest.  Fewer than ``parts`` parts come back only
    when there are fewer groups than parts, and no part is empty.
    """
    if parts < 1:
        raise ValueError(f"parts must be at least 1, got {parts}")
    cut: List[List[Sequence[SweepPoint]]] = []
    start, remaining = 0, float(sum(costs))
    for left in range(parts, 0, -1):
        if start >= len(groups):
            break
        stop, taken, target = start + 1, costs[start], remaining / left
        while stop < len(groups) - (left - 1) and taken + costs[stop] / 2 < target:
            taken += costs[stop]
            stop += 1
        if left == 1:
            stop = len(groups)
        cut.append(list(groups[start:stop]))
        remaining -= sum(costs[start:stop])
        start = stop
    return cut


def _merge_runs(runs: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Sort half-open runs, drop empty ones and join touching ones."""
    merged: List[Tuple[int, int]] = []
    for start, stop in sorted(run for run in runs if run[0] < run[1]):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], stop))
        else:
            merged.append((start, stop))
    return tuple(merged)


def index_runs(indices: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
    """An index set as its sorted half-open ``(start, stop)`` runs."""
    return _merge_runs((index, index + 1) for index in indices)


@dataclass(frozen=True)
class ShardSpec:
    """One slice of a campaign for multi-host distribution: shard ``index``
    of ``count``, always made of whole batch groups (:func:`batch_groups`).

    Two forms share this one type:

    * balanced (``runs is None``, CLI ``I/N``) is part ``I`` of
      :func:`cut_groups` over the whole grid into ``N`` parts, priced from
      the grid alone — what a human distributes by hand across N hosts.  A
      part beyond the number of groups is empty;
    * explicit (CLI ``I/N@A:B,C:D,…``) is exactly the point indices of the
      half-open runs ``[A, B) ∪ [C, D) ∪ …``.  The fleet and heal plans name
      the groups each shard runs this way; ``index``/``count`` keep the
      shard's place in its cut so artifact directory names stay unique.
      The single-run form ``I/N@START:STOP`` is what older fleets wrote.

    Points are keyed by index, so the shards' artifacts merge back
    (:mod:`repro.sweep.merge`) into exactly the single-host run.
    """

    index: int
    count: int
    #: Explicit point indices as sorted half-open runs (None = balanced).
    runs: Optional[Tuple[Tuple[int, int], ...]] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"shard count must be at least 1, got {self.count}")
        if not 0 <= self.index < self.count:
            raise ValueError(
                f"shard index must be in [0, {self.count}), got {self.index} "
                f"(shards are zero-based: the last of {self.count} is "
                f"{self.count - 1}/{self.count})"
            )
        if self.runs is not None:
            try:
                runs = [(int(start), int(stop)) for start, stop in self.runs]
            except (TypeError, ValueError):
                raise ValueError(f"shard runs must be (start, stop) pairs, got {self.runs!r}") from None
            for start, stop in runs:
                if not 0 <= start <= stop:
                    raise ValueError(f"shard run must satisfy 0 <= start <= stop, got [{start}, {stop})")
            object.__setattr__(self, "runs", _merge_runs(runs))

    @classmethod
    def parse(cls, text: str) -> "ShardSpec":
        """Parse the CLI forms ``I/N`` (balanced, e.g. ``0/3``) and
        ``I/N@START:STOP[,START:STOP…]`` (explicit, e.g. ``2/8@12:19,40:47``)."""
        spec_text, at, runs_text = text.partition("@")
        index_text, sep, count_text = spec_text.partition("/")
        try:
            if not sep:
                raise ValueError
            index, count = int(index_text), int(count_text)
            runs = None
            if at:
                runs = []
                for run_text in runs_text.split(","):
                    start_text, colon, stop_text = run_text.partition(":")
                    if not colon:
                        raise ValueError
                    runs.append((int(start_text), int(stop_text)))
        except ValueError:
            raise ValueError(
                f"shard must look like I/N (e.g. 1/4) or I/N@START:STOP[,START:STOP...] "
                f"(e.g. 2/8@12:19,40:47), got {text!r}"
            ) from None
        try:
            return cls(index=index, count=count, runs=runs)
        except ValueError as exc:
            raise ValueError(f"shard {text!r}: {exc}") from None

    def select(self, points: Sequence[SweepPoint]) -> List[SweepPoint]:
        """The points of the full expanded grid ``points`` this shard
        executes, in index order.  An explicit shard must fit the grid."""
        if self.runs is None:
            groups = batch_groups(points)
            parts = cut_groups(groups, estimate_costs(groups, {}), self.count)
            chosen = parts[self.index] if self.index < len(parts) else []
            return sorted((point for group in chosen for point in group), key=lambda p: p.index)
        if self.runs and self.runs[-1][1] > len(points):
            raise ValueError(
                f"shard {self} covers indices up to {self.runs[-1][1] - 1} but the "
                f"campaign expands to only {len(points)} points"
            )
        return [point for start, stop in self.runs for point in points[start:stop]]

    def __str__(self) -> str:
        if self.runs is None:
            return f"{self.index}/{self.count}"
        return f"{self.index}/{self.count}@" + ",".join(f"{start}:{stop}" for start, stop in self.runs)


def cut_shards(groups: Sequence[Sequence[SweepPoint]], costs: Sequence[float], parts: int) -> List[ShardSpec]:
    """The cut as explicit index-set shards (fleet and heal shards): one
    :class:`ShardSpec` per part of :func:`cut_groups`, numbered
    ``i/len(parts)`` in group order."""
    cut = cut_groups(groups, costs, parts)
    return [
        ShardSpec(index, len(cut), index_runs(point.index for group in part for point in group))
        for index, part in enumerate(cut)
    ]


def derive_point_seed(campaign: str, base_seed: int, index: int) -> int:
    """Deterministic 32-bit seed for point ``index`` of ``campaign``.

    Hash-based (not ``base_seed + index``) so neighbouring points get
    uncorrelated streams and renaming a campaign reshuffles every seed.
    """
    key = f"{campaign}:{base_seed}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def expand_campaign(spec: CampaignSpec) -> List[SweepPoint]:
    """Expand ``spec`` into its ordered, seeded list of sweep points.

    Raises ``KeyError`` for an unknown scenario and ``ValueError`` for grid
    axes the scenario does not accept, so ``--dry-run`` catches configuration
    mistakes before any process is forked.
    """
    scenario_spec: ScenarioSpec = scenario(spec.scenario)
    axes = list(spec.grid.items())
    param_axes = [axis for axis, _ in axes if axis != HORIZON_AXIS]
    unknown = sorted(set(param_axes) - set(scenario_spec.params))
    if unknown:
        accepted = ", ".join(scenario_spec.params) or "<none>"
        raise ValueError(
            f"campaign {spec.name!r}: scenario {spec.scenario!r} does not accept "
            f"grid axis(es) {unknown}; accepted: {accepted}"
        )
    # Auto-inject the point seed only for pure seed/horizon sweeps: scenarios
    # may treat the seed and explicit parameters as mutually exclusive, and a
    # conflict must not surface as a mid-campaign worker crash that --dry-run
    # never saw.
    inject_seed = "seed" in scenario_spec.params and "seed" not in spec.grid and not param_axes

    points: List[SweepPoint] = []
    for index, combination in enumerate(itertools.product(*(values for _, values in axes))):
        values = dict(zip((axis for axis, _ in axes), combination))
        horizon = values.pop(HORIZON_AXIS, scenario_spec.default_horizon_cycles)
        if not isinstance(horizon, int) or horizon < 1:
            raise ValueError(
                f"campaign {spec.name!r}: horizon_cycles values must be positive ints, got {horizon!r}"
            )
        seed = derive_point_seed(spec.name, spec.base_seed, index)
        if inject_seed:
            values["seed"] = seed
        points.append(
            SweepPoint(
                index=index,
                campaign=spec.name,
                scenario=spec.scenario,
                horizon_cycles=horizon,
                dense=spec.dense,
                params=values,
                seed=seed,
            )
        )
    return points


def grid_from_lists(**axes: Sequence[object]) -> Dict[str, Tuple[object, ...]]:
    """Convenience: build a grid mapping from keyword sequences."""
    return {axis: tuple(values) for axis, values in axes.items()}
