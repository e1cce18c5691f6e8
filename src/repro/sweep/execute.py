"""Sweep execution: run every point of a campaign, serially or sharded.

The unit of work is one **group** of :class:`~repro.sweep.campaign.SweepPoint`
(:func:`~repro.sweep.campaign.batch_groups`): points of one scenario that
differ only in ``horizon_cycles`` share one prepared simulation, and a pool
task runs its groups one at a time, each to completion through its own
:class:`~repro.sim.batch.BatchSimulator`.  Each point's record is
snapshotted the instant its horizon is reached.  Points of a scenario
without a prepare hook (see
:mod:`repro.workloads.registry`) are singleton groups run by
:func:`run_point`, the solo reference: it runs the scenario through the
registry's instrumented entry point.  Both paths post-process the SoC
through :func:`_finalize_point` into the structured record the artifacts
layer serialises — scalar stats, flattened activity counters, the Figure 5
power breakdown, and the Figure 6a area breakdown — so batched artifacts
are byte-identical to solo ones (``tests/sweep/test_batch.py`` pins this for
every registry campaign).

:func:`execute_campaign` cuts the groups into pool tasks with the one
cost-balanced cut, :func:`~repro.sweep.campaign.cut_groups`, and runs each
task through :func:`run_point_groups`:

* ``jobs == 1`` (or one usable core) — one task holding every group, run in
  this process;
* otherwise — a ``multiprocessing`` pool over :data:`TASKS_PER_WORKER` tasks
  per worker: few enough to amortise pickling and dispatch, enough that the
  unordered collection still balances groups whose cost varies.  Worker
  processes are capped at the machine's core count, because
  oversubscribing a small host only adds context-switching.

Results are keyed and re-sorted by point index, and every per-point output is
a pure function of the point itself (wall-clock timing is kept out of the
comparable payload), so the aggregated results of a sharded run are
**byte-identical** to the serial run — for any ``jobs`` — the property
``tests/sweep/test_execute.py`` pins.

**Incremental re-execution** (:func:`execute_campaign` with ``reuse=``):
records recovered from a previous run's ``results.json`` (see
:mod:`repro.sweep.resume`) are dropped into place without re-running their
points, which is how ``python -m repro.run sweep <campaign> --resume`` skips
work that already exists under an identical campaign manifest.

**Multi-host distribution** (:func:`execute_campaign` with ``shard=``): a
:class:`~repro.sweep.campaign.ShardSpec` restricts execution to one set of
whole groups of the expanded grid.  Sharding composes with ``jobs`` (the
shard's groups still fan out over the local pool) and with ``reuse``
(reusable indices outside the shard are simply never consulted), and the
shard's artifacts record the slice as an index set so
:mod:`repro.sweep.merge` can validate coverage when stitching shards back
together.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.area.model import PelsAreaModel
from repro.obs import tracing
from repro.obs.metrics import KERNEL_STAT_KEYS, MetricsRegistry, fold_telemetry
from repro.obs.profile import PhaseTimer
from repro.power.model import PowerModel
from repro.sim.batch import BatchSimulator
from repro.sweep.campaign import (
    CampaignSpec,
    ShardSpec,
    SweepPoint,
    batch_groups,
    cut_groups,
    estimate_costs,
    expand_campaign,
    index_runs,
)
from repro.workloads.registry import ScenarioOutcome, run_scenario_instrumented, scenario


@dataclass
class PointResult:
    """Everything one sweep point produced (deterministic fields only,
    except ``wall_seconds`` which the artifacts layer routes to the manifest
    rather than the comparable results payload)."""

    index: int
    scenario: str
    horizon_cycles: int
    params: Dict[str, object]
    seed: int
    stats: Dict[str, object] = field(default_factory=dict)
    #: Activity counters flattened to ``"component.event" -> count``.
    activity: Dict[str, int] = field(default_factory=dict)
    #: Figure 5 component powers in µW (plus ``Total``); empty when the
    #: scenario exposes no SoC.
    power_uw: Dict[str, float] = field(default_factory=dict)
    #: Figure 6a area components in kGE (plus ``Total``); empty without PELS.
    area_kge: Dict[str, float] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: True when the record was recovered from a previous run's artifacts
    #: (``--resume``) instead of being executed in this process.
    reused: bool = False


@dataclass
class CampaignResult:
    """All point results of one campaign execution."""

    campaign: str
    scenario: str
    points: List[PointResult]
    jobs: int
    wall_seconds: float
    #: The slice of the campaign this execution covered, as its explicit
    #: index set (None = the whole grid); see
    #: :class:`~repro.sweep.campaign.ShardSpec`.
    shard: Optional[ShardSpec] = None
    #: Size of the *full* expanded grid (equals ``n_points`` when unsharded).
    points_total: int = 0
    #: How many points were executed through the batched (shared-prefix)
    #: executor rather than solo; recorded in the manifest.
    batched_points: int = 0
    #: Why points that could have batched did not: one record per fallback
    #: (``{"reason": ..., "points": [indices]}``), recorded in the manifest
    #: next to ``batched_points`` and surfaced in the CLI summary.
    batch_fallbacks: List[Dict[str, object]] = field(default_factory=list)
    #: Points whose execution raised: one structured record per failure
    #: (see :func:`_failed_record`), sorted by index.  Failed points are
    #: absent from ``points`` — their records never enter the comparable
    #: payload — so downstream they look exactly like missing coverage,
    #: which is what lets ``merge --heal`` / the fleet re-run them.
    failed_points: List[Dict[str, object]] = field(default_factory=list)
    #: Campaign-level telemetry: the phase ``profile`` and the ``metrics``
    #: registry, plus a ``trace`` pointer when traced.  The artifacts layer
    #: embeds it as the manifest's ``execution.telemetry``.
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Chrome trace events buffered by worker-owned tracers (a traced
    #: campaign under a pool).  The caller combines these with its own
    #: installed tracer's buffer (which holds the serial/parent-side events)
    #: into one exported document.
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: Events the worker tracers dropped at their buffer caps.
    trace_dropped: int = 0
    #: Set only by :func:`repro.sweep.merge.merge_shards`: one entry per
    #: source directory.  The manifest then records ``merged_from`` in
    #: place of a pool size, and takes its point counts from the merged
    #: ``sweep.points{…}`` counters, since nothing ran here.
    merged_from: Optional[List[Dict[str, object]]] = None
    #: Points a partial merge lacks, written as the manifest's ``partial``
    #: block (empty for every complete result).
    missing: List[int] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        """Number of executed points."""
        return len(self.points)

    @property
    def n_reused(self) -> int:
        """How many points were recovered from a previous run (``--resume``)."""
        return sum(1 for point in self.points if point.reused)

    @property
    def n_computed(self) -> int:
        """How many points were actually executed (not recovered)."""
        return self.n_points - self.n_reused

    @property
    def n_failed(self) -> int:
        """How many points raised instead of producing a record."""
        return len(self.failed_points)


ProgressCallback = Callable[[int, int, PointResult], None]

#: Pool tasks per worker process (see the module docstring).
TASKS_PER_WORKER = 4


def _finalize_point(point: SweepPoint, outcome: ScenarioOutcome, wall: float) -> PointResult:
    """Derive one point's record from its scenario outcome.

    Shared by the solo path (:func:`run_point`, at end of run) and the
    batched path (:func:`_enroll_group`, at the instant the point's horizon
    is reached) — one code path, so the two cannot drift.
    """
    activity: Dict[str, int] = {}
    power_uw: Dict[str, float] = {}
    area_kge: Dict[str, float] = {}
    soc = outcome.soc
    if soc is not None:
        snapshot = soc.activity.as_dict()
        activity = {f"{component}.{event}": count for (component, event), count in sorted(snapshot.items())}
        # Average over the cycles actually simulated: condition-driven
        # scenarios (e.g. threshold-pels) may stop well short of the
        # requested horizon, and normalising over the request would dilute
        # every dynamic-power column.
        breakdown = PowerModel().estimate(
            snapshot,
            window_cycles=max(soc.simulator.current_cycle, 1),
            frequency_hz=soc.frequency_hz,
            scenario=point.scenario,
            pels_present=soc.pels is not None,
        )
        power_uw = breakdown.as_dict()
        if soc.pels is not None and soc.config.pels_config is not None:
            area_kge = PelsAreaModel().estimate(soc.config.pels_config).as_dict()

    return PointResult(
        index=point.index,
        scenario=point.scenario,
        horizon_cycles=point.horizon_cycles,
        params=dict(point.params),
        seed=point.seed,
        stats=dict(outcome.stats),
        activity=activity,
        power_uw=power_uw,
        area_kge=area_kge,
        wall_seconds=wall,
    )


@dataclass
class ChunkOutcome:
    """What one pool task produced: the chunk's point records plus the
    batching bookkeeping (how many points actually shared a prepared
    simulation, and why any group fell back to solo runs).
    The task also ships its telemetry home: one ``{"profile": …,
    "metrics": …}`` block (phase seconds, summed ``kernel.*`` counters,
    ``batch.rounds``) and, when this process owned its tracer under
    ``trace=``, the buffered trace events."""

    results: List[PointResult] = field(default_factory=list)
    fallbacks: List[Dict[str, object]] = field(default_factory=list)
    #: Structured records of points whose execution raised (one per failed
    #: point; see :func:`_failed_record`).  A failing point must not poison
    #: the chunk — the rest of the chunk's results still ship home.
    failures: List[Dict[str, object]] = field(default_factory=list)
    batched_points: int = 0
    #: The chunk's telemetry block, folded by :func:`execute_campaign`.
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: Buffered Chrome trace events from a worker-owned tracer (empty when
    #: the parent owns the tracer — serial mode — or tracing is off).
    trace_events: List[Dict[str, object]] = field(default_factory=list)
    #: Events the worker-owned tracer dropped at its buffer cap.
    dropped_events: int = 0


class _ChunkTelemetry:
    """One chunk task's telemetry: a phase timer and a metrics registry
    (``kernel.*`` counters and ``batch.rounds``)."""

    __slots__ = ("timer", "metrics")

    def __init__(self) -> None:
        self.timer = PhaseTimer()
        self.metrics = MetricsRegistry()


def _chunk_scope(trace: bool):
    """Set up one chunk task's telemetry: accumulators plus tracer ownership.

    A pool worker owns (installs and later drains) its own tracer; in serial
    mode the already-installed parent tracer is used directly and its events
    stay with the parent.  The pid check distinguishes the two: a forked
    worker inherits the parent's tracer object, whose pid no longer matches.
    """
    tele = _ChunkTelemetry()
    tracer = tracing.TRACER
    owned = False
    if trace and (tracer is None or tracer.pid != os.getpid()):
        tracer = tracing.install()
        owned = True
    return tele, tracer, owned


def _finish_chunk(outcome: ChunkOutcome, tele: _ChunkTelemetry, owned_tracer) -> ChunkOutcome:
    """Stamp a chunk task's telemetry onto its outcome before it ships."""
    outcome.telemetry = {"profile": tele.timer.as_dict(), "metrics": tele.metrics.as_dict()}
    if owned_tracer is not None:
        outcome.trace_events = owned_tracer.drain()
        outcome.dropped_events = owned_tracer.dropped
    return outcome


def run_point(point: SweepPoint, tele: Optional[_ChunkTelemetry] = None) -> PointResult:
    """Execute one sweep point and derive its power/area records.

    The solo reference the batched path must equal, and how points of a
    scenario without a prepare hook run.  With chunk telemetry ``tele`` the
    point's ``simulate``/``finalize`` seconds and kernel stats are absorbed
    into it; an installed tracer gets a ``sweep.point`` span (solo points
    report their scenario build inside ``simulate``; only the batched path
    has a distinct ``prepare``).
    """
    with tracing.span("sweep.point", "sweep", index=point.index, scenario=point.scenario, horizon=point.horizon_cycles):
        start = time.perf_counter()
        outcome = run_scenario_instrumented(
            point.scenario,
            horizon_cycles=point.horizon_cycles,
            dense=point.dense,
            params=point.params,
        )
        sim_seconds = time.perf_counter() - start
        result = _finalize_point(point, outcome, sim_seconds)
        if tele is not None:
            tele.timer.add("simulate", sim_seconds)
            tele.timer.add("finalize", time.perf_counter() - start - sim_seconds)
            if outcome.soc is not None:
                tele.metrics.absorb_kernel_stats(outcome.soc.simulator.kernel_stats)
    return result


def _failed_record(point: SweepPoint, exc: BaseException) -> Dict[str, object]:
    """The structured manifest record of one point whose execution raised.

    Everything a human (or the fleet) needs to reproduce and triage the
    failure without the worker's stderr: the point's identity (index, label,
    params, seed) plus the exception and its formatted traceback.
    """
    return {
        "index": point.index,
        "scenario": point.scenario,
        "label": f"{point.scenario}#{point.index}",
        "horizon_cycles": point.horizon_cycles,
        "params": dict(point.params),
        "seed": point.seed,
        "error": f"{type(exc).__name__}: {exc}",
        "traceback": "".join(traceback.format_exception(type(exc), exc, exc.__traceback__)),
    }


def _run_point_guarded(point: SweepPoint, outcome: ChunkOutcome, tele: _ChunkTelemetry) -> None:
    """Run one point, routing success to ``outcome.results`` and an exception
    to ``outcome.failures`` — a raising point must not poison the pool task
    (the chunk's other points, and the whole campaign with them, used to die
    with it)."""
    try:
        outcome.results.append(run_point(point, tele))
    except Exception as exc:
        outcome.failures.append(_failed_record(point, exc))


# ------------------------------------------------------------------ batching


def _fallback_record(group: Sequence[SweepPoint], reason: str) -> Dict[str, object]:
    """One manifest ``batch_fallbacks`` entry (deterministic fields only)."""
    return {"reason": reason, "points": [point.index for point in group]}


def _enroll_group(
    batch,
    group: Sequence[SweepPoint],
    results: List[PointResult],
    tele: _ChunkTelemetry,
) -> None:
    """Prepare one shared-prefix group and register its snapshot stops.

    Raises when the group cannot share a prepared instance —
    :class:`~repro.workloads.registry.BatchUnsupported` from a declining
    prepare hook, :class:`~repro.sim.simulator.SimulationError` from
    enrollment, or whatever the hook raises for a bad point — and the caller
    then runs just that group's points solo.

    Point walls are honest under batching: each snapshot stop is charged the
    time since the group's previous one (the first also carries the group's
    enrollment, and a drive-only stop rolls into the next snapshot stop),
    split evenly over the stop's points.  A group's point walls therefore
    add up to what the group cost.
    """
    first = group[0]
    spec = scenario(first.scenario)
    with tracing.span("sweep.enroll", "sweep", scenario=first.scenario, points=len(group)) as args:
        by_horizon: Dict[int, List[SweepPoint]] = {}
        for point in group:
            by_horizon.setdefault(point.horizon_cycles, []).append(point)
        horizons = sorted(by_horizon)
        args["horizons"] = len(horizons)
        # When the group's previous snapshot stop was charged (its enrollment
        # start until the first one).
        charged = time.perf_counter()

        def finalize(instance, elapsed: int, points: Sequence[SweepPoint]) -> None:
            nonlocal charged
            start = time.perf_counter()
            outcome = instance.outcome(elapsed)
            finalized = [_finalize_point(point, outcome, 0.0) for point in points]
            now = time.perf_counter()
            tele.timer.add("finalize", now - start)
            for result in finalized:
                result.wall_seconds = (now - charged) / len(finalized)
            charged = now
            results.extend(finalized)

        prepared = spec.prepare(horizons, first.dense, **dict(first.params))
        # Merge the scenario's drive script (mid-run testbench interference,
        # e.g. watchdog-recovery's fault injection) into the stop schedule.  A
        # drive sharing a cycle with a snapshot stop fires first — exactly the
        # standalone order (interfere, then keep running / observe).  Drives
        # beyond the deepest horizon are dropped: the instance never simulates
        # past it, so the deepest horizon is always the instance's last stop.
        drives_by_cycle: Dict[int, List[Callable[[int], None]]] = {}
        for cycle, callback in prepared.drive_stops():
            if 0 < cycle <= horizons[-1]:
                drives_by_cycle.setdefault(cycle, []).append(callback)

        def stop_at(horizon: int) -> Callable[[int], None]:
            drives = tuple(drives_by_cycle.pop(horizon, ()))
            points = tuple(by_horizon[horizon])

            def fire(elapsed: int) -> None:
                for drive in drives:
                    drive(elapsed)
                finalize(prepared, elapsed, points)

            return fire

        stops = [(horizon, stop_at(horizon)) for horizon in horizons]
        for cycle, callbacks in drives_by_cycle.items():

            def fire_drives(elapsed: int, drives=tuple(callbacks)) -> None:
                for drive in drives:
                    drive(elapsed)

            stops.append((cycle, fire_drives))
        batch.add(prepared.simulator, stops, label=f"{first.scenario}#{first.index}")


def _run_group(group: Sequence[SweepPoint], outcome: ChunkOutcome, tele: _ChunkTelemetry) -> None:
    """Run one shared-prefix group to completion: enroll (prepare) it, run
    its instance, then absorb the run's telemetry.

    Everything the group prepared dies with this call, so a pool task holds
    one prepared SoC at a time.
    """
    batch = BatchSimulator()
    results = outcome.results
    before = len(results)
    try:
        with tele.timer.phase("prepare"):
            _enroll_group(batch, group, results, tele)
    except Exception as exc:
        # The hook declined (BatchUnsupported), enrollment failed, or the
        # hook rejected a bad point: the group's points run solo, so each
        # completes or fails (into ``failures``) exactly as it would alone,
        # and the manifest says why they did not batch.
        outcome.fallbacks.append(_fallback_record(group, str(exc)))
        for point in group:
            _run_point_guarded(point, outcome, tele)
        return
    outcome.batched_points += len(group)
    start = time.perf_counter()
    finalize_before = tele.timer.seconds["finalize"]
    try:
        batch.run()
    except Exception as exc:
        # A mid-run failure loses only this group's points whose horizons
        # had not been snapshotted yet.
        done = {result.index for result in results[before:]}
        lost = [point for point in group if point.index not in done]
        outcome.failures.extend(_failed_record(point, exc) for point in lost)
        outcome.batched_points -= len(lost)
    # The stop callbacks finalize point records mid-run; that time is
    # already charged to "finalize", so "simulate" gets the rest.
    finalized = tele.timer.seconds["finalize"] - finalize_before
    tele.timer.add("simulate", max(time.perf_counter() - start - finalized, 0.0))
    tele.metrics.counter("batch.rounds").inc(batch.rounds)
    for instance in batch.instances:
        tele.metrics.absorb_kernel_stats(instance.simulator.kernel_stats)


def run_point_groups(
    groups: Sequence[Sequence[SweepPoint]],
    trace: bool = False,
    on_group: Optional[Callable[[List[PointResult]], None]] = None,
) -> ChunkOutcome:
    """The pool task: execute one chunk of shared-prefix groups.

    The groups run one at a time, each to completion: prepare it, then run
    its one prepared instance through a
    :class:`~repro.sim.batch.BatchSimulator`, snapshotting every point's
    record exactly when its horizon is reached — so one prepared SoC is
    alive at a time.  A group that raises mid-run loses only its own points
    not yet snapshotted.  Points of a scenario without a prepare hook run
    solo (:func:`run_point`).  A group that cannot enroll — its prepare
    hook declines (:class:`~repro.workloads.registry.BatchUnsupported`,
    e.g. heterogeneous derived parameters) or rejects a bad point, or
    enrollment fails — runs its points solo inside this same task, with the
    reason recorded in the outcome's ``fallbacks``: every bad point then
    lands in ``failures`` exactly as its solo run fails, and the rest of
    the chunk survives.  ``on_group`` (in process only) is handed each
    group's records as soon as the group finishes.
    """
    tele, tracer, owned = _chunk_scope(trace)
    try:
        outcome = ChunkOutcome()
        for group in groups:
            before = len(outcome.results)
            if scenario(group[0].scenario).prepare is None:
                for point in group:
                    _run_point_guarded(point, outcome, tele)
            else:
                _run_group(group, outcome, tele)
            if on_group is not None:
                on_group(outcome.results[before:])
    finally:
        if owned:
            tracing.uninstall()
    return _finish_chunk(outcome, tele, tracer if owned else None)


def execute_campaign(
    spec: CampaignSpec,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
    reuse: Optional[Mapping[int, PointResult]] = None,
    shard: Optional[ShardSpec] = None,
) -> CampaignResult:
    """Run every point of ``spec`` and return the aggregated result.

    ``jobs`` is the requested number of worker processes (``1`` runs
    everything in this process as one task; the effective pool is
    additionally capped at the core count and the task count).  ``reuse``
    maps point indices to previously computed results (see
    :mod:`repro.sweep.resume`); those points are not re-run.  ``shard``
    restricts execution to one set of whole groups of the grid (see
    :class:`~repro.sweep.campaign.ShardSpec`); ``reuse`` entries outside the
    shard are ignored.  Points that share parameters run as one batched
    group (:func:`~repro.sweep.campaign.batch_groups`); groups (or whole scenarios) that cannot
    batch run their points solo with the reason recorded in
    ``batch_fallbacks`` — never silently.  ``progress`` (if given) is
    called after each completed point with ``(completed, total, result)``
    where ``total`` is the shard-local point count — note that under
    sharding or batching the completion *order* is nondeterministic even
    though the aggregated results are not.  It sees reused points first,
    then each finished group's points together: in process as each group
    finishes, under a pool as each task returns.  That is what lets the
    sweep CLI checkpoint every finished group.

    Every execution records its ``telemetry`` block (phase profile plus
    metrics registry); with a tracer installed (``--trace-out``) it also
    collects the worker-buffered trace events.  Telemetry never touches
    the comparable payload — results are byte-identical traced or not
    (``tests/sweep/test_telemetry.py``).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    timer = PhaseTimer()
    with tracing.span("sweep.campaign", "sweep", campaign=spec.name, jobs=jobs) as args:
        with timer.phase("expand"):
            all_points = expand_campaign(spec)
        points_total = len(all_points)
        points = all_points
        if shard is not None:
            points = shard.select(all_points)
            # Record the slice as the explicit index set it resolved to, which
            # is what the artifacts' shard block declares.
            shard = ShardSpec(shard.index, shard.count, index_runs(point.index for point in points))
        total = len(points)
        start = time.perf_counter()
        results: List[PointResult] = []
        fallbacks: List[Dict[str, object]] = []
        failed: List[Dict[str, object]] = []
        if reuse:
            results.extend(reuse[point.index] for point in points if point.index in reuse)
            points = [point for point in points if point.index not in reuse]
            for completed, result in enumerate(results, start=1):
                result.reused = True
                if progress is not None:
                    progress(completed, total, result)
        if scenario(spec.scenario).prepare is None and points:
            # The scenario has no prepare hook at all: one campaign-level
            # fallback record covering every executed point.
            fallbacks.append(
                _fallback_record(
                    points, f"scenario {spec.scenario!r} does not support batched execution"
                )
            )

        # Workers beyond the core count only add overhead; the aggregated
        # artifacts are independent of the pool geometry anyway.
        workers = min(jobs, os.cpu_count() or 1)
        groups = batch_groups(points)
        parts = 1 if workers <= 1 else TASKS_PER_WORKER * workers
        tasks = cut_groups(groups, estimate_costs(groups, {}), parts)
        # Pool workers trace exactly when this process does (--trace-out).
        task = partial(run_point_groups, trace=tracing.TRACER is not None)
        batched_points = 0
        chunk_telemetry: List[Dict[str, object]] = []
        trace_events: List[Dict[str, object]] = []
        trace_dropped = 0

        def report(finished: Sequence[PointResult]) -> None:
            for result in finished:
                results.append(result)
                if progress is not None:
                    progress(len(results), total, result)

        def collect(outcome: ChunkOutcome) -> None:
            nonlocal batched_points, trace_dropped
            batched_points += outcome.batched_points
            fallbacks.extend(outcome.fallbacks)
            failed.extend(outcome.failures)
            chunk_telemetry.append(outcome.telemetry)
            trace_events.extend(outcome.trace_events)
            trace_dropped += outcome.dropped_events

        if workers <= 1 or len(tasks) <= 1:
            for groups_of_task in tasks:
                collect(task(groups_of_task, on_group=report))
        else:
            with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
                for outcome in pool.imap_unordered(task, tasks):
                    collect(outcome)
                    report(outcome.results)
        results.sort(key=lambda result: result.index)
        # Deterministic fallback/failure order regardless of pool completion order.
        fallbacks.sort(key=lambda record: record["points"])
        failed.sort(key=lambda record: record["index"])
        wall_seconds = time.perf_counter() - start
        registry = MetricsRegistry()
        # Every manifest carries the full counter key set, zero when nothing
        # was computed (a fully resumed run).
        registry.absorb_kernel_stats(dict.fromkeys(KERNEL_STAT_KEYS, 0))
        registry.counter("batch.rounds")
        computed = sum(1 for result in results if not result.reused)
        registry.counter("sweep.points", {"kind": "computed"}).inc(computed)
        registry.counter("sweep.points", {"kind": "reused"}).inc(len(results) - computed)
        registry.counter("sweep.points", {"kind": "batched"}).inc(batched_points)
        registry.counter("sweep.points", {"kind": "failed"}).inc(len(failed))
        walls = registry.histogram("sweep.point_wall_seconds")
        for result in results:
            if not result.reused:
                walls.observe(result.wall_seconds)
        args["points"] = len(results)
        telemetry = fold_telemetry([{"profile": timer.as_dict(), "metrics": registry.as_dict()}, *chunk_telemetry])
    return CampaignResult(
        campaign=spec.name,
        scenario=spec.scenario,
        points=results,
        jobs=jobs,
        wall_seconds=wall_seconds,
        shard=shard,
        points_total=points_total,
        batched_points=batched_points,
        batch_fallbacks=fallbacks,
        failed_points=failed,
        telemetry=telemetry,
        trace_events=trace_events,
        trace_dropped=trace_dropped,
    )
