"""Metrics registry: counters and histograms with labels, and the one fold.

Two consumers shape this module:

* the **simulation kernel** keeps a fixed, canonical set of integer
  counters (``SimState.kernel_stats``): a plain ``dict`` over
  :data:`KERNEL_STAT_KEYS`, the *single* definition of which keys exist
  (``tests/sim/test_kernel_stat_keys.py`` asserts every kernel mode
  produces exactly this set).  The hot-path idiom ``stats[key] += n``
  reads the key first, so an undeclared key raises ``KeyError`` at the
  increment site;
* the **sweep executor** aggregates heterogeneous measurements — kernel
  counters summed across points, batch round counts, per-point wall-time
  distributions — into one deterministic, JSON-ready structure for the
  manifest's ``execution.telemetry`` block.  That is
  :class:`MetricsRegistry`.

The manifest's ``{"profile": …, "metrics": …}`` block is the only
telemetry shape, from a sweep chunk to the fleet ledger, and
:func:`fold_telemetry` is its one fold: chunk → campaign (the executor),
shard → merged manifest (``sweep merge``), shard → ledger (the fleet).

Everything here is stdlib-only and import-light: :mod:`repro.sim` imports
this module, so it must never import back into the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.obs.profile import PhaseTimer

#: The canonical scheduler-instrumentation key set.  Every
#: ``SimState.kernel_stats`` mapping — dense or event-driven kernel,
#: batched or not — carries exactly these
#: keys, in this order.  Grow the kernel's instrumentation *here*, never by
#: sprinkling ad-hoc keys at increment sites.
KERNEL_STAT_KEYS: Tuple[str, ...] = (
    "next_event_calls",
    "dense_ticks",
    "spans_skipped",
    "cycles_skipped",
    "plan_builds",
)


Labels = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, object]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Histogram:
    """A streaming summary of observed values (count/sum/min/max).

    Deliberately bucket-free: the consumers here (manifest telemetry, the
    ``stats`` renderer) want compact summaries, and full distributions
    belong in the trace file where every span carries its own duration.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.min = self.max = float(value)
        else:
            if value < self.min:
                self.min = float(value)
            if value > self.max:
                self.max = float(value)
        self.count += 1
        self.total += float(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """A process-local namespace of named, labelled metrics.

    ``counter``/``histogram`` create-or-return the instrument for
    ``(name, labels)``, so call sites never coordinate registration.
    :meth:`as_dict` renders everything into a deterministic (sorted)
    JSON-ready mapping — the shape embedded in the sweep manifest's
    ``execution.telemetry.metrics`` block::

        {"counter": {"kernel.dense_ticks": 12,
                     "sweep.points{kind=computed}": 4},
         "histogram": {"sweep.point_wall_seconds": {"count": 4, ...}}}

    Label sets render into the name as ``{key=value,...}`` with sorted
    keys, mirroring the Prometheus exposition idiom without the dependency.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Labels], Counter] = {}
        self._histograms: Dict[Tuple[str, Labels], Histogram] = {}

    def counter(self, name: str, labels: Optional[Mapping[str, object]] = None) -> Counter:
        return self._counters.setdefault((name, _labels_key(labels)), Counter())

    def histogram(self, name: str, labels: Optional[Mapping[str, object]] = None) -> Histogram:
        return self._histograms.setdefault((name, _labels_key(labels)), Histogram())

    def absorb_kernel_stats(self, stats: Mapping[str, int]) -> None:
        """Accumulate one simulator's ``kernel_stats`` into ``kernel.*``
        counters (sweep chunks sum per-point kernel stats this way)."""
        for key, value in stats.items():
            self.counter(f"kernel.{key}").inc(value)

    @staticmethod
    def _render(name: str, labels: Labels) -> str:
        if not labels:
            return name
        inner = ",".join(f"{key}={value}" for key, value in labels)
        return f"{name}{{{inner}}}"

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Deterministic JSON-ready view of every instrument."""
        return {
            "counter": {
                self._render(name, labels): counter.value
                for (name, labels), counter in sorted(self._counters.items())
            },
            "histogram": {
                self._render(name, labels): histogram.as_dict()
                for (name, labels), histogram in sorted(self._histograms.items())
            },
        }

    def merge_dict(self, rendered: Mapping[str, Mapping[str, object]]) -> None:
        """Accumulate an :meth:`as_dict` payload from another process.

        Counters add and histograms merge their summaries (see
        :func:`fold_telemetry`).  Rendered label strings round-trip as
        opaque names (they only need to stay stable and sorted, not to be
        re-parsed).
        """
        for name, value in rendered.get("counter", {}).items():
            self.counter(name).inc(value)
        for name, summary in rendered.get("histogram", {}).items():
            histogram = self.histogram(name)
            count = summary["count"]
            if count == 0:
                continue
            if histogram.count == 0:
                histogram.min, histogram.max = summary["min"], summary["max"]
            else:
                histogram.min = min(histogram.min, summary["min"])
                histogram.max = max(histogram.max, summary["max"])
            histogram.count += count
            histogram.total += summary["sum"]


def fold_telemetry(
    blocks: Iterable[Mapping[str, Mapping]],
    registry: Optional[MetricsRegistry] = None,
    prefix: str = "",
) -> Dict[str, object]:
    """Fold ``{"profile": …, "metrics": …}`` blocks into one such block.

    Phase profiles sum phase by phase; metrics merge into ``registry`` (a
    new one when ``None``) by :meth:`MetricsRegistry.merge_dict`, keeping
    only the metrics whose name starts with ``prefix``.  Every hop folds
    this way: the executor its chunks, ``sweep merge`` its shards, and the
    fleet ledger each accepted shard's ``kernel.*`` counters.  The blocks
    must be well formed: artifact readers check a manifest's block before
    it gets here.
    """
    timer = PhaseTimer()
    registry = MetricsRegistry() if registry is None else registry
    for block in blocks:
        timer.merge(block["profile"])
        metrics = block["metrics"]
        if prefix:
            metrics = {
                kind: {name: value for name, value in instruments.items() if name.startswith(prefix)}
                for kind, instruments in metrics.items()
            }
        registry.merge_dict(metrics)
    return {"profile": timer.as_dict(), "metrics": registry.as_dict()}
