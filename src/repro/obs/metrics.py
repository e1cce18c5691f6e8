"""Metrics registry: counters and histograms with labels.

Two consumers shape this module:

* the **simulation kernel** needs a fixed, canonical set of integer
  counters (``kernel_stats``) that is cheap to increment on the hot path,
  comparable with ``==`` in the parity tests, and identical across the
  dense and event-driven kernels and the batch loop.
  That is :class:`CounterSet` plus :data:`KERNEL_STAT_KEYS` — the *single*
  definition of which keys exist (``tests/sim/test_kernel_stat_keys.py``
  asserts every kernel mode produces exactly this set);
* the **sweep executor** needs to aggregate heterogeneous measurements —
  kernel counters summed across points, batch round counts,
  per-point wall-time distributions — into one deterministic, JSON-ready
  structure for the manifest's ``execution.telemetry`` block.  That is
  :class:`MetricsRegistry`.

Everything here is stdlib-only and import-light: :mod:`repro.sim` imports
this module, so it must never import back into the simulator.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

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


class CounterSet(dict):
    """A dict of integer counters over a fixed key set.

    Subclasses ``dict`` so the hot-path idiom (``stats["dense_ticks"] += 1``)
    and the parity-test idiom (``stats_a == stats_b``, comparison against a
    plain dict literal) keep working unchanged, and adds the snapshot/diff
    protocol the stats-parity tests and the metrics registry consume:

    * :meth:`snapshot` — an immutable point-in-time copy;
    * :meth:`diff` — the per-key delta against an earlier snapshot (what a
      region of execution *added*);
    * :meth:`reset` — zero every counter in place (same key set).

    Keys are fixed at construction: reading or writing an undeclared key
    raises ``KeyError``, which is how key-set drift between kernels is
    caught at the increment site instead of in a downstream comparison.
    """

    def __init__(self, keys: Iterable[str] = KERNEL_STAT_KEYS) -> None:
        super().__init__((key, 0) for key in keys)

    def __setitem__(self, key: str, value: int) -> None:
        if key not in self:
            raise KeyError(
                f"counter {key!r} is not declared in this CounterSet "
                f"(declared: {', '.join(self)}); add it to the canonical key set"
            )
        super().__setitem__(key, value)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict point-in-time copy of every counter."""
        return dict(self)

    def diff(self, since: Mapping[str, int]) -> Dict[str, int]:
        """Per-key delta relative to an earlier :meth:`snapshot`."""
        return {key: value - since.get(key, 0) for key, value in self.items()}

    def reset(self) -> None:
        """Zero every counter in place (key set unchanged)."""
        for key in self:
            super().__setitem__(key, 0)

    def add(self, other: Mapping[str, int]) -> None:
        """Accumulate another mapping's counts into this set (shared keys)."""
        for key, value in other.items():
            if key in self:
                super().__setitem__(key, self[key] + value)


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

    def absorb_kernel_stats(
        self, stats: Mapping[str, int], labels: Optional[Mapping[str, object]] = None
    ) -> None:
        """Accumulate one simulator's ``kernel_stats`` into ``kernel.*``
        counters — the registry-side half of the :class:`CounterSet`
        protocol (sweep workers sum per-point kernel stats this way)."""
        for key, value in stats.items():
            self.counter(f"kernel.{key}", labels).inc(int(value))

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

        Counters add and histograms merge their summaries — which is how the sweep executor folds each worker
        chunk's metrics into the campaign-level registry.  Rendered label
        strings round-trip as opaque names (they only need to stay stable
        and sorted, not to be re-parsed).
        """
        for name, value in rendered.get("counter", {}).items():
            self.counter(name).inc(int(value))
        for name, summary in rendered.get("histogram", {}).items():
            histogram = self.histogram(name)
            count = int(summary.get("count", 0))
            if count == 0:
                continue
            if histogram.count == 0:
                histogram.min = float(summary["min"])
                histogram.max = float(summary["max"])
            else:
                histogram.min = min(histogram.min, float(summary["min"]))
                histogram.max = max(histogram.max, float(summary["max"]))
            histogram.count += count
            histogram.total += float(summary["sum"])
