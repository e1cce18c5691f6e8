"""Snapshot/restore of prepared scenarios and the serialisable plan format.

The acceptance oracle is the restore⇒identical-run property: a prepared
scenario snapshotted mid-run and restored in (conceptually) another
process must continue to exactly the outcome the original run produces —
same stats, same activity counters, same kernel counters.  Around that
sit the container-integrity checks (every corruption is a *named*
``SnapshotError``), the registry-free plan serialisation, and the bounded
plan intern table.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import simulator as simulator_module
from repro.sim.simulator import PLAN_INTERN_CAPACITY, SchedulePlan
from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    plan_digest,
    plan_from_payload,
    plan_to_payload,
    read_header,
    restore_prepared,
    snapshot_prepared,
)
from repro.workloads.registry import scenario

SCENARIO = "duty-cycled-logging"
HORIZONS = [30_000, 60_000]


def _prepare(dense=False, **params):
    return scenario(SCENARIO).prepare(list(HORIZONS), dense, **params)


def _plan_of(prepared):
    prepared.simulator.step(1)  # force plan resolution
    return prepared.simulator._plan


def _loop_stats(simulator):
    """Kernel counters minus the plan_* keys: plan build/share/evict tallies
    depend on the process-wide intern table (what earlier tests interned),
    not on this run's stepping behaviour."""
    return {k: v for k, v in simulator.kernel_stats.items() if not k.startswith("plan_")}


class TestPlanPayload:
    def test_round_trip_returns_canonical_interned_plan(self):
        plan = _plan_of(_prepare())
        payload = plan_to_payload(plan)
        assert payload["entries"], "expected a non-trivial topology"
        for entry in payload["entries"]:
            assert ":" in entry["component"]
        rebuilt = plan_from_payload(payload)
        assert rebuilt.fingerprint == plan.fingerprint
        # adopt() returns the already-interned instance, not a twin.
        assert rebuilt is plan

    def test_digest_is_stable_and_structural(self):
        plan_a = _plan_of(_prepare())
        plan_b = _plan_of(_prepare())
        assert plan_digest(plan_a) == plan_digest(plan_b)
        assert len(plan_digest(plan_a)) == 64

    def test_unresolvable_class_is_a_named_error(self):
        payload = plan_to_payload(_plan_of(_prepare()))
        payload["entries"][0]["component"] = "repro.no.such.module:Ghost"
        with pytest.raises(SnapshotError, match="cannot resolve component class"):
            plan_from_payload(payload)
        payload["entries"][0]["component"] = "no-colon-here"
        with pytest.raises(SnapshotError, match="malformed component class reference"):
            plan_from_payload(payload)

    def test_malformed_payload_is_a_named_error(self):
        with pytest.raises(SnapshotError, match="malformed plan payload"):
            plan_from_payload({"cached_wakes": True, "entries": [{"component": 3}]})


class TestContainerIntegrity:
    @pytest.fixture()
    def blob(self):
        prepared = _prepare()
        prepared.simulator.step(HORIZONS[0])
        return snapshot_prepared(prepared)

    def test_header_reads_back(self, blob):
        header, payload = read_header(blob)
        assert header["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert header["base_tick"] == HORIZONS[0]
        assert header["payload_bytes"] == len(payload)
        assert header["plan"] is not None and header["plan_digest"] is not None

    def test_bad_magic(self, blob):
        with pytest.raises(SnapshotError, match="bad magic"):
            read_header(b"not a snapshot" + blob)

    def test_missing_header_terminator(self):
        with pytest.raises(SnapshotError, match="missing header terminator"):
            read_header(SNAPSHOT_MAGIC + b"{}")

    def test_stale_schema_version(self, blob):
        stale = blob.replace(
            b'"schema_version":%d' % SNAPSHOT_SCHEMA_VERSION,
            b'"schema_version":%d' % (SNAPSHOT_SCHEMA_VERSION + 1),
        )
        with pytest.raises(SnapshotError, match="stale snapshot schema"):
            read_header(stale)

    def test_truncated_payload(self, blob):
        with pytest.raises(SnapshotError, match="truncated snapshot payload"):
            read_header(blob[:-10])

    def test_corrupt_payload_checksum(self, blob):
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            read_header(flipped)

    def test_corrupt_pickle_with_valid_checksum(self):
        # A header that frames garbage correctly: only unpickling can fail.
        import hashlib
        import json

        payload = b"\x80\x05garbage"
        header = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
            "base_tick": 0,
            "plan": None,
            "plan_digest": None,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        blob = SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + payload
        with pytest.raises(SnapshotError, match="unpickling failed"):
            restore_prepared(blob)

    def test_unpicklable_prepared_is_a_named_error(self):
        class Unpicklable:
            simulator = None

            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(SnapshotError, match="has no .simulator"):
            snapshot_prepared(object())
        prepared = _prepare()
        prepared.poison = Unpicklable()
        with pytest.raises(SnapshotError, match="not picklable"):
            snapshot_prepared(prepared)


class TestRestoreOracle:
    def test_snapshot_does_not_perturb_the_running_instance(self):
        perturbed, reference = _prepare(), _prepare()
        perturbed.simulator.step(HORIZONS[0])
        reference.simulator.step(HORIZONS[0])
        snapshot_prepared(perturbed)
        perturbed.simulator.step(HORIZONS[1] - HORIZONS[0])
        reference.simulator.step(HORIZONS[1] - HORIZONS[0])
        assert perturbed.outcome(HORIZONS[1]).stats == reference.outcome(HORIZONS[1]).stats

    def test_restore_continues_to_the_identical_outcome(self):
        fresh = _prepare()
        fresh.simulator.step(HORIZONS[0])
        restored = restore_prepared(snapshot_prepared(fresh))
        assert restored.base_tick == HORIZONS[0]
        assert restored.prepared.simulator.current_cycle == HORIZONS[0]
        # Outcomes agree at the snapshot point...
        assert restored.prepared.outcome(HORIZONS[0]).stats == fresh.outcome(HORIZONS[0]).stats
        # ...and stay in lockstep when both continue simulating.
        fresh.simulator.step(HORIZONS[1] - HORIZONS[0])
        restored.prepared.simulator.step(HORIZONS[1] - HORIZONS[0])
        assert restored.prepared.outcome(HORIZONS[1]).stats == fresh.outcome(HORIZONS[1]).stats
        assert _loop_stats(restored.prepared.simulator) == _loop_stats(fresh.simulator)

    def test_restore_adopts_the_canonical_interned_plan(self):
        fresh = _prepare()
        plan = _plan_of(fresh)
        restored = restore_prepared(snapshot_prepared(fresh))
        simulator = restored.prepared.simulator
        assert simulator._plan is plan
        assert simulator._state.bound_plan is plan
        assert restored.plan_shared is True

    def test_snapshot_is_backend_neutral(self):
        prepared = _prepare()
        prepared.simulator.step(HORIZONS[0])
        state = pickle.loads(pickle.dumps(prepared.simulator._state))
        assert state._active_component is None

    @settings(max_examples=8, deadline=None)
    @given(
        period=st.sampled_from([1_000, 1_700, 2_000, 3_500]),
        cut=st.integers(min_value=1, max_value=29_999),
        dense=st.booleans(),
    )
    def test_differential_fresh_vs_restored(self, period, cut, dense):
        """Snapshot at an arbitrary mid-run cycle (not just stop boundaries),
        restore, continue: the outcome and the simulated *work* (dense
        ticks, skipped cycles) must match a fresh uninterrupted run, and
        every loop counter must match a twin that merely paused at the same
        cycle without snapshotting — snapshot/restore adds nothing beyond
        what pausing itself does.  Both kernel modes."""
        fresh = _prepare(dense=dense, sample_period_cycles=period)
        paused = _prepare(dense=dense, sample_period_cycles=period)
        interrupted = _prepare(dense=dense, sample_period_cycles=period)
        paused.simulator.step(cut)
        interrupted.simulator.step(cut)
        restored = restore_prepared(snapshot_prepared(interrupted)).prepared
        fresh.simulator.step(HORIZONS[0])
        paused.simulator.step(HORIZONS[0] - cut)
        restored.simulator.step(HORIZONS[0] - cut)
        assert restored.outcome(HORIZONS[0]).stats == fresh.outcome(HORIZONS[0]).stats
        assert _loop_stats(restored.simulator) == _loop_stats(paused.simulator)
        # Pausing may split a quiescent span (one extra next_event call);
        # the simulated work itself must be identical to the one-shot run.
        for key in ("dense_ticks", "cycles_skipped"):
            assert restored.simulator.kernel_stats[key] == fresh.simulator.kernel_stats[key]


class TestPlanInternBounds:
    def _fingerprint(self, index):
        # Distinct structural fingerprints without building real topologies:
        # the entry tuple shape is (cls, ticks, hinted, skips, cacheable,
        # slot) — vary the slot to vary the fingerprint.
        return (True, ((object, True, True, False, True, index),))

    def test_adopt_evicts_least_recently_used_beyond_capacity(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "PLAN_INTERN_CAPACITY", 2)
        monkeypatch.setattr(simulator_module, "_PLAN_INTERN", {})
        table = simulator_module._PLAN_INTERN
        plans = [SchedulePlan(self._fingerprint(i)) for i in range(3)]
        assert SchedulePlan.adopt(plans[0]) == (plans[0], False, 0)
        assert SchedulePlan.adopt(plans[1]) == (plans[1], False, 0)
        # Refresh plan 0 so plan 1 is now the least recently used.
        adopted, shared, evicted = SchedulePlan.adopt(SchedulePlan(self._fingerprint(0)))
        assert adopted is plans[0] and shared and evicted == 0
        _, _, evicted = SchedulePlan.adopt(plans[2])
        assert evicted == 1
        assert plans[1].fingerprint not in table
        assert plans[0].fingerprint in table and plans[2].fingerprint in table

    def test_evictions_are_charged_to_kernel_stats(self, monkeypatch):
        monkeypatch.setattr(simulator_module, "PLAN_INTERN_CAPACITY", 0)
        monkeypatch.setattr(simulator_module, "_PLAN_INTERN", {})
        prepared = _prepare()
        prepared.simulator.step(1)
        stats = prepared.simulator.kernel_stats
        assert stats["plan_builds"] == 1
        assert stats["plan_evictions"] == 1  # capacity 0: every insert evicts

    def test_default_capacity_is_sane(self):
        assert PLAN_INTERN_CAPACITY >= 64
