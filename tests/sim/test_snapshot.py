"""Snapshot/restore of prepared scenarios.

The acceptance oracle is the restore⇒identical-run property: a prepared
scenario snapshotted mid-run and restored in (conceptually) another
process must continue to exactly the outcome the original run produces —
same stats, same activity counters, same kernel counters, including
``plan_builds`` (a restored simulator keeps the classification it was
pickled with).  Around that sit the container-integrity checks: every
corruption, including a payload that no longer unpickles, is a *named*
``SnapshotError``.
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    read_header,
    restore_prepared,
    snapshot_prepared,
)
from repro.workloads.registry import scenario

SCENARIO = "duty-cycled-logging"
HORIZONS = [30_000, 60_000]


def _prepare(dense=False, **params):
    return scenario(SCENARIO).prepare(list(HORIZONS), dense, **params)


def _frame(payload, base_tick=0):
    """A well-framed blob around ``payload``: only unpickling can fail."""
    header = {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "base_tick": base_tick,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    return SNAPSHOT_MAGIC + json.dumps(header).encode() + b"\n" + payload


class TestPlanPayload:
    """The classification travels inside the pickled simulator.  A payload
    that cannot rebuild it (a class that moved, a foreign object) is a
    named error, never a crash or a half-restored simulator."""

    def test_unresolvable_class_is_a_named_error(self):
        prepared = _prepare()
        prepared.simulator.step(HORIZONS[0])
        _, payload = read_header(snapshot_prepared(prepared))
        assert payload.count(b"\x8c\x05Timer") == 1
        renamed = payload.replace(b"\x8c\x05Timer", b"\x8c\x05Tymer")
        with pytest.raises(SnapshotError, match="unpickling failed.*Tymer"):
            restore_prepared(_frame(renamed, HORIZONS[0]))

    def test_malformed_payload_is_a_named_error(self):
        with pytest.raises(SnapshotError, match="has no .simulator"):
            restore_prepared(_frame(pickle.dumps({"simulator": None})))
        prepared = _prepare()
        prepared.simulator.step(10)
        with pytest.raises(SnapshotError, match="at cycle 10, header says 0"):
            restore_prepared(_frame(pickle.dumps(prepared)))


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
        assert set(header) == {"schema_version", "base_tick", "payload_bytes", "payload_sha256"}

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
        with pytest.raises(SnapshotError, match="unpickling failed"):
            restore_prepared(_frame(b"\x80\x05garbage"))

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
        assert restored.prepared.simulator.kernel_stats == fresh.simulator.kernel_stats

    def test_restored_simulator_keeps_its_classification(self):
        fresh = _prepare()
        fresh.simulator.step(HORIZONS[0])
        simulator = restore_prepared(snapshot_prepared(fresh)).prepared.simulator
        state = simulator.state
        assert simulator.kernel_stats["plan_builds"] == 1
        deadlines, dirty = list(state.deadlines), set(state._dirty)
        assert any(deadline is not None for deadline in deadlines)
        # Stepping re-checks the fingerprint; an unchanged one must neither
        # rebuild the classification nor clear the restored wake cache.
        assert simulator._schedule_plan() is state
        assert (state.deadlines, state._dirty) == (deadlines, dirty)
        simulator.step(HORIZONS[1] - HORIZONS[0])
        assert simulator.kernel_stats["plan_builds"] == 1

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
        every kernel counter (``plan_builds`` included) must match a twin
        that merely paused at the same cycle without snapshotting —
        snapshot/restore adds nothing beyond what pausing itself does.
        Both kernel modes."""
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
        assert restored.simulator.kernel_stats == paused.simulator.kernel_stats
        # Pausing may split a quiescent span (one extra next_event call);
        # the simulated work itself must be identical to the one-shot run.
        for key in ("dense_ticks", "cycles_skipped"):
            assert restored.simulator.kernel_stats[key] == fresh.simulator.kernel_stats[key]
