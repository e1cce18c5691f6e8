"""Supervisor: bounded concurrency, deadlines, chaos kills, classification.

Driven entirely through fake in-memory worker handles — no subprocesses —
so every timing path is fast and deterministic.
"""

import time
from typing import Optional

import pytest

from repro.fleet.supervisor import (
    CRASH,
    EXITED,
    NONZERO_EXIT,
    TIMEOUT,
    Attempt,
    Supervisor,
)
from repro.fleet.transport import WorkerHandle, WorkerSpec
from repro.sweep.campaign import ShardSpec


class FakeHandle(WorkerHandle):
    """Scripted worker: exits with ``returncode`` after ``runtime`` seconds
    (never, if None) unless killed first (then dies with -9)."""

    def __init__(self, name: str, returncode: int = 0, runtime: float = 0.0):
        self.spec = WorkerSpec(name=name, argv=["fake"], log_path=None)
        self._returncode = returncode
        self._deadline = None if runtime is None else time.monotonic() + runtime
        self._killed_at: Optional[float] = None

    def poll(self) -> Optional[int]:
        if self._killed_at is not None:
            return -9
        if self._deadline is not None and time.monotonic() >= self._deadline:
            return self._returncode
        return None

    def kill(self) -> None:
        if self.poll() is None:
            self._killed_at = time.monotonic()

    @property
    def ident(self) -> str:
        return f"fake:{self.spec.name}"


def make_launch(
    name: str,
    returncode: int = 0,
    runtime: float = 0.0,
    timeout: Optional[float] = None,
    kill_after: Optional[float] = None,
    tracker: Optional[list] = None,
):
    def launch() -> Attempt:
        if tracker is not None:
            tracker.append(name)
        now = time.monotonic()
        attempt = Attempt(
            shard=ShardSpec(index=0, count=1),
            number=1,
            artifact_dir=f"/nonexistent/{name}",
            handle=FakeHandle(name, returncode=returncode, runtime=runtime),
            started=now,
            deadline=(now + timeout) if timeout is not None else None,
        )
        if kill_after is not None:
            attempt.kill_at = now + kill_after
        return attempt

    return launch


SUP = Supervisor(max_workers=4, poll_interval=0.01)


class TestClassification:
    def test_clean_exit(self):
        (attempt,) = SUP.run([make_launch("ok")])
        assert attempt.exit_class == EXITED
        assert attempt.returncode == 0
        assert attempt.wall_seconds >= 0

    def test_nonzero_exit(self):
        (attempt,) = SUP.run([make_launch("fail", returncode=3)])
        assert attempt.exit_class == NONZERO_EXIT
        assert attempt.returncode == 3

    def test_signal_death_is_a_crash(self):
        (attempt,) = SUP.run([make_launch("sig", returncode=-11)])
        assert attempt.exit_class == CRASH

    def test_deadline_kill_classifies_as_timeout_not_crash(self):
        # The worker never exits on its own; the supervisor must kill it at
        # the deadline, and the resulting signal death is a *timeout*.
        (attempt,) = SUP.run([make_launch("hung", runtime=None, timeout=0.05)])
        assert attempt.exit_class == TIMEOUT
        assert attempt.returncode == -9

    def test_chaos_kill_at_classifies_as_crash(self):
        # kill_at is fault injection: the death must look like a real crash.
        (attempt,) = SUP.run(
            [make_launch("chaos", runtime=None, timeout=5.0, kill_after=0.02)]
        )
        assert attempt.exit_class == CRASH

    def test_no_deadline_means_no_timeout(self):
        (attempt,) = SUP.run([make_launch("slowish", runtime=0.05)])
        assert attempt.exit_class == EXITED


class TestScheduling:
    def test_returns_attempts_in_launch_order(self):
        launches = [
            make_launch("a", runtime=0.05),
            make_launch("b", runtime=0.0),
            make_launch("c", runtime=0.02),
        ]
        attempts = SUP.run(launches)
        assert [a.handle.spec.name for a in attempts] == ["a", "b", "c"]

    def test_bounded_concurrency_queues_excess_launches(self):
        order = []
        supervisor = Supervisor(max_workers=2, poll_interval=0.01)
        launches = [
            make_launch(f"w{i}", runtime=0.03, tracker=order) for i in range(5)
        ]
        attempts = supervisor.run(launches)
        assert len(attempts) == 5
        assert all(a.exit_class == EXITED for a in attempts)
        # The queue drains strictly as slots free: only 2 launched up front.
        assert order == [f"w{i}" for i in range(5)]

    def test_max_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="max_workers"):
            Supervisor(max_workers=0)
