"""Worker supervision: bounded concurrency, deadlines, and kill duty.

One round of the fleet is a set of launch thunks (one per shard).  The
:class:`Supervisor` runs at most ``max_workers`` of them at a time, polls
every running handle on a short interval (the heartbeat), and enforces two
kinds of kill:

* **deadline** — a worker that outlives ``timeout`` seconds is SIGKILLed
  and its attempt marked ``timeout``; a hung simulation must not wedge the
  whole fleet;
* **scheduled** (``kill_at``) — chaos injection: the controller can arm an
  attempt to be killed shortly after launch, which is how the chaos tests
  produce a real mid-shard SIGKILL through exactly the production path.

The supervisor only *classifies how the process exited* (``timeout``,
``crash`` for signal deaths, ``nonzero-exit``, ``exited`` for rc 0).
Whether the attempt actually *delivered* is decided later by artifact
validation in the controller — a timeout victim that flushed its artifacts
still counts, a clean exit with a truncated results.json does not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.sweep.campaign import ShardSpec

from repro.fleet.transport import WorkerHandle

#: Exit classifications the supervisor assigns (pre-validation).
TIMEOUT = "timeout"
CRASH = "crash"
NONZERO_EXIT = "nonzero-exit"
EXITED = "exited"


@dataclass
class Attempt:
    """One execution attempt of one shard."""

    shard: ShardSpec
    #: 1-based attempt number for this shard (ledger bookkeeping).
    number: int
    #: The artifact directory this attempt is expected to produce.
    artifact_dir: "object"
    handle: Optional[WorkerHandle] = None
    started: float = 0.0
    #: Monotonic deadline; ``None`` disables the timeout.
    deadline: Optional[float] = None
    #: Monotonic instant at which to SIGKILL this attempt (chaos injection).
    kill_at: Optional[float] = None
    returncode: Optional[int] = None
    wall_seconds: float = 0.0
    #: Supervisor exit classification (one of the module constants).
    exit_class: Optional[str] = None
    #: Filled by the controller after artifact validation.
    outcome: Optional[str] = None
    accepted: bool = False
    detail: str = ""
    #: Chaos fault injected into this attempt, if any (ledger audit trail).
    chaos: Optional[str] = None


#: A thunk that launches one attempt and returns it with ``handle``,
#: ``started``, ``deadline`` and (optionally) ``kill_at`` populated.
LaunchFn = Callable[[], Attempt]


class Supervisor:
    """Run launch thunks with bounded concurrency and kill discipline."""

    def __init__(self, max_workers: int, poll_interval: float = 0.05) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be at least 1, got {max_workers}")
        self.max_workers = max_workers
        self.poll_interval = poll_interval

    def run(self, launches: Sequence[LaunchFn]) -> List[Attempt]:
        """Run every launch to completion; return attempts in launch order."""
        pending = list(launches)
        running: List[Attempt] = []
        order: List[Attempt] = []
        while pending or running:
            while pending and len(running) < self.max_workers:
                attempt = pending.pop(0)()
                order.append(attempt)
                running.append(attempt)
            now = time.monotonic()
            running = [attempt for attempt in running if not self._sweep(attempt, now)]
            if running and not (pending and len(running) < self.max_workers):
                time.sleep(self.poll_interval)
        return order

    def _sweep(self, attempt: Attempt, now: float) -> bool:
        """Poll one attempt; kill it when a deadline or chaos timer fires.
        Returns True once the attempt has fully exited."""
        handle = attempt.handle
        returncode = handle.poll()
        if returncode is None:
            timed_out = attempt.deadline is not None and now >= attempt.deadline
            chaos_due = attempt.kill_at is not None and now >= attempt.kill_at
            if timed_out or chaos_due:
                handle.kill()
                if timed_out:
                    # Mark now: the post-kill returncode will be a signal
                    # death, which must classify as timeout, not crash.
                    attempt.exit_class = TIMEOUT
            return False
        attempt.returncode = returncode
        attempt.wall_seconds = now - attempt.started
        if attempt.exit_class is None:
            if returncode == 0:
                attempt.exit_class = EXITED
            elif returncode < 0:
                attempt.exit_class = CRASH
            else:
                attempt.exit_class = NONZERO_EXIT
        return True
