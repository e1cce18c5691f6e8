"""How the fleet runs one shard: a local subprocess behind a handle.

The controller speaks one tiny vocabulary: *launch this argv, give me a
handle I can poll and kill*.  Everything campaign-specific (the ``sweep
--shard`` argv, artifact directories, validation) stays in the controller.
:func:`launch_local` starts one OS subprocess per shard, captures
stdout+stderr to a per-attempt log file, and prepends the package's
``src/`` to ``PYTHONPATH`` so workers import the same code as the
controller.  The supervisor only sees :class:`WorkerHandle`, which is also
what its tests substitute with a fake.
"""

from __future__ import annotations

import abc
import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional


@dataclass
class WorkerSpec:
    """One launch request: what to run and where its log goes."""

    name: str
    argv: List[str]
    log_path: Path


class WorkerHandle(abc.ABC):
    """A running (or finished) worker the supervisor can poll and kill."""

    spec: WorkerSpec

    @abc.abstractmethod
    def poll(self) -> Optional[int]:
        """The worker's exit status, or ``None`` while it is still running.
        Negative values mean death by signal (POSIX convention)."""

    @abc.abstractmethod
    def kill(self) -> None:
        """Forcibly terminate the worker (SIGKILL semantics).  Idempotent;
        a no-op once the worker has exited."""

    @property
    @abc.abstractmethod
    def ident(self) -> str:
        """The worker's identity for logs (e.g. ``pid:1234``)."""


class LocalProcessHandle(WorkerHandle):
    """Handle over one local OS subprocess."""

    def __init__(self, spec: WorkerSpec, process: subprocess.Popen, log_file) -> None:
        self.spec = spec
        self._process = process
        self._log_file = log_file

    def poll(self) -> Optional[int]:
        returncode = self._process.poll()
        if returncode is not None and self._log_file is not None:
            self._log_file.close()
            self._log_file = None
        return returncode

    def kill(self) -> None:
        if self._process.poll() is not None:
            return
        try:
            # The worker may have forked a multiprocessing pool; it runs in
            # its own session (start_new_session=True), so killing the
            # process group reaps the whole tree, not just the leader.
            os.killpg(self._process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            self._process.kill()

    @property
    def ident(self) -> str:
        return f"pid:{self._process.pid}"


def launch_local(spec: WorkerSpec) -> WorkerHandle:
    """Start one worker as a local subprocess with captured logs; never
    blocks on its completion."""
    env = dict(os.environ)
    # Workers must import the same repro tree as the controller even
    # when the controller was started via a path hack rather than an
    # installed package.
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    spec.log_path.parent.mkdir(parents=True, exist_ok=True)
    log_file = spec.log_path.open("wb")
    process = subprocess.Popen(
        spec.argv,
        stdout=log_file,
        stderr=subprocess.STDOUT,
        stdin=subprocess.DEVNULL,
        env=env,
        start_new_session=True,
    )
    return LocalProcessHandle(spec, process, log_file)


def default_worker_argv() -> List[str]:
    """The interpreter prefix every local worker argv starts with."""
    return [sys.executable, "-m", "repro.run"]
