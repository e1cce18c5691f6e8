"""Name of the batch round loop, for callers that record which loop ran.

:class:`~repro.sim.batch.BatchSimulator` has exactly one round loop, the
pure-python one in :meth:`~repro.sim.batch.BatchSimulator.run`.  This
module exists only so that callers which record the loop's name in their
provenance (``resolve_backend(None).name``) still can; it always answers
``"python"``.
"""

from __future__ import annotations

from types import SimpleNamespace

_PYTHON = SimpleNamespace(name="python")


def resolve_backend(backend: None = None) -> SimpleNamespace:
    """Return the one round loop's descriptor (``.name == "python"``)."""
    return _PYTHON
