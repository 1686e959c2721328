"""Pluggable sweep-execution backends.

:func:`repro.experiments.executor.run_sweep` is a cache-aware
scheduler over any :class:`~repro.experiments.backends.base.Backend`:

==========  ============================================
name        runs tasks on
==========  ============================================
serial      the calling process
process     a local ``ProcessPoolExecutor``
remote      TCP workers (``repro.tools.sweepworkerctl``)
==========  ============================================

Pick one by name with :func:`make_backend` (what ``REPRO_BACKEND`` and
the figure CLI's ``--backend`` resolve through) or construct directly.
"""

from __future__ import annotations

from typing import Any, Optional

from repro import config
from repro.experiments.backends.base import (
    Backend,
    BackendCounters,
    BackendError,
    TaskOutcome,
)
from repro.experiments.backends.local import (
    ProcessBackend,
    SerialBackend,
    pool_chunksize,
)
from repro.experiments.backends.remote import (
    NoWorkersError,
    RemoteBackend,
    RemoteBackendError,
    RemoteTaskError,
    TaskRetryLimitError,
    parse_workers,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendCounters",
    "BackendError",
    "NoWorkersError",
    "ProcessBackend",
    "RemoteBackend",
    "RemoteBackendError",
    "RemoteTaskError",
    "SerialBackend",
    "TaskOutcome",
    "TaskRetryLimitError",
    "default_backend_name",
    "make_backend",
    "parse_workers",
    "pool_chunksize",
]

#: Names :func:`make_backend` accepts.
BACKENDS = config.KNOBS["REPRO_BACKEND"].choices


def default_backend_name() -> str:
    """The backend ``run_sweep`` uses when none is passed
    (``REPRO_BACKEND``, else ``process``)."""
    return config.get("REPRO_BACKEND")


def make_backend(name: Optional[str] = None, *,
                 workers: Optional[Any] = None) -> Backend:
    """Build a backend by registry name.

    ``name=None`` resolves :func:`default_backend_name`. ``workers``
    means a worker *count* for process and worker *addresses*
    (string or list, ``REPRO_WORKERS`` format) for remote; it is
    ignored by serial.
    """
    if name is None:
        name = default_backend_name()
    name = name.strip().lower()
    if name == "serial":
        return SerialBackend()
    if name == "process":
        count = None if workers is None else int(workers)
        return ProcessBackend(workers=count)
    if name == "remote":
        return RemoteBackend(workers=workers)
    raise BackendError(
        f"unknown backend {name!r}; pick one of {', '.join(BACKENDS)}")
