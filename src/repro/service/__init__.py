"""Simulation-as-a-service: an asyncio job server over the sweep engine.

The experiment engine (:mod:`repro.experiments`) runs sweeps in-process;
this package puts it behind a small multi-tenant HTTP/JSON service so
several clients share one compute pool and one result cache:

- :mod:`repro.service.server` — the asyncio server: job queue draining
  into the process pool, cache-aware admission with cross-tenant
  dedup, drain/shutdown, the HTTP routes;
- :mod:`repro.service.worker` — the pool-side runner: one spec to its
  summary plus the run's own solver and fault counters;
- :mod:`repro.service.client` — the blocking client (used by the
  ``servectl`` CLI and the test fixture alike);
- :mod:`repro.service.jobs` / :mod:`repro.service.queue` — the job
  model and the FIFO-with-priorities queue;
- :mod:`repro.service.quotas` — per-tenant quotas and token-bucket
  rate limiting;
- :mod:`repro.service.metrics` — the dependency-free Prometheus
  registry behind ``/metrics``;
- :mod:`repro.service.errors` — typed rejections with a stable wire
  format;
- :mod:`repro.service.testing` — the in-process service fixture the
  test suite (and load experiments) build on.

Start a server with ``python -m repro.tools.servectl serve``.
"""

from repro.service.client import ServiceClient
from repro.service.errors import (
    InvalidSpecError,
    JobNotFinishedError,
    QuotaExceededError,
    RateLimitedError,
    ServiceDrainingError,
    ServiceError,
    UnknownJobError,
    WorkerCrashedError,
)
from repro.service.metrics import Counter, Gauge, MetricsRegistry
from repro.service.quotas import QuotaManager, TenantPolicy, TokenBucket
from repro.service.server import DEFAULT_TENANT, SweepService
from repro.service.worker import run_service_spec

__all__ = [
    "DEFAULT_TENANT",
    "Counter",
    "Gauge",
    "InvalidSpecError",
    "JobNotFinishedError",
    "MetricsRegistry",
    "QuotaExceededError",
    "QuotaManager",
    "RateLimitedError",
    "ServiceClient",
    "ServiceDrainingError",
    "ServiceError",
    "SweepService",
    "TenantPolicy",
    "TokenBucket",
    "UnknownJobError",
    "WorkerCrashedError",
    "run_service_spec",
]
