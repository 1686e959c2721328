"""Extent/byte-range lock manager for shared-file writes.

Lustre grants extent locks per (file, target); GPFS hands out byte-range
tokens. In both, two clients writing *inside the same stripe* of a shared
file conflict: the lock is revoked from the previous holder (a network
round-trip) and, for stripes only partially covered by a request (the
ragged first/last stripe of an unaligned region), the conflicting
partial-stripe data must flush serially — writers take turns on the
boundary stripe.

The model therefore distinguishes:

- **full stripes** whose previous holder differs: one ``revoke_latency``
  each, charged as a batched delay (extent split, no data serialisation);
- **partial (boundary) stripes** under concurrent writers: an exclusive
  per-stripe slot held for the flush of that stripe's overlap — this is
  what makes oversized stripes (the paper's 32 MB experiment) expensive,
  because the serialized flush grows with the stripe size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Sequence, Tuple

from repro.des.resources import Resource

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine

__all__ = ["ExtentLockManager"]


class ExtentLockManager:
    """Per-file stripe-granular write locks with revocation cost."""

    def __init__(self, machine: "Machine", revoke_latency: float = 1.5e-3,
                 flush_bandwidth: float = 60e6,
                 expansive: bool = False) -> None:
        self.machine = machine
        self.revoke_latency = revoke_latency
        #: Rate at which a conflicted boundary stripe's data flushes.
        self.flush_bandwidth = flush_bandwidth
        #: Lustre-style expansive grants: a writer's extent lock on an OST
        #: object covers (far) more than it wrote, so the *next* writer to
        #: the same object conflicts and forces a serialised dirty flush.
        self.expansive = expansive
        #: (file id, stripe) -> owner id of the last writer.
        self._holders: Dict[Tuple[int, int], int] = {}
        #: (file id, stripe) -> boundary-flush serialisation point.
        self._stripe_slots: Dict[Tuple[int, int], Resource] = {}
        #: (file id, target) -> (owner, dirty bytes of the last write).
        self._object_holders: Dict[Tuple[int, int], Tuple[int, float]] = {}
        #: (file id, target) -> flush serialisation point.
        self._object_slots: Dict[Tuple[int, int], Resource] = {}
        self.revocations = 0
        self.acquisitions = 0
        self.boundary_waits = 0
        #: Fault injection (:mod:`repro.faults`): while > 0, every
        #: acquisition behaves as if a competing job holds the locks —
        #: this many forced revocation round-trips are charged on top of
        #: the genuine conflicts. 0 (the healthy value) adds nothing.
        self.storm_revokes = 0

    def acquire(self, file_id: int, owner: int,
                full_stripes: Iterable[int],
                partial_stripes: Sequence[Tuple[int, int]] = ()):
        """Process: take write locks for one request.

        ``full_stripes`` — stripe numbers fully covered by the request;
        ``partial_stripes`` — (stripe number, overlap bytes) for the ragged
        boundary stripes. Returns ``None`` (all costs are charged inline;
        nothing is held after acquire returns — boundary serialisation is
        resolved here, matching Lustre's revoke-then-grant behaviour).
        """
        sim = self.machine.sim
        tracer = sim.tracer
        revokes = self.storm_revokes
        for stripe in full_stripes:
            key = (file_id, stripe)
            self.acquisitions += 1
            previous = self._holders.get(key)
            if previous is not None and previous != owner:
                revokes += 1
            self._holders[key] = owner

        for stripe, overlap_bytes in partial_stripes:
            key = (file_id, stripe)
            self.acquisitions += 1
            previous = self._holders.get(key)
            self._holders[key] = owner
            if previous is None or previous == owner:
                continue
            revokes += 1
            # Serial flush of the contested boundary stripe.
            slot = self._stripe_slots.get(key)
            if slot is None:
                slot = self._stripe_slots[key] = Resource(sim, capacity=1)
            flush_started = sim.now
            request = slot.request()
            yield request
            self.boundary_waits += 1
            try:
                yield sim.timeout(overlap_bytes / self.flush_bandwidth)
            finally:
                slot.release(request)
                if tracer.enabled:
                    tracer.record_span(
                        "stripe_flush", f"stripe{stripe}",
                        f"locks/file{file_id}", flush_started, sim.now,
                        file_id=file_id, stripe=stripe,
                        nbytes=int(overlap_bytes), owner=owner,
                        previous=previous)

        if revokes:
            self.revocations += revokes
            if tracer.enabled:
                tracer.record_event(
                    "lock_revoke", f"file{file_id}",
                    f"locks/file{file_id}", file_id=file_id,
                    owner=owner, revokes=revokes)
            yield sim.timeout(self.revoke_latency * revokes)

    def acquire_expansive(self, file_id: int, owner: int,
                          target_bytes: Dict[int, float]):
        """Process: per-OST-object extent locks with expansive grants.

        ``target_bytes`` maps storage-target index → bytes this request
        writes there. For each object whose previous holder differs, the
        previous holder's dirty data flushes serially before this writer
        may proceed (one revocation round-trip plus the flush)."""
        sim = self.machine.sim
        tracer = sim.tracer
        if self.storm_revokes and target_bytes:
            # Revocation storm: a competing job's locks cover every
            # object this request touches.
            self.revocations += self.storm_revokes
            if tracer.enabled:
                tracer.record_event(
                    "lock_revoke", f"file{file_id}/storm",
                    f"locks/file{file_id}", file_id=file_id,
                    owner=owner, revokes=self.storm_revokes, storm=True)
            yield sim.timeout(self.revoke_latency * self.storm_revokes)
        for target, nbytes in target_bytes.items():
            key = (file_id, target)
            self.acquisitions += 1
            previous = self._object_holders.get(key)
            self._object_holders[key] = (owner, float(nbytes))
            if previous is None or previous[0] == owner:
                continue
            self.revocations += 1
            if tracer.enabled:
                tracer.record_event(
                    "lock_revoke", f"file{file_id}/t{target}",
                    f"locks/file{file_id}", file_id=file_id,
                    target=target, owner=owner, previous=previous[0])
            slot = self._object_slots.get(key)
            if slot is None:
                slot = self._object_slots[key] = Resource(sim, capacity=1)
            flush_started = sim.now
            request = slot.request()
            yield request
            self.boundary_waits += 1
            try:
                yield sim.timeout(
                    self.revoke_latency
                    + previous[1] / self.flush_bandwidth)
            finally:
                slot.release(request)
                if tracer.enabled:
                    tracer.record_span(
                        "stripe_flush", f"object{target}",
                        f"locks/file{file_id}", flush_started, sim.now,
                        file_id=file_id, target=target,
                        nbytes=int(previous[1]), owner=owner,
                        previous=previous[0])
