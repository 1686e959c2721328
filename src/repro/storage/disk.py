"""Storage target (data server / OST / NSD) service model.

Each target is a :class:`~repro.des.bandwidth.LinkCapacity` with service
effects layered on top:

- **object concurrency degradation** — a disk-backed target writing many
  *distinct files* at once thrashes (seeks, cache dilution). Efficiency
  is ``1 / (1 + (n_objects-1 / object_half)^object_exp)``, floored at
  ``min_efficiency``. This is why file-per-process collapses at scale
  while Damaris' one-file-per-node stays near peak ("reducing the number
  of writers allows data servers to optimize disk accesses and caching").
- **stream concurrency degradation** — per-connection overhead: many
  concurrent client streams cost efficiency even inside one file (gentler
  curve; dominant on network-bound PVFS servers, mild on Lustre OSTs).
- **per-request efficiency** — a request with access granularity ``g``
  is capped at ``stream_peak · g / (g + request_overhead_bytes)``: small
  or finely-strided requests never reach streaming bandwidth.
- **stragglers** — each request's cap is further multiplied by a
  lognormal slowdown; the heavy tail makes the *max* write time diverge
  from the mean at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.des.bandwidth import LinkCapacity
from repro.des.core import Event
from repro.errors import StorageError
from repro.units import KiB

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.cluster.node import SMPNode

__all__ = ["TargetSpec", "StorageTarget"]


@dataclass
class TargetSpec:
    """Tunable service parameters of one storage target."""

    #: Peak sequential bandwidth of the target, bytes/s.
    peak_bandwidth: float = 90e6
    #: Peak bandwidth achievable by a single stream, bytes/s.
    stream_peak: float = 90e6
    #: Distinct concurrent file objects at which efficiency halves.
    object_half: float = 20.0
    #: Shape of the object-concurrency curve.
    object_exp: float = 1.0
    #: Concurrent streams at which efficiency halves (gentle by default).
    stream_half: float = 1500.0
    #: Shape of the stream-concurrency curve.
    stream_exp: float = 1.0
    #: Floor on the combined concurrency-degraded efficiency.
    min_efficiency: float = 0.02
    #: Access granularity at which per-request efficiency reaches 50 %.
    request_overhead_bytes: float = 256 * KiB
    #: Lognormal sigma of the per-request straggler factor.
    straggler_sigma: float = 0.3
    #: Fixed per-request service latency, seconds.
    request_latency: float = 2e-3
    #: Requests in service concurrently; the rest wait FIFO. This is what
    #: spreads per-rank write times (the paper's "fastest <1 s, slowest
    #: >25 s"): early requests run at a large bandwidth share, late ones
    #: queue behind everyone. 0 disables queueing (pure fair sharing).
    queue_depth: int = 16

    def __post_init__(self) -> None:
        if self.peak_bandwidth <= 0 or self.stream_peak <= 0:
            raise StorageError("bandwidths must be > 0")
        if not 0 < self.min_efficiency <= 1:
            raise StorageError(
                f"min_efficiency must be in (0,1], got {self.min_efficiency}")
        if self.object_half <= 0 or self.stream_half <= 0:
            raise StorageError("concurrency half-points must be > 0")
        if self.straggler_sigma < 0:
            raise StorageError("straggler_sigma must be >= 0")
        if self.queue_depth < 0:
            raise StorageError("queue_depth must be >= 0")


class StorageTarget:
    """One data server; owns a flow-network capacity that degrades with load."""

    def __init__(self, machine: "Machine", name: str, spec: TargetSpec) -> None:
        self.machine = machine
        self.name = name
        self.spec = spec
        self.link: LinkCapacity = machine.flows.add_capacity(
            name, spec.peak_bandwidth)
        self.active_streams = 0
        self._active_objects: Dict[int, int] = {}
        self.bytes_written = 0.0
        self.requests_served = 0
        self._stream = machine.streams.stream(f"straggler.{name}")
        from repro.des.resources import Resource
        self._service_slots = (
            Resource(machine.sim, capacity=spec.queue_depth)
            if spec.queue_depth > 0 else None)
        #: External capacity modulation (cross-application interference).
        self.interference_factor = 1.0
        #: Fault-injection capacity modulation (OST brownout windows,
        #: :mod:`repro.faults`); composes with interference. 1.0 is the
        #: healthy value and multiplies out exactly (IEEE ×1.0), so an
        #: un-faulted run is bit-identical to one without the hook.
        self.fault_factor = 1.0
        self._applied_capacity = spec.peak_bandwidth
        #: Relative capacity change below which updates are skipped (a
        #: ±1-stream wiggle among hundreds must not trigger a global
        #: share recomputation).
        self.update_threshold = 0.03

    # ------------------------------------------------------------------ #
    # service model
    # ------------------------------------------------------------------ #
    def efficiency(self, nobjects: int, nstreams: int) -> float:
        """Combined concurrency-degraded fraction of peak bandwidth."""
        spec = self.spec
        eff = 1.0
        if nobjects > 1:
            eff /= 1.0 + ((nobjects - 1) / spec.object_half) ** spec.object_exp
        if nstreams > 1:
            eff /= 1.0 + ((nstreams - 1) / spec.stream_half) ** spec.stream_exp
        return max(eff, spec.min_efficiency)

    def request_rate_cap(self, granularity: float) -> float:
        """Per-stream rate cap for an access granularity (before straggler)."""
        spec = self.spec
        if granularity <= 0:
            return spec.stream_peak
        size_eff = granularity / (granularity + spec.request_overhead_bytes)
        return spec.stream_peak * size_eff

    def straggler_factor(self) -> float:
        """Multiplicative slowdown (median 1) for one request."""
        sigma = self.spec.straggler_sigma
        if sigma == 0:
            return 1.0
        return 1.0 / float(self._stream.lognormal(mean=0.0, sigma=sigma))

    def set_interference(self, factor: float) -> None:
        """Scale capacity by an external load factor in (0, 1]."""
        if not 0 < factor <= 1:
            raise StorageError(f"interference factor must be in (0,1], "
                               f"got {factor}")
        self.interference_factor = factor
        self._update_capacity()

    def set_fault_factor(self, factor: float) -> None:
        """Scale capacity by a fault-injection factor in (0, 1].

        Unlike ordinary load wiggles, a brownout edge must take effect
        immediately, so the update bypasses ``update_threshold``.
        """
        if not 0 < factor <= 1:
            raise StorageError(f"fault factor must be in (0,1], "
                               f"got {factor}")
        self.fault_factor = factor
        self._update_capacity(force=True)

    def _update_capacity(self, force: bool = False) -> None:
        eff = self.efficiency(len(self._active_objects), self.active_streams)
        capacity = max(
            self.spec.peak_bandwidth * eff * self.interference_factor
            * self.fault_factor, 1.0)
        if not force and abs(capacity - self._applied_capacity) \
                <= self.update_threshold * self._applied_capacity:
            return
        self._applied_capacity = capacity
        self.link.set_capacity(capacity)

    # ------------------------------------------------------------------ #
    # I/O entry points
    # ------------------------------------------------------------------ #
    def write_segment(self, source: "SMPNode", nbytes: float,
                      file_id: int = -1,
                      granularity: Optional[float] = None,
                      label: str = "write") -> Event:
        """Move ``nbytes`` from ``source`` into this target; returns the
        event that fires when the last byte has landed.

        ``file_id`` feeds the object-concurrency model; ``granularity``
        is the contiguous access size (defaults to the whole segment).
        """
        grain = granularity if granularity is not None else nbytes
        path = self.machine.path_to_storage(source, self.link)
        return _Segment(self, source, path, nbytes, grain, file_id, label,
                        read=False)

    def read_segment(self, dest: "SMPNode", nbytes: float,
                     file_id: int = -1, label: str = "read") -> Event:
        """Move ``nbytes`` from this target to ``dest``; returns the event
        that fires when the last byte has arrived."""
        path = [self.link, dest.nic_rx]
        if self.machine.fabric is not None:
            path.insert(1, self.machine.fabric)
        return _Segment(self, dest, path, nbytes, nbytes, file_id, label,
                        read=True)

    def _enter(self, file_id: int) -> None:
        self.active_streams += 1
        self._active_objects[file_id] = \
            self._active_objects.get(file_id, 0) + 1
        self._update_capacity()

    def _leave(self, file_id: int) -> None:
        self.active_streams -= 1
        remaining = self._active_objects.get(file_id, 0) - 1
        if remaining <= 0:
            self._active_objects.pop(file_id, None)
        else:
            self._active_objects[file_id] = remaining
        self._update_capacity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StorageTarget {self.name} streams={self.active_streams} "
                f"objects={len(self._active_objects)}>")


class _Segment(Event):
    """One stripe segment in flight: an event that succeeds once its
    flow has landed.

    Its bound methods are the request's steps, in order: the request
    latency (a bare ``call_later``), a service slot, the flow, then
    ``succeed``. No generator process drives a segment, so a striped
    write pays no process start, resume or exit per stripe.
    """

    __slots__ = ("target", "node", "path", "nbytes", "grain", "file_id",
                 "label", "read", "started", "slot")

    def __init__(self, target: StorageTarget, node: "SMPNode", path: list,
                 nbytes: float, grain: float, file_id: int, label: str,
                 read: bool) -> None:
        sim = target.machine.sim
        super().__init__(sim)
        self.target = target
        self.node = node
        self.path = path
        self.nbytes = nbytes
        self.grain = grain
        self.file_id = file_id
        self.label = label
        self.read = read
        self.started = sim.now
        self.slot = None
        sim.call_later(target.spec.request_latency, self._arrive)

    def _arrive(self) -> None:
        target = self.target
        target._enter(self.file_id)
        slots = target._service_slots
        if slots is None:
            self._transfer()
        else:
            self.slot = slots.request()
            self.slot.callbacks.append(self._transfer)

    def _transfer(self, _granted: Optional[Event] = None) -> None:
        target = self.target
        cap = target.request_rate_cap(self.grain) * target.straggler_factor()
        flow = target.machine.flows.transfer(
            self.path, self.nbytes, rate_cap=max(cap, 1.0),
            label=f"{target.name}.{self.label}")
        flow.event.callbacks.append(self._land)

    def _land(self, _flow_done: Event) -> None:
        target = self.target
        if self.slot is not None:
            target._service_slots.release(self.slot)
        target._leave(self.file_id)
        if not self.read:
            target.bytes_written += self.nbytes
            target.requests_served += 1
        sim = self.sim
        tracer = sim.tracer
        if tracer.enabled:
            attrs = {"direction": "read"} if self.read else {}
            tracer.record_span(
                "net_transfer", self.label, f"storage/{target.name}",
                self.started, sim.now, target=target.name,
                nbytes=int(self.nbytes), file_id=self.file_id,
                source=f"node{self.node.index}", **attrs)
        self.succeed()
