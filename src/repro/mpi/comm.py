"""Communicators: rank↔core binding, point-to-point and collectives.

Every MPI call here is a generator *process*: rank code does
``yield from comm.barrier(rank)``. Collective matching follows MPI
semantics — all ranks of a communicator must issue collectives in the same
order; the k-th collective call of each rank joins the k-th rendezvous.
The rendezvous records the collective's name and root from its first
arrival, and a rank that joins it with another collective or root, or
names a rank or root outside ``[0, size)``, raises :class:`MPIError`.

Bookkeeping that needs every rank's contribution runs once per
rendezvous, in the last rank to arrive, before the rendezvous fires:
``allgather`` builds one rank-ordered tuple that every rank receives
(shared, so read-only), ``reduce``/``allreduce`` call ``op`` once, and
``alltoallv`` — which takes a sparse ``{dst: nbytes}`` mapping per rank —
totals every rank's egress, ingress and message count in one pass over
the non-zero entries. Each rank then does O(1) work, so a collective
costs O(P) Python time and memory, not O(P²).

Cost model (simulated time):

- point-to-point: per-message latency + a bandwidth-shared flow
  (src NIC → fabric → dst NIC);
- barrier: everyone waits for the last arrival plus a log₂(P) latency tree;
- bcast/reduce: log₂(P) rounds of (latency + volume/NIC) — volumes in this
  package are small (metadata, handles), so no flows are spawned;
- gather/allgather: root-side NIC-rx flow of the aggregate volume (the
  root's NIC is the contended resource);
- alltoallv: per-rank egress and ingress flows through NICs and fabric —
  the dominant cost of two-phase collective I/O at scale.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.des.core import Event
from repro.des.process import AllOf
from repro.errors import MPIError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machine import Machine
    from repro.cluster.node import Core, SMPNode

__all__ = ["Communicator"]


def _root_text(root: Optional[int]) -> str:
    return "" if root is None else f"(root={root})"


class _Rendezvous:
    """One in-flight collective: counts arrivals, fires when complete.

    ``name`` and ``root`` come from the first arrival; ``result`` is what
    the collective hands back, set by the root (bcast) or by the last
    arrival before the event fires (everything else)."""

    __slots__ = ("expected", "arrived", "event", "payloads", "name", "root",
                 "result")

    def __init__(self, sim, expected: int, name: str,
                 root: Optional[int]) -> None:
        self.expected = expected
        self.arrived = 0
        self.event = Event(sim)
        self.payloads: Dict[int, Any] = {}
        self.name = name
        self.root = root
        self.result: Any = None

    def ordered(self) -> List[Any]:
        """Every rank's payload, in rank order."""
        return [self.payloads[r] for r in range(self.expected)]


class Communicator:
    """A group of ranks, each bound to one core of the machine."""

    _next_id = 0

    def __init__(self, machine: "Machine", cores: Sequence["Core"],
                 latency: float = 5e-6) -> None:
        if not cores:
            raise MPIError("a communicator needs at least one rank")
        self.machine = machine
        self.cores: List["Core"] = list(cores)
        self.latency = latency
        self.id = Communicator._next_id
        Communicator._next_id += 1
        self._rank_seq: List[int] = [0] * len(self.cores)
        self._pending: Dict[int, _Rendezvous] = {}
        # Point-to-point mailboxes keyed by (dst, tag).
        self._mailboxes: Dict[tuple, List] = {}
        self._recv_waiters: Dict[tuple, List[Event]] = {}

    # ------------------------------------------------------------------ #
    # topology
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return len(self.cores)

    def node_of(self, rank: int) -> "SMPNode":
        return self.cores[rank].node

    def ranks_on_node(self, node: "SMPNode") -> List[int]:
        return [r for r, core in enumerate(self.cores) if core.node is node]

    def split(self, ranks: Sequence[int]) -> "Communicator":
        """Sub-communicator over the given ranks (like MPI_Comm_split)."""
        return Communicator(self.machine,
                            [self.cores[r] for r in ranks],
                            latency=self.latency)

    def compute(self, rank: int, seconds: float,
                stream_name: str = "compute"):
        """Event: rank runs computation (with OS noise)."""
        return self.cores[rank].compute(seconds, stream_name)

    # ------------------------------------------------------------------ #
    # collective plumbing
    # ------------------------------------------------------------------ #
    def _join(self, rank: int, name: str,
              root: Optional[int] = None) -> _Rendezvous:
        size = self.size
        if not 0 <= rank < size:
            raise MPIError(f"{name}: rank {rank} out of range [0, {size})")
        if root is not None and not 0 <= root < size:
            raise MPIError(f"{name}: root {root} out of range [0, {size})")
        seq = self._rank_seq[rank]
        rdv = self._pending.get(seq)
        if rdv is None:
            rdv = self._pending[seq] = _Rendezvous(self.machine.sim, size,
                                                   name, root)
        elif rdv.name != name or rdv.root != root:
            raise MPIError(
                f"collective mismatch: rank {rank} called {name}"
                f"{_root_text(root)} where other ranks called "
                f"{rdv.name}{_root_text(rdv.root)}")
        self._rank_seq[rank] = seq + 1
        rdv.arrived += 1
        if rdv.arrived == rdv.expected:
            del self._pending[seq]
        return rdv

    def _tree_depth(self) -> int:
        return max(1, math.ceil(math.log2(max(self.size, 2))))

    # ------------------------------------------------------------------ #
    # collectives
    # ------------------------------------------------------------------ #
    def barrier(self, rank: int):
        """Process: synchronise all ranks."""
        rdv = self._join(rank, "barrier")
        if rdv.arrived == rdv.expected:
            rdv.event.succeed(delay=self.latency * self._tree_depth())
        yield rdv.event

    def bcast(self, rank: int, value: Any = None, root: int = 0,
              nbytes: float = 0.0):
        """Process: broadcast ``value`` (root's) to all ranks.

        Returns the broadcast value. Volume ``nbytes`` is charged as
        log₂(P) store-and-forward rounds of NIC time.
        """
        rdv = self._join(rank, "bcast", root)
        if rank == root:
            rdv.result = value
        if rdv.arrived == rdv.expected:
            per_round = nbytes / self.machine.spec.nic_bandwidth
            delay = self._tree_depth() * (self.latency + per_round)
            rdv.event.succeed(delay=delay)
        yield rdv.event
        return rdv.result

    def gather(self, rank: int, value: Any, root: int = 0,
               nbytes: float = 0.0):
        """Process: gather per-rank values at the root; root gets the list
        (indexed by rank), others get None."""
        rdv = self._join(rank, "gather", root)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.result = rdv.ordered()
            self._finish_gather(rdv, root, nbytes)
        yield rdv.event
        return rdv.result if rank == root else None

    def _finish_gather(self, rdv: _Rendezvous, root: int,
                       nbytes: float) -> None:
        total = nbytes * (self.size - 1)
        if total <= 0:
            rdv.event.succeed(delay=self.latency * self._tree_depth())
            return
        root_node = self.node_of(root)
        flow = self.machine.flows.transfer(
            [root_node.nic_rx], total, label="gather")
        flow.event.callbacks.append(
            lambda _evt: rdv.event.succeed(delay=self.latency))

    def allgather(self, rank: int, value: Any, nbytes: float = 0.0):
        """Process: every rank gets the rank-ordered tuple of all values
        (one tuple, shared by every rank)."""
        rdv = self._join(rank, "allgather")
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.result = tuple(rdv.ordered())
            # Ring allgather: (P-1) rounds; each rank both sends and
            # receives nbytes per round — charge NIC time accordingly.
            per_round = nbytes / self.machine.spec.nic_bandwidth
            delay = (self.size - 1) * (self.latency + per_round) \
                if self.size > 1 else self.latency
            rdv.event.succeed(delay=delay)
        yield rdv.event
        return rdv.result

    def reduce(self, rank: int, value: float, op: Callable = sum,
               root: int = 0):
        """Process: reduce scalar values to the root."""
        rdv = self._join(rank, "reduce", root)
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.result = op(rdv.ordered())
            rdv.event.succeed(delay=self.latency * self._tree_depth())
        yield rdv.event
        return rdv.result if rank == root else None

    def allreduce(self, rank: int, value: float, op: Callable = sum):
        """Process: reduce and redistribute (everyone gets the result)."""
        rdv = self._join(rank, "allreduce")
        rdv.payloads[rank] = value
        if rdv.arrived == rdv.expected:
            rdv.result = op(rdv.ordered())
            rdv.event.succeed(delay=2 * self.latency * self._tree_depth())
        yield rdv.event
        return rdv.result

    def alltoallv(self, rank: int, send_bytes: Mapping[int, float]):
        """Process: personalised all-to-all of ``send_bytes[dst]`` bytes.

        ``send_bytes`` is sparse: destinations it leaves out receive
        nothing. The dominant costs are modelled as one egress flow (this
        rank's NIC-tx + fabric, carrying its inter-node volume) and one
        ingress flow (NIC-rx), plus per-destination message latency.
        Returns when this rank's sends and receives have drained and all
        ranks arrived.
        """
        if not isinstance(send_bytes, Mapping):
            raise MPIError(
                f"alltoallv needs a {{dst: nbytes}} mapping, got "
                f"{type(send_bytes).__name__}")
        for dst, volume in send_bytes.items():
            if not 0 <= dst < self.size:
                raise MPIError(f"alltoallv: destination {dst} out of range "
                               f"[0, {self.size})")
            if not 0 <= volume < math.inf:
                raise MPIError(f"alltoallv: volume to rank {dst} must be "
                               f"finite and >= 0, got {volume!r}")
        rdv = self._join(rank, "alltoallv")
        rdv.payloads[rank] = send_bytes
        if rdv.arrived == rdv.expected:
            rdv.result = self._alltoallv_totals(rdv.ordered())
            rdv.event.succeed()
        yield rdv.event  # rendezvous: volumes of every rank known

        egress, ingress, messages = rdv.result
        my_node = self.node_of(rank)
        flows = []
        if rank in egress:
            path = [my_node.nic_tx]
            if self.machine.fabric is not None:
                path.append(self.machine.fabric)
            flows.append(self.machine.flows.transfer(
                path, egress[rank], label="a2a-out").event)
        if rank in ingress:
            flows.append(self.machine.flows.transfer(
                [my_node.nic_rx], ingress[rank], label="a2a-in").event)
        if rank in messages:
            flows.append(self.machine.sim.timeout(
                self.latency * messages[rank]))
        if flows:
            yield AllOf(self.machine.sim, flows)

    def _alltoallv_totals(self, sends: Sequence[Mapping[int, float]]
                          ) -> Tuple[Dict[int, float], Dict[int, float],
                                     Dict[int, int]]:
        """Every rank's inter-node egress and ingress volume and message
        count, from one pass over the non-zero entries of ``sends`` (one
        mapping per rank, in rank order); ranks with none are left out.
        Each total sums its volumes in ascending peer rank order."""
        cores = self.cores
        outgoing: Dict[int, List[float]] = {}
        incoming: Dict[int, List[float]] = {}
        messages: Dict[int, int] = {}
        for src, row in enumerate(sends):
            if not row:
                continue
            src_node = cores[src].node
            for dst in sorted(row):
                volume = row[dst]
                if volume > 0:
                    messages[src] = messages.get(src, 0) + 1
                    if cores[dst].node is not src_node:
                        outgoing.setdefault(src, []).append(volume)
                        incoming.setdefault(dst, []).append(volume)
        egress = {src: sum(vols) for src, vols in outgoing.items()}
        ingress = {dst: sum(vols) for dst, vols in incoming.items()}
        return egress, ingress, messages

    # ------------------------------------------------------------------ #
    # point-to-point
    # ------------------------------------------------------------------ #
    def send(self, rank: int, dst: int, payload: Any = None,
             nbytes: float = 0.0, tag: int = 0):
        """Process: send ``payload`` to ``dst`` (completes when delivered)."""
        if not 0 <= dst < self.size:
            raise MPIError(f"invalid destination rank {dst}")
        yield self.machine.sim.timeout(self.latency)
        if nbytes > 0:
            flow = self.machine.send(self.node_of(rank), self.node_of(dst),
                                     nbytes, label=f"p2p.{rank}->{dst}")
            yield flow.event
        key = (dst, tag)
        waiters = self._recv_waiters.get(key)
        if waiters:
            waiters.pop(0).succeed(payload)
        else:
            self._mailboxes.setdefault(key, []).append(payload)

    def recv(self, rank: int, tag: int = 0):
        """Process: receive the next message addressed to ``rank``."""
        key = (rank, tag)
        box = self._mailboxes.get(key)
        if box:
            payload = box.pop(0)
            yield self.machine.sim.timeout(0.0)
            return payload
        event = Event(self.machine.sim)
        self._recv_waiters.setdefault(key, []).append(event)
        payload = yield event
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator id={self.id} size={self.size}>"
