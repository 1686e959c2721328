"""Flow-level bandwidth sharing with max-min fairness.

Every contended byte-moving component in the cluster models — a node's NIC,
a network bisection, a storage target, a node's memory bus — is a
:class:`LinkCapacity`. A data movement is a :class:`Flow` spanning one or
more capacities (e.g. source NIC → interconnect → storage target). Active
flows share each capacity max-min fairly; per-flow rate caps (used to model
per-stream efficiency limits and injected interference) participate in the
water-filling.

The implementation is a structure-of-arrays over numpy so that a
barrier-synchronised I/O storm of ~10⁴ flows costs a handful of O(F)
vectorised solves rather than O(F²) Python loops: shares are recomputed
only when the set of active flows changes (arrivals are batched per
timestamp; completions are discovered by a single "next completion" event).

Four further optimisations keep the hot loop O(changed) rather than
O(everything):

- **component-partitioned incremental solves** — the simulated topologies
  (node-local shmem/NIC links, per-OST stripes, file-per-process targets)
  split the active flow set into many resource-disjoint *connected
  components* of the contention graph that cannot affect each other's
  max-min rates. A union-find over capacity indices tracks the partition
  (resources merge when a flow spans them; a lazy rebuild splits stale
  unions once enough multi-resource flows have departed), and
  :meth:`FlowNetwork._recompute` re-runs the water-filling only over the
  *dirty* components — the ones an arrival, departure or capacity change
  actually touched — while every clean component keeps its rates. Exact
  max-min decomposes over resource-disjoint components, so at
  ``fairness_slack=0`` the result is bit-identical to solving the whole
  network (``FlowNetwork(solver="global")`` forces that path; the tests
  compare the component solver against it). The cheap O(active)
  vectorised bookkeeping — advancing progress, detecting
  completions, arming the next-completion tick — deliberately stays
  global: per-component next-completion targets are merged with a single
  vectorised min (the min of per-component minima *is* the global
  minimum, bit-for-bit), because caching a clean component's absolute
  target across recomputes would drift by float ulps from what the
  forced-global solve computes and silently break bit-identity.
- **flow-class water-filling** — flows with an identical (resource
  signature, rate cap) pair are provably allocated identical rates by
  max-min fairness, so the freeze rounds of :meth:`FlowNetwork._maxmin_rates`
  run over *equivalence classes* instead of flows. A barrier-synchronised
  storm of thousands of identical writers collapses to a handful of
  classes; the per-round cost drops from O(F·K) to O(C·K), and a
  network of all-distinct flows is the degenerate all-singleton case of
  the same solve. The rounds run in the compiled C kernel by default
  (:mod:`repro.des.kernels`; numpy when no C compiler is found), with
  bit-identical results either way.
- **O(changed) bookkeeping** — an arrival or departure touches plain
  Python state (one resource tuple per slot, per-capacity flow counts in
  a list) and a few scalar slots of the numpy arrays; the packed
  ascending array of active slots is one scan of the active mask per
  change, cached until the next (on the compiled kernel, C packs it into
  a buffer whose address is pinned). Each recompute then makes one
  pass over those active slots to advance them and flag the finished
  ones, and one more for the next completion: a C call each on the
  compiled kernel, a few vectorised numpy statements on the ``python``
  kernel.
- **incremental arrivals + a reschedulable completion tick** — an arrival
  batch whose flows are all rate-cap-limited and fit into the slack of
  every capacity they touch cannot change existing allocations (each new
  flow is cap-limited, every touched capacity stays unsaturated, so the
  Bertsekas–Gallager bottleneck conditions still hold for every flow);
  such batches are granted their caps without a solve, per component.
  The "next completion" timer is a single re-armable tick backed by a
  small heap of outstanding fire times instead of one version-stale
  callback per recomputation piling up in the event heap.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.des.core import Event, Simulator, PRIORITY_LATE
from repro.des.kernels import (KERNEL_COMPILED, KERNEL_PYTHON,
                               MaxminKernel, advance_finish_np,
                               compiled_kernel, maxmin_class_solve_np,
                               next_finish_np, resolve_kernel)
from repro.errors import SimulationError

__all__ = ["LinkCapacity", "Flow", "FlowNetwork",
           "SOLVER_COMPONENT", "SOLVER_GLOBAL",
           "KERNEL_COMPILED", "KERNEL_PYTHON"]

#: Maximum number of capacities a single flow may traverse.
MAX_RES_PER_FLOW = 4

#: Relative slack a capacity must keep for the incremental arrival path:
#: a touched capacity must stay below this fraction of its size after the
#: batch is granted, otherwise a full water-filling solve runs.
_FAST_PATH_HEADROOM = 1.0 - 1e-9

#: Solve only the dirty connected components of the contention graph.
SOLVER_COMPONENT = "component"
#: Re-solve the whole network on every structural change (the reference
#: the tests compare against; bit-identical to the component solver at
#: ``fairness_slack=0``).
SOLVER_GLOBAL = "global"

#: Component id of flows that touch no capacity (bounded by their rate
#: cap only); they never contend with anything and are never re-solved.
_CAPLESS_ROOT = -1


def _resolve_solver(solver: Optional[str]) -> str:
    """``solver``, checked; ``component`` when it is ``None``."""
    if solver is None:
        return SOLVER_COMPONENT
    if solver not in (SOLVER_COMPONENT, SOLVER_GLOBAL):
        raise SimulationError(
            f"solver: {solver!r} is invalid; expected one of "
            f"{SOLVER_COMPONENT!r}, {SOLVER_GLOBAL!r}")
    return solver


class LinkCapacity:
    """A named, shared capacity (bytes/s) inside a :class:`FlowNetwork`."""

    __slots__ = ("network", "index", "name")

    def __init__(self, network: "FlowNetwork", index: int, name: str) -> None:
        self.network = network
        self.index = index
        self.name = name

    @property
    def capacity(self) -> float:
        return float(self.network._capacities[self.index])

    def set_capacity(self, capacity: float) -> None:
        """Change the capacity (e.g. background interference); reshapes flows."""
        if not capacity > 0:  # NaN fails this too
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        self.network._capacities[self.index] = capacity
        self.network._mark_capacity_changed(self.index)
        self.network._request_recompute()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkCapacity {self.name!r} {self.capacity:.3g} B/s>"


class Flow:
    """Handle on an in-flight transfer. ``flow.event`` fires on completion."""

    __slots__ = ("network", "index", "event", "nbytes", "start_time",
                 "end_time", "label")

    def __init__(self, network: "FlowNetwork", index: int, event: Event,
                 nbytes: float, start_time: float, label: str) -> None:
        self.network = network
        self.index = index
        self.event = event
        self.nbytes = nbytes
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self.label = label

    @property
    def duration(self) -> float:
        """Completion time minus start time (only valid once completed)."""
        if self.end_time is None:
            raise SimulationError(f"flow {self.label!r} has not completed")
        return self.end_time - self.start_time

    @property
    def remaining(self) -> float:
        """Bytes still to transfer, as of the last share recomputation."""
        return float(self.network._remaining[self.index])

    def cancel(self) -> None:
        """Abort the transfer; the completion event never fires."""
        self.network._cancel(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Flow {self.label!r} {self.nbytes:.3g} B>"


class _NumpyPass:
    """The ``python`` kernel's per-recompute work: vectorised numpy
    statements over the packed active slots (see
    :func:`~repro.des.kernels.advance_finish_np`)."""

    __slots__ = ()

    def unpin(self) -> None:
        """Nothing is pinned: numpy indexes the arrays afresh each call."""

    def active_indices(self, net: "FlowNetwork") -> np.ndarray:
        return net._active.nonzero()[0]

    def advance_finish(self, net: "FlowNetwork", idx: np.ndarray,
                       dt: float, now: float) -> Optional[np.ndarray]:
        moved, done = advance_finish_np(
            idx, net._rate, net._remaining, net._start, dt, now,
            net.completion_slack)
        if moved is not None:
            net.total_bytes_moved += float(moved.sum())
        return idx[done] if done.any() else None

    def next_finish(self, net: "FlowNetwork", idx: np.ndarray) -> float:
        return next_finish_np(idx, net._remaining, net._rate)

    def solve(self, net: "FlowNetwork", idx: np.ndarray,
              whole: bool) -> None:
        flow_class = net._slot_class[idx]
        rates, used = maxmin_class_solve_np(
            flow_class, net._class_res, net._class_cap, net._capacities,
            net.fairness_slack)
        net._rate[idx] = rates
        if whole:
            net._cap_used[:] = used
        else:
            touched = net._class_res[flow_class]
            touched = np.unique(touched[touched >= 0])
            net._cap_used[touched] = used[touched]


class _CompiledPass:
    """The same work as :class:`_NumpyPass`, one C call each.

    The C functions take raw addresses, and ``ndarray.ctypes.data`` costs
    more than a small kernel call, so the addresses of the network's
    arrays are taken once (:meth:`_pin`) and kept until the network
    reallocates one of them (:meth:`unpin`). The pass owns the kernel's
    scratch: the two maps, which read all -1 between calls, and the
    arena the solve carves its other arrays from, sized for a solve of
    every slot over every capacity (so it grows geometrically, with the
    slot arrays); its output buffers for moved bytes and the done mask;
    and the buffer C packs the active slot indices into, whose address
    is therefore known without asking numpy.
    """

    __slots__ = ("kernel", "moved", "done", "active_idx", "class_map",
                 "res_map", "arena", "addr", "idx", "idx_addr")

    def __init__(self, kernel: MaxminKernel) -> None:
        self.kernel = kernel
        self.moved = np.empty(0, dtype=np.float64)
        self.done = np.empty(0, dtype=bool)
        self.active_idx = np.empty(0, dtype=np.int64)
        self.class_map = np.empty(0, dtype=np.int64)
        self.res_map = np.empty(0, dtype=np.int64)
        self.arena = np.empty(0, dtype=np.int64)
        self.addr: Optional[Tuple[int, ...]] = None
        self.idx: Optional[np.ndarray] = None
        self.idx_addr = 0

    def unpin(self) -> None:
        self.addr = None

    def _pin(self, net: "FlowNetwork") -> Tuple[int, ...]:
        slots = net._rate.size
        nres = net._capacities.size
        if self.moved.size < slots:
            self.moved = np.empty(slots, dtype=np.float64)
            self.done = np.empty(slots, dtype=bool)
            self.active_idx = np.empty(slots, dtype=np.int64)
        if self.class_map.size < net._class_cap.size:
            self.class_map = np.full(net._class_cap.size, -1, dtype=np.int64)
        if self.res_map.size < nres:
            self.res_map = np.full(nres, -1, dtype=np.int64)
        words = self.kernel.arena_words_fn(slots, nres, MAX_RES_PER_FLOW)
        if self.arena.size < words:
            self.arena = np.empty(max(words, 2 * self.arena.size),
                                  dtype=np.int64)
        self.addr = tuple(arr.ctypes.data for arr in (
            net._rate, net._remaining, net._start, self.moved, self.done,
            net._active, self.active_idx, net._slot_class, net._class_res,
            net._class_cap, net._capacities, self.class_map, self.res_map,
            self.arena, net._cap_used)) + (nres, self.arena.size)
        return self.addr

    def active_indices(self, net: "FlowNetwork") -> np.ndarray:
        active, packed = (self.addr or self._pin(net))[5:7]
        n = self.kernel.active_index_fn(net._active.size, active, packed)
        self.idx = idx = self.active_idx[:n]
        self.idx_addr = packed
        return idx

    def _idx_address(self, idx: np.ndarray) -> int:
        if idx is not self.idx:
            self.idx = idx
            self.idx_addr = idx.ctypes.data
        return self.idx_addr

    def advance_finish(self, net: "FlowNetwork", idx: np.ndarray,
                       dt: float, now: float) -> Optional[np.ndarray]:
        rate, remaining, start, moved, done = (self.addr
                                               or self._pin(net))[:5]
        n = idx.size
        ndone = self.kernel.advance_fn(
            n, self._idx_address(idx), rate, remaining, start, dt, now,
            net.completion_slack, moved, done)
        if dt > 0:
            # Summed in numpy, as the python kernel sums: pairwise, so
            # total_bytes_moved is bit-identical across kernels.
            net.total_bytes_moved += float(self.moved[:n].sum())
        return idx[self.done[:n]] if ndone else None

    def next_finish(self, net: "FlowNetwork", idx: np.ndarray) -> float:
        rate, remaining = (self.addr or self._pin(net))[:2]
        return self.kernel.next_finish_fn(
            idx.size, self._idx_address(idx), remaining, rate)

    def solve(self, net: "FlowNetwork", idx: np.ndarray,
              whole: bool) -> None:
        # Rates land in net._rate at the solved slots, consumption in
        # net._cap_used at the capacities they touch, so a `whole` solve
        # needs nothing more: a capacity that no active flow touches
        # already reads 0.0 (`_release_slot` resets it).
        (rate, _rem, _start, _moved, _done, _active, _packed, slot_class,
         class_res, class_cap, capacities, class_map, res_map, arena,
         cap_used, nres, arena_words) = self.addr or self._pin(net)
        net._stat_kernel_solves += 1
        if self.kernel.solve_fn(
                idx.size, self._idx_address(idx), slot_class,
                MAX_RES_PER_FLOW, class_res, class_cap, capacities, nres,
                net.fairness_slack, class_map, res_map, arena, arena_words,
                rate, cap_used) < 0:
            raise SimulationError(
                f"compiled maxmin kernel: scratch arena of {arena_words} "
                f"words too small for {idx.size} flows")


class FlowNetwork:
    """All capacities and flows of one simulated machine.

    ``completion_slack`` bounds a deliberate approximation: when the
    earliest flow completes, every flow within ``completion_slack ×
    elapsed`` of its own finish completes in the same batch (i.e. each
    flow's duration may be shortened by at most that relative fraction).
    This turns an N-flow I/O storm with near-identical finish times from N
    share recomputations into a handful, at a bounded per-flow timing
    error. The default is exact (0.0); cluster-scale models opt in.

    ``solver`` picks the share-recomputation strategy: ``"component"``
    (the default) re-solves only the connected components of the
    resource-contention graph touched since the last solve; ``"global"``
    re-solves the whole network every time and is the reference the
    tests compare against. At ``fairness_slack=0`` the two are
    bit-identical; with a positive fairness slack the component solver
    batches freeze rounds per component instead of across the whole
    network, a slightly different (but equally bounded) approximation.
    """

    def __init__(self, sim: Simulator, completion_slack: float = 0.0,
                 fairness_slack: float = 0.0,
                 solver: Optional[str] = None,
                 kernel: Optional[str] = None) -> None:
        if completion_slack < 0:
            raise SimulationError(
                f"completion_slack must be >= 0, got {completion_slack}")
        if fairness_slack < 0:
            raise SimulationError(
                f"fairness_slack must be >= 0, got {fairness_slack}")
        self.sim = sim
        self.completion_slack = float(completion_slack)
        #: Rate levels within this relative tolerance of the bottleneck
        #: freeze together in one water-filling round — an approximation
        #: that turns hundreds of near-equal bottleneck levels (distinct
        #: per-target loads) into a handful of vectorised rounds.
        self.fairness_slack = float(fairness_slack)
        self.solver = _resolve_solver(solver)
        #: Water-filling implementation: ``compiled`` (the C kernel, the
        #: default when it loads) or ``python`` (numpy, always available;
        #: see :mod:`repro.des.kernels`); bit-identical at any slack, so
        #: this is pure speed.
        self.kernel = resolve_kernel(kernel)
        self._pass = (_CompiledPass(compiled_kernel())
                      if self.kernel == KERNEL_COMPILED else _NumpyPass())
        # Row 0 holds the capacities, row 1 what the current allocation
        # consumes of each (`_cap_used`, below); the rows grow by
        # doubling, and both names are views of the registered entries.
        self._cap_rows = np.zeros((2, 64), dtype=float)
        self._capacities = self._cap_rows[0, :0]
        self._cap_names: List[str] = []
        self._links: Dict[str, LinkCapacity] = {}

        size = 64
        self._remaining = np.zeros(size, dtype=float)
        self._rate = np.zeros(size, dtype=float)
        self._flow_cap = np.full(size, np.inf, dtype=float)
        self._active = np.zeros(size, dtype=bool)
        self._start = np.zeros(size, dtype=float)
        #: Capacity indices of each slot's flow, one tuple per slot.
        self._slot_res: List[Tuple[int, ...]] = [()] * size
        self._flows: List[Optional[Flow]] = [None] * size
        self._free: List[int] = list(range(size - 1, -1, -1))

        # Flow-class registry: flows with an identical (resource
        # signature, rate cap) share a class id; the water-filling rounds
        # run over classes. Maintained incrementally — a dict lookup per
        # arrival, a refcount decrement per departure — so a solve never
        # has to factor the flow set from scratch.
        self._slot_class = np.zeros(size, dtype=np.int64)
        self._class_ids: Dict[tuple, int] = {}
        self._class_keys: List[Optional[tuple]] = []
        self._class_refs: List[int] = []
        self._class_free: List[int] = []
        self._class_res = np.full((64, MAX_RES_PER_FLOW), -1, dtype=np.int64)
        self._class_cap = np.zeros(64, dtype=float)

        # Active slots: a count, and the packed ascending index array,
        # rebuilt by one scan of the active mask on first use after a
        # change (see the passes' `active_indices`).
        self._nactive = 0
        self._active_idx: Optional[np.ndarray] = None

        # Contention-component registry: a union-find over capacity
        # indices tracks the connected components of the resource graph.
        # Flows merge their resources' components on arrival; departures
        # can only *split* components, which the union-find cannot
        # express, so a counter of departed multi-resource flows triggers
        # a lazy rebuild of the partition from the live flow set.
        self._res_parent: List[int] = []
        self._comp_slots: Dict[int, Set[int]] = {}
        self._comp_dirty: Set[int] = set()
        self._slot_root: List[int] = [_CAPLESS_ROOT] * size
        #: Active flows per capacity; reaching zero resets the consumed
        #: bandwidth entry so the fast path never sees a stale value.
        self._res_nflows: List[int] = []
        self._departed_since_rebuild = 0

        # Incremental-arrival fast path state.
        self._pending_new: List[int] = []
        self._pending_structural = False
        #: Per-capacity bandwidth consumed by the current allocation
        #: (valid between recomputations; refreshed by every solve that
        #: touches the capacity's component).
        self._cap_used = self._cap_rows[1, :0]

        # Reschedulable "next completion" tick: `_tick_target` is the
        # absolute time of the next predicted completion; `_tick_heap`
        # holds the (few) outstanding heap-entry fire times.
        self._tick_target = math.inf
        self._tick_heap: List[float] = []

        self._last_update = 0.0
        self._recompute_scheduled = False
        self.total_bytes_moved = 0.0
        self.completed_flows = 0

        # Solver counters (cheap ints; snapshot via `solver_stats`).
        self._stat_full_solves = 0
        self._stat_component_solves = 0
        self._stat_fast_grants = 0
        self._stat_flows_solved = 0
        self._stat_recomputes = 0
        self._stat_rebuilds = 0
        self._stat_dirty_solved = 0
        self._stat_kernel_solves = 0
        self._stat_batched_solves = 0

    # ------------------------------------------------------------------ #
    # capacities
    # ------------------------------------------------------------------ #
    def add_capacity(self, name: str, capacity: float) -> LinkCapacity:
        """Register a new shared capacity (bytes/s)."""
        if name in self._links:
            raise SimulationError(f"duplicate capacity name {name!r}")
        if not capacity > 0:  # NaN fails this too
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        index = len(self._cap_names)
        self._cap_names.append(name)
        rows = self._cap_rows
        if index == rows.shape[1]:
            rows = self._cap_rows = np.concatenate(
                (rows, np.zeros_like(rows)), axis=1)
        rows[0, index] = float(capacity)
        self._capacities = rows[0, :index + 1]
        self._cap_used = rows[1, :index + 1]
        self._pass.unpin()
        self._res_parent.append(index)
        self._res_nflows.append(0)
        link = LinkCapacity(self, index, name)
        self._links[name] = link
        return link

    def link(self, name: str) -> LinkCapacity:
        return self._links[name]

    @property
    def active_flow_count(self) -> int:
        return self._nactive

    def _active_indices(self) -> np.ndarray:
        """The packed, ascending array of active slot indices."""
        idx = self._active_idx
        if idx is None:
            idx = self._active_idx = self._pass.active_indices(self)
        return idx

    # ------------------------------------------------------------------ #
    # contention components
    # ------------------------------------------------------------------ #
    def _find(self, res: int) -> int:
        """Union-find root of a capacity index (with path halving)."""
        parent = self._res_parent
        while parent[res] != res:
            parent[res] = parent[parent[res]]
            res = parent[res]
        return res

    def _union(self, a: int, b: int) -> int:
        """Merge the components of two capacities; returns the new root."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        slots = self._comp_slots
        # Union by component population: the smaller flow set moves.
        if len(slots.get(ra, ())) > len(slots.get(rb, ())):
            ra, rb = rb, ra
        self._res_parent[ra] = rb
        moved = slots.pop(ra, None)
        if moved:
            slots.setdefault(rb, set()).update(moved)
        if ra in self._comp_dirty:
            self._comp_dirty.discard(ra)
            self._comp_dirty.add(rb)
        return rb

    def _place(self, index: int, res: Tuple[int, ...]) -> None:
        """Put an active slot into the component of its capacities."""
        if not res:
            root = _CAPLESS_ROOT
        else:
            root = self._find(res[0])
            for other in res[1:]:
                root = self._union(root, other)
        self._comp_slots.setdefault(root, set()).add(index)
        self._slot_root[index] = root

    def _slot_component(self, index: int) -> int:
        """Current component root of an active slot."""
        stored = self._slot_root[index]
        return stored if stored < 0 else self._find(stored)

    def _mark_capacity_changed(self, index: int) -> None:
        self._pending_structural = True
        root = self._find(index)
        if root in self._comp_slots:
            self._comp_dirty.add(root)

    def _rebuild_components(self) -> None:
        """Lazy split: refactor the partition from the live flows only.

        The union-find can only merge, so departures leave it coarser
        than the true contention graph (a departed flow's bridge keeps
        two now-independent groups fused). A coarser partition is always
        *correct* — solving two independent components together equals
        solving them apart — just slower, so the rebuild runs amortised:
        once per ~max(64, active) departed multi-resource flows.
        """
        self._res_parent = list(range(len(self._res_parent)))
        had_dirty = bool(self._comp_dirty)
        self._comp_slots = {}
        self._comp_dirty = set()
        slot_res = self._slot_res
        for index in self._active_indices().tolist():
            self._place(index, slot_res[index])
        if had_dirty:
            # Pre-rebuild dirt cannot be mapped onto the new roots, so
            # conservatively mark every live component; re-solving a
            # clean component is bit-identical to keeping its rates.
            self._comp_dirty = {root for root in self._comp_slots
                                if root >= 0}
        self._departed_since_rebuild = 0
        self._stat_rebuilds += 1

    @property
    def components_live(self) -> int:
        """Number of components with at least one active flow."""
        return len(self._comp_slots)

    def component_of(self, link: LinkCapacity) -> int:
        """Current component root of a capacity (for tests/debugging)."""
        return self._find(link.index)

    def component_targets(self) -> Dict[int, float]:
        """Absolute next-completion time per live component.

        Merging these (one vectorised min) yields exactly the global
        completion-tick target; exposed for the solver statistics and
        the equivalence tests.
        """
        out: Dict[int, float] = {}
        now = self.sim.now
        for root, slots in self._comp_slots.items():
            idx = np.fromiter(sorted(slots), dtype=np.int64,
                              count=len(slots))
            out[root] = now + max(
                next_finish_np(idx, self._remaining, self._rate), 0.0)
        return out

    @property
    def solver_stats(self) -> Dict[str, int]:
        """Cumulative solver counters (full vs component vs fast path)."""
        return {
            "solver": self.solver,
            "kernel": self.kernel,
            "recomputes": self._stat_recomputes,
            "full_solves": self._stat_full_solves,
            "component_solves": self._stat_component_solves,
            "fast_grants": self._stat_fast_grants,
            "flows_solved": self._stat_flows_solved,
            "kernel_solves": self._stat_kernel_solves,
            "batched_solves": self._stat_batched_solves,
            "components_live": len(self._comp_slots),
            "components_solved": self._stat_dirty_solved,
            "rebuilds": self._stat_rebuilds,
        }

    # ------------------------------------------------------------------ #
    # flows
    # ------------------------------------------------------------------ #
    def transfer(self, resources: Sequence[LinkCapacity], nbytes: float,
                 rate_cap: float = math.inf, label: str = "") -> Flow:
        """Start a transfer of ``nbytes`` across ``resources``.

        Returns a :class:`Flow` whose ``event`` succeeds (with the flow as
        value) once the last byte has moved. ``rate_cap`` bounds the flow's
        own rate (per-stream efficiency, interference injection);
        ``inf`` means uncapped.
        """
        # Written so that NaN fails too: a NaN volume would fail later,
        # inside a recompute, an infinite one would never complete, and
        # a NaN cap would run uncapped.
        if not 0 <= nbytes < math.inf:
            raise SimulationError(
                f"flow {label!r}: nbytes must be a finite number >= 0, "
                f"got {nbytes}")
        if not rate_cap > 0:
            raise SimulationError(
                f"flow {label!r}: rate_cap must be > 0, got {rate_cap}")
        if len(resources) > MAX_RES_PER_FLOW:
            raise SimulationError(
                f"flow spans {len(resources)} capacities, max is "
                f"{MAX_RES_PER_FLOW}")
        if not resources and not math.isfinite(rate_cap):
            raise SimulationError(
                "a flow needs at least one capacity or a finite rate cap")
        res: Tuple[int, ...] = ()
        for link in resources:
            if link.network is not self:
                raise SimulationError(
                    f"capacity {link.name!r} belongs to another network")
            res += (link.index,)

        event = Event(self.sim)
        if nbytes == 0:
            flow = Flow(self, -1, event, 0.0, self.sim.now, label)
            flow.end_time = self.sim.now
            event.succeed(flow)
            return flow

        index = self._alloc_slot()
        flow = Flow(self, index, event, float(nbytes), self.sim.now, label)
        self._remaining[index] = float(nbytes)
        self._rate[index] = 0.0
        self._start[index] = self.sim.now
        self._flow_cap[index] = rate_cap
        self._slot_res[index] = res
        self._active[index] = True
        self._active_idx = None
        self._nactive += 1
        self._flows[index] = flow
        self._slot_class[index] = self._class_of(res, float(rate_cap))
        nflows = self._res_nflows
        for r in res:
            nflows[r] += 1
        self._place(index, res)
        self._pending_new.append(index)
        self._request_recompute()
        return flow

    def _class_of(self, res_indices: tuple, rate_cap: float) -> int:
        """Intern the (resource signature, rate cap) pair as a class id."""
        key = (res_indices, rate_cap)
        cid = self._class_ids.get(key)
        if cid is None:
            if self._class_free:
                cid = self._class_free.pop()
            else:
                cid = len(self._class_keys)
                self._class_keys.append(None)
                self._class_refs.append(0)
                if cid >= self._class_cap.size:
                    grown = self._class_cap.size * 2
                    grown_res = np.full((grown, MAX_RES_PER_FLOW), -1,
                                        dtype=np.int64)
                    grown_res[:cid] = self._class_res
                    self._class_res = grown_res
                    grown_cap = np.zeros(grown, dtype=float)
                    grown_cap[:cid] = self._class_cap
                    self._class_cap = grown_cap
                    self._pass.unpin()
            self._class_ids[key] = cid
            self._class_keys[cid] = key
            self._class_refs[cid] = 0
            self._class_res[cid] = res_indices + (-1,) * (
                MAX_RES_PER_FLOW - len(res_indices))
            self._class_cap[cid] = rate_cap
        self._class_refs[cid] += 1
        return cid

    def _alloc_slot(self) -> int:
        if not self._free:
            old = len(self._flows)
            new = old * 2
            # Grow with explicitly padded arrays: np.resize would tile the
            # old contents into the new slots, leaving freshly grown slots
            # with stale caps/volumes until their first use.
            grown_remaining = np.zeros(new, dtype=float)
            grown_remaining[:old] = self._remaining
            self._remaining = grown_remaining
            grown_rate = np.zeros(new, dtype=float)
            grown_rate[:old] = self._rate
            self._rate = grown_rate
            grown_cap = np.full(new, np.inf, dtype=float)
            grown_cap[:old] = self._flow_cap
            self._flow_cap = grown_cap
            grown_start = np.zeros(new, dtype=float)
            grown_start[:old] = self._start
            self._start = grown_start
            grown_active = np.zeros(new, dtype=bool)
            grown_active[:old] = self._active
            self._active = grown_active
            grown_class = np.zeros(new, dtype=np.int64)
            grown_class[:old] = self._slot_class
            self._slot_class = grown_class
            self._slot_res.extend([()] * (new - old))
            self._slot_root.extend([_CAPLESS_ROOT] * (new - old))
            self._flows.extend([None] * (new - old))
            self._free.extend(range(new - 1, old - 1, -1))
            self._pass.unpin()
        return self._free.pop()

    def _cancel(self, flow: Flow) -> None:
        if flow.index < 0 or self._flows[flow.index] is not flow:
            return
        self._release_slot(flow.index)
        self._pending_structural = True
        self._request_recompute()

    def _release_slot(self, index: int) -> None:
        res = self._slot_res[index]
        nflows = self._res_nflows
        for r in res:
            nflows[r] -= 1
            if not nflows[r]:
                # No flows left on this capacity: its consumed-bandwidth
                # entry must read exactly 0.0, as a full solve would
                # compute, so the fast path never sees a stale positive.
                self._cap_used[r] = 0.0
        root = self._slot_component(index)
        slots = self._comp_slots.get(root)
        if slots is not None:
            slots.discard(index)
            if not slots:
                del self._comp_slots[root]
                self._comp_dirty.discard(root)
            elif root >= 0:
                self._comp_dirty.add(root)
        if len(res) > 1:
            # Only a multi-resource flow can leave a stale union behind.
            self._departed_since_rebuild += 1
        self._active[index] = False
        self._active_idx = None
        self._nactive -= 1
        self._flows[index] = None
        self._rate[index] = 0.0
        self._remaining[index] = 0.0
        self._free.append(index)
        cid = int(self._slot_class[index])
        self._class_refs[cid] -= 1
        if self._class_refs[cid] == 0:
            del self._class_ids[self._class_keys[cid]]
            self._class_keys[cid] = None
            self._class_free.append(cid)

    # ------------------------------------------------------------------ #
    # share recomputation
    # ------------------------------------------------------------------ #
    def _request_recompute(self) -> None:
        if self._recompute_scheduled:
            return
        self._recompute_scheduled = True
        # Late priority: all same-timestamp arrivals/departures batch into
        # one recomputation. Slim entry: nothing awaits the recompute, so
        # skip the Event + wrapper-lambda allocation on this hottest path.
        self.sim.call_later(0.0, self._recompute, priority=PRIORITY_LATE)

    def _recompute(self) -> None:
        self._recompute_scheduled = False
        self._stat_recomputes += 1
        now = self.sim.now
        dt = now - self._last_update
        self._last_update = now
        finished = None
        if self._nactive:
            # Progress every active flow to now and find the finished
            # ones: one pass over the packed active slots. Deliberately
            # global even under the component solver: advancing a clean
            # component lazily (one coarse step at its own next event)
            # accumulates different floating-point rounding than the
            # global solver's per-event steps, which would break
            # bit-identity between ``solver="component"`` and
            # ``solver="global"``.
            finished = self._pass.advance_finish(
                self, self._active_indices(), dt, now)
        if self.solver != SOLVER_GLOBAL and self._departed_since_rebuild \
                > max(64, self._nactive):
            # Before the finished flows are released: with a positive
            # fairness slack, which flows are solved together moves
            # their rates.
            self._rebuild_components()
        if finished is not None:
            self._complete(finished, now)
        arrivals, self._pending_new = self._pending_new, []
        structural = self._pending_structural or finished is not None
        self._pending_structural = False

        if not self._nactive:
            self._tick_target = math.inf
            self._comp_dirty.clear()
            self._trace_solve()
            return

        if self.solver == SOLVER_GLOBAL:
            self._recompute_global(arrivals, structural)
        else:
            self._recompute_components(arrivals)
        self._trace_solve()

    def _recompute_global(self, arrivals: List[int],
                          structural: bool) -> None:
        """The forced-global path: one solve over every active flow."""
        self._comp_dirty.clear()
        if not structural and arrivals and self._fast_grant(arrivals):
            self._stat_fast_grants += 1
            self._arm_from_finish()
            return
        idx = self._active_indices()
        self._maxmin_rates(idx, whole=True)
        self._stat_full_solves += 1
        self._stat_flows_solved += idx.size
        self._arm_from_finish()

    def _recompute_components(self, arrivals: List[int]) -> None:
        """Solve only the dirty components; fast-grant clean arrivals."""
        dirty = self._comp_dirty
        if arrivals:
            groups: Dict[int, List[int]] = {}
            for index in arrivals:
                if not self._active[index]:
                    continue  # completed within this very batch
                groups.setdefault(self._slot_component(index), []).append(
                    index)
            for root in sorted(groups):
                if root in dirty:
                    continue  # the component solve below covers them
                if self._fast_grant(groups[root]):
                    self._stat_fast_grants += 1
                elif root >= 0:
                    dirty.add(root)
        self._stat_dirty_solved += len(dirty)
        covered = sum(len(self._comp_slots.get(root, ()))
                      for root in dirty)
        if covered == self._nactive:
            # The dirty set spans every active flow (a single fused
            # component, or a barrier batch touching all of them): one
            # whole-network solve over the cached packed index array is
            # bit-identical to solving the components one by one at
            # slack 0 and skips the per-component index/mask assembly.
            idx = self._active_indices()
            self._maxmin_rates(idx, whole=True)
            self._stat_full_solves += 1
            self._stat_flows_solved += idx.size
        else:
            # Batch every dirty component into ONE kernel invocation
            # over the concatenated packed arrays: the per-resource
            # accumulations of resource-disjoint components cannot
            # interact (each capacity only ever receives its own
            # component's flows, in the same ascending slot order), so
            # at slack 0 the result is bit-identical to solving the
            # components one by one — for the Python-level price of a
            # single call instead of one per component.
            solve_roots = [root for root in sorted(dirty)
                           if self._comp_slots.get(root)]
            if len(solve_roots) == 1:
                slots = self._comp_slots[solve_roots[0]]
                idx = np.fromiter(sorted(slots), dtype=np.int64,
                                  count=len(slots))
            elif solve_roots:
                idx = np.concatenate([
                    np.fromiter(sorted(self._comp_slots[root]),
                                dtype=np.int64,
                                count=len(self._comp_slots[root]))
                    for root in solve_roots])
                self._stat_batched_solves += 1
            if solve_roots:
                self._maxmin_rates(idx, whole=False)
                self._stat_component_solves += len(solve_roots)
                self._stat_flows_solved += idx.size
        dirty.clear()
        self._arm_from_finish()

    def _trace_solve(self) -> None:
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.record_event(
                "solver", "recompute", "flownet", time=self.sim.now,
                solver=self.solver,
                kernel=self.kernel,
                recomputes=self._stat_recomputes,
                full_solves=self._stat_full_solves,
                component_solves=self._stat_component_solves,
                fast_grants=self._stat_fast_grants,
                flows_solved=self._stat_flows_solved,
                kernel_solves=self._stat_kernel_solves,
                live=len(self._comp_slots),
                active=self._nactive)

    # -- incremental arrivals ------------------------------------------- #
    def _fast_grant(self, arrivals: List[int]) -> bool:
        """Grant an arrival batch without a solve, when provably safe.

        Sound when every new flow is limited by its own finite rate cap
        and every capacity it touches keeps headroom after the grant: the
        new flows are cap-limited (their bottleneck is themselves) and no
        previously unsaturated capacity saturates, so every existing
        flow's bottleneck structure — hence its max-min rate — is
        unchanged. Otherwise the caller falls back to the water-filling
        solve (of the whole network or of the batch's component,
        depending on the solver). Under the component solver the batch is
        one component's arrivals; resource-disjoint groups check against
        disjoint capacity entries, so per-component grants accumulate the
        same ``_cap_used`` values as one global pass.
        """
        caps = self._flow_cap
        capacities = self._capacities
        used = self._cap_used
        slot_res = self._slot_res
        # The batch's consumption, per touched capacity, committed to
        # `_cap_used` only once every flow of the batch fits.
        trial: Dict[int, float] = {}
        for index in arrivals:
            rate = caps[index]
            if not math.isfinite(rate):
                return False
            res = slot_res[index]
            for r in res:
                if trial.get(r, used[r]) + rate \
                        > capacities[r] * _FAST_PATH_HEADROOM:
                    return False
            for r in res:
                trial[r] = trial.get(r, used[r]) + rate
        for index in arrivals:
            self._rate[index] = caps[index]
        for r, value in trial.items():
            used[r] = value
        return True

    # -- the completion tick -------------------------------------------- #
    def _arm_from_finish(self) -> None:
        """Re-arm the completion tick from the freshly advanced flows.

        The per-component next-completion targets (see
        :meth:`component_targets`) merge through one min over the packed
        active slots: the minimum over per-component minima is the
        global minimum, bit-for-bit, so a single pass feeds the tick for
        both solvers identically.
        """
        t_next = self._pass.next_finish(self, self._active_indices())
        self._arm_tick(max(t_next, 0.0))

    def _arm_tick(self, t_next: float) -> None:
        """Point the completion tick at ``now + t_next``.

        Keeps at most a handful of heap entries alive: a new entry is
        pushed only when the target moves *earlier* than every
        outstanding entry; a tick that fires early (because the target
        moved later) re-arms itself instead of recomputing. Outstanding
        fire times live in a min-heap, so arming and the tick itself are
        O(log pending) instead of a linear ``min()`` + ``remove()``.
        """
        # Same float expression as Event.succeed and Timeout use, so the
        # tick fires at a bit-identical timestamp to a delayed event.
        t_abs = self.sim.now + t_next
        self._tick_target = t_abs
        heap = self._tick_heap
        if not heap or heap[0] > t_abs:
            heapq.heappush(heap, t_abs)
            self.sim.call_at(t_abs, self._on_completion_tick,
                             priority=PRIORITY_LATE)

    def _on_completion_tick(self) -> None:
        # This tick's own entry is necessarily the heap minimum: every
        # entry pairs with a callback at exactly its time, and earlier
        # callbacks have already popped every earlier entry.
        heapq.heappop(self._tick_heap)
        if not self._nactive or not math.isfinite(self._tick_target):
            return
        if self.sim.now == self._tick_target:
            self._recompute()
        elif not self._tick_heap or self._tick_heap[0] > self._tick_target:
            # Fired early (the predicted completion moved later after an
            # arrival); re-arm at the current target.
            heapq.heappush(self._tick_heap, self._tick_target)
            self.sim.call_at(self._tick_target, self._on_completion_tick,
                             priority=PRIORITY_LATE)

    def _complete(self, finished: np.ndarray, now: float) -> None:
        """Release the finished slots and fire their flows' events."""
        # Account the short-cut remainder as moved.
        self.total_bytes_moved += float(self._remaining[finished].sum())
        for index in finished.tolist():
            flow = self._flows[index]
            self._release_slot(index)
            if flow is None:
                continue
            flow.end_time = now
            self.completed_flows += 1
            flow.event.succeed(flow)

    def _maxmin_rates(self, idx: np.ndarray, whole: bool) -> None:
        """Assign max-min fair rates (with per-flow caps) to the slots
        ``idx`` and refresh ``_cap_used`` for the capacities they touch
        (for every capacity when ``whole``: ``idx`` is every active
        slot).

        Each round computes every unfrozen flow's *candidate* rate — the
        minimum of its resources' fair shares and its own cap — and
        freezes all flows whose candidate lies within ``fairness_slack``
        of the round's bottleneck, at their candidate. With slack 0 this
        is exact max-min; with a small slack, near-equal bottleneck
        levels batch into one round (hundreds of rounds → a handful).

        The rounds run over *equivalence classes* of flows with identical
        (resource signature, rate cap): all members of a class see the
        same fair shares and the same cap, so they share one candidate
        and freeze together. Resource occupancy counts weight each class
        by its multiplicity, and the capacity consumed by a freeze is
        scattered per flow in ascending slot order, so the result is
        bit-identical to solving flow by flow at ``fairness_slack=0``
        (all-distinct flows are simply all-singleton classes) — and,
        because every per-capacity accumulation involves only that
        capacity's own component's flows in the same order, a solve over
        one component is bit-identical to the same flows' rows of a
        solve over the whole network.

        With ``kernel="compiled"`` (the default when a C compiler is
        found) the whole solve — class numbering, freeze rounds, per-flow
        scatter — runs in the C kernel (:mod:`repro.des.kernels`), which
        replicates :func:`~repro.des.kernels.maxmin_class_solve_np`'s
        floating-point operation order exactly and is therefore
        bit-identical to ``kernel="python"`` at *any* slack.
        """
        self._pass.solve(self, idx, whole)
