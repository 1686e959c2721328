"""Discrete-event simulation kernel.

A small, fast, dependency-free DES in the style of SimPy, tailored to the
needs of the cluster/file-system models in this package:

- :class:`~repro.des.core.Simulator` — the event loop (a binary heap
  plus a FIFO lane for same-instant entries) and simulated clock;
- :class:`~repro.des.core.Event`, :class:`~repro.des.core.Timeout` — the
  primitive awaitables;
- :class:`~repro.des.process.Process` — generator-coroutine processes that
  ``yield`` events to wait on them;
- :mod:`~repro.des.resources` — FIFO servers, stores and priority resources;
- :mod:`~repro.des.bandwidth` — a vectorised max-min fair-share flow model
  used for every NIC, link and storage target in the cluster models;
- :mod:`~repro.des.kernels` — the water-filling kernels: compiled C by
  default when a C compiler is found, numpy otherwise (``REPRO_KERNEL``);
- :mod:`~repro.des.rng` — named, deterministic random streams.

Run counters live where they are counted (``FlowNetwork.solver_stats``,
the file system's and servers' own tallies); timelines are recorded only
on request, through :mod:`repro.observe`.
"""

from repro.des.core import Event, Simulator, Timeout
from repro.des.kernels import (KERNEL_COMPILED, KERNEL_PYTHON, kernel_status,
                               resolve_kernel)
from repro.des.process import AllOf, AnyOf, Interrupt, Process
from repro.des.resources import PriorityResource, Resource, Store
from repro.des.bandwidth import (Flow, FlowNetwork, LinkCapacity,
                                 SOLVER_COMPONENT, SOLVER_GLOBAL)
from repro.des.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Flow",
    "FlowNetwork",
    "Interrupt",
    "KERNEL_COMPILED",
    "KERNEL_PYTHON",
    "LinkCapacity",
    "PriorityResource",
    "Process",
    "RandomStreams",
    "Resource",
    "SOLVER_COMPONENT",
    "SOLVER_GLOBAL",
    "Simulator",
    "Store",
    "kernel_status",
    "resolve_kernel",
]
