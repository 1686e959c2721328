"""Variable metadata store.

Section III-B, "Metadata management": *"All variables written by the
clients are characterized by a tuple ⟨name, iteration, source, layout⟩.
[...] Upon reception of a write-notification, the EPE will add an entry in
a metadata structure associating the tuple with the received data. The
data stay in shared memory until actions are performed on them."*
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.shm import Block
from repro.errors import ReproError
from repro.formats.layout import Layout

__all__ = ["StoredVariable", "VariableStore"]


@dataclass(slots=True)
class StoredVariable:
    """One buffered variable instance awaiting action (mutable: plugins
    set :attr:`processed_bytes`)."""

    name: str
    iteration: int
    source: int
    layout: Layout
    block: Block
    #: Bytes actually occupied (== layout.nbytes unless zero-copy tricks).
    nbytes: int
    #: Node-local client index (allocator region key).
    local_client: int = 0
    #: Shape override for dynamically-sized variables (particle arrays).
    shape: Optional[tuple] = None
    #: Set by plugins (e.g. compression) before persistence.
    processed_bytes: Optional[int] = None

    @property
    def effective_shape(self) -> tuple:
        return self.shape if self.shape is not None else self.layout.shape

    @property
    def key(self) -> Tuple[str, int, int]:
        return (self.name, self.iteration, self.source)

    @property
    def output_bytes(self) -> int:
        """Bytes that will hit storage (post-processing if any)."""
        return self.processed_bytes if self.processed_bytes is not None \
            else self.nbytes


class VariableStore:
    """Index of buffered variables, keyed ⟨name, iteration, source⟩."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, int, int], StoredVariable] = {}
        self._by_iteration: Dict[int, List[Tuple[str, int, int]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: StoredVariable) -> None:
        key = entry.key
        if key in self._entries:
            raise ReproError(
                f"duplicate write of {entry.name!r} (iteration "
                f"{entry.iteration}, source {entry.source})")
        self._entries[key] = entry
        self._by_iteration.setdefault(entry.iteration, []).append(key)

    def get(self, name: str, iteration: int, source: int) -> StoredVariable:
        try:
            return self._entries[(name, iteration, source)]
        except KeyError:
            raise ReproError(
                f"no buffered variable {name!r} for iteration {iteration}, "
                f"source {source}") from None

    def iteration_entries(self, iteration: int) -> List[StoredVariable]:
        """All variables buffered for one iteration (stable order)."""
        keys = self._by_iteration.get(iteration, [])
        return [self._entries[key] for key in keys]

    def iterations(self) -> List[int]:
        return sorted(self._by_iteration)

    def pop_iteration(self, iteration: int) -> List[StoredVariable]:
        """Remove and return all entries of an iteration (post-persist)."""
        keys = self._by_iteration.pop(iteration, [])
        return [self._entries.pop(key) for key in keys]

    def total_buffered_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def __iter__(self) -> Iterator[StoredVariable]:
        return iter(list(self._entries.values()))
