"""Stripe layout: mapping file byte ranges onto storage targets.

A file is striped round-robin over ``stripe_count`` targets in units of
``stripe_size`` bytes, starting from a per-file first target (as Lustre
does). :meth:`StripeLayout.split` turns a ``(offset, nbytes)`` request into
per-target segment sizes — the unit of work handed to the flow network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import StorageError

__all__ = ["StripeLayout"]


@dataclass(frozen=True)
class StripeLayout:
    """Striping of one file over a fixed list of target indices."""

    stripe_size: int
    targets: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stripe_size < 1:
            raise StorageError(f"stripe_size must be >= 1, got {self.stripe_size}")
        if not self.targets:
            raise StorageError("a stripe layout needs at least one target")

    @property
    def stripe_count(self) -> int:
        return len(self.targets)

    def target_of(self, offset: int) -> int:
        """Target index storing the byte at ``offset``."""
        if offset < 0:
            raise StorageError(f"negative offset: {offset}")
        stripe = offset // self.stripe_size
        return self.targets[stripe % self.stripe_count]

    def split(self, offset: int, nbytes: int) -> Dict[int, int]:
        """Per-target byte counts for a request of ``nbytes`` at ``offset``.

        Returns a dict ``target index -> bytes`` (only touched targets).
        """
        if nbytes < 0:
            raise StorageError(f"negative request size: {nbytes}")
        out: Dict[int, int] = {}
        if nbytes == 0:
            return out
        end = offset + nbytes
        count = self.stripe_count
        size = self.stripe_size
        first_stripe = offset // size
        last_stripe = (end - 1) // size
        nstripes = last_stripe - first_stripe + 1

        if nstripes >= 2 * count:
            # Bulk case: whole cycles contribute equally; handle the ragged
            # head and tail stripes explicitly.
            head_end = (first_stripe + 1) * size
            head = head_end - offset
            tail_start = last_stripe * size
            tail = end - tail_start
            out[self.targets[first_stripe % count]] = head
            full_stripes = last_stripe - first_stripe - 1
            per_cycle, extra = divmod(full_stripes, count)
            for k in range(count):
                target = self.targets[(first_stripe + 1 + k) % count]
                share = per_cycle * size + (size if k < extra else 0)
                if share:
                    out[target] = out.get(target, 0) + share
            last_target = self.targets[last_stripe % count]
            out[last_target] = out.get(last_target, 0) + tail
        else:
            position = offset
            while position < end:
                stripe = position // size
                stripe_end = min((stripe + 1) * size, end)
                target = self.targets[stripe % count]
                out[target] = out.get(target, 0) + (stripe_end - position)
                position = stripe_end
        return out

    def trace_attrs(self, offset: int, nbytes: int) -> Dict[str, int]:
        """Striping facts attached to a request's ``fs_write`` span."""
        return {
            "stripe_size": self.stripe_size,
            "stripe_count": self.stripe_count,
            "stripes": len(self.stripes_touched(offset, nbytes)),
            "targets": len(self.split(offset, nbytes)),
        }

    def stripes_touched(self, offset: int, nbytes: int) -> range:
        """Global stripe numbers covered by the request (for lock managers)."""
        if nbytes <= 0:
            return range(0)
        first = offset // self.stripe_size
        last = (offset + nbytes - 1) // self.stripe_size
        return range(first, last + 1)


def pick_targets(ntargets: int, stripe_count: int,
                 first: int) -> Tuple[int, ...]:
    """Choose ``stripe_count`` target indices starting at ``first`` (wrapping),
    the way Lustre allocates OSTs for a new file."""
    if ntargets < 1:
        raise StorageError("no storage targets available")
    stripe_count = max(1, min(stripe_count, ntargets))
    return tuple((first + k) % ntargets for k in range(stripe_count))
