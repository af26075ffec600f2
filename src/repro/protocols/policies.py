"""Concurrent-write resolution policies.

Section 2 of the paper: "It is possible to further refine the definition of
causal memory and specify a policy for selecting among alternatives ...
allowing the programmer to select among such policies can significantly
simplify programming of some applications."  Section 4.2 then relies on
exactly one such policy for the dictionary: "writes by the owner are always
favored when resolving concurrent writes."

A policy is consulted by the owner when it services a remote ``WRITE``
whose stamp is *concurrent* with the stamp of the currently stored entry.
(An incoming write whose stamp dominates the stored stamp always applies;
Figure 4's basic protocol corresponds to :class:`LastWriterWins`, which
also applies concurrent writes unconditionally — arrival order at the
owner breaks the tie, which is a legal selection among live values.)
"""

from __future__ import annotations

from repro.clocks import VectorClock
from repro.memory.local_store import MemoryEntry

__all__ = ["ConflictPolicy", "LastWriterWins", "OwnerFavoured"]


class ConflictPolicy:
    """Decides whether a concurrent incoming write replaces the stored one."""

    def apply_concurrent(
        self,
        owner_id: int,
        location: str,
        current: MemoryEntry,
        incoming_writer: int,
        incoming_value: object,
        incoming_stamp: VectorClock,
    ) -> bool:
        """Return True to install the incoming write, False to reject it."""
        raise NotImplementedError

    def describe(self) -> str:
        """Name used in experiment reports."""
        return type(self).__name__


class LastWriterWins(ConflictPolicy):
    """Figure 4 verbatim: the owner installs every certified write.

    Among concurrent writes, whichever reaches the owner last is the one
    subsequent remote readers observe — a legal choice, since concurrent
    writes are all live for such readers (Definition 1, condition 1).
    """

    def apply_concurrent(
        self,
        owner_id: int,
        location: str,
        current: MemoryEntry,
        incoming_writer: int,
        incoming_value: object,
        incoming_stamp: VectorClock,
    ) -> bool:
        return True


class OwnerFavoured(ConflictPolicy):
    """Section 4.2's policy: the owner's own concurrent write survives.

    If the stored entry was written by the owner itself and the incoming
    write is concurrent with it, the incoming write is rejected.  This is
    what makes the dictionary's unsynchronised deletes safe: a stale
    concurrent delete (a write of the free marker by another process)
    cannot clobber an owner's newer insert into the same slot.
    """

    def apply_concurrent(
        self,
        owner_id: int,
        location: str,
        current: MemoryEntry,
        incoming_writer: int,
        incoming_value: object,
        incoming_stamp: VectorClock,
    ) -> bool:
        return current.writer != owner_id
