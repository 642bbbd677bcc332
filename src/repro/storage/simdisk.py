"""Deterministic simulated disk with torn-write crash semantics.

The durability stack needs a device model that is honest about the two
things real disks do to you: writes cost time, and un-fsynced data does
not survive a crash.  :class:`SimDisk` is that model, on the virtual
clock so experiments stay deterministic:

* ``append``/``replace`` buffer data in a per-file *pending* set and
  charge ``write_latency``;
* ``fsync`` moves pending data into the *synced* (durable) image and
  charges ``fsync_latency``;
* ``crash`` discards everything pending — except, optionally, a
  *strictly partial* prefix of the first pending append per file (a torn
  write), chosen by the caller's seeded RNG.

Simplifications, stated so nobody mistakes them for guarantees:

* file creation, deletion and rename are atomic and immediately durable
  (standing in for write + directory fsync);
* the device never persists or reorders writes that were not fsynced —
  at most a torn fragment of the *first* in-flight append survives a
  crash, later in-flight appends are wholly lost.  This makes "recovered
  state == synced prefix" an exact equality the crashtest harness can
  assert, rather than a lower bound.

``flip_bit`` corrupts one bit of the durable image — the chaos plane's
model of bit rot on a sealed segment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.clock import VirtualClock


@dataclass
class DiskStats:
    """Operation counters for one :class:`SimDisk`."""

    writes: int = 0
    bytes_written: int = 0
    fsyncs: int = 0
    reads: int = 0
    bytes_read: int = 0
    deletes: int = 0
    renames: int = 0
    crashes: int = 0
    pending_chunks_lost: int = 0
    torn_bytes_kept: int = 0
    bit_flips: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "writes": self.writes,
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "reads": self.reads,
            "bytes_read": self.bytes_read,
            "deletes": self.deletes,
            "renames": self.renames,
            "crashes": self.crashes,
            "pending_chunks_lost": self.pending_chunks_lost,
            "torn_bytes_kept": self.torn_bytes_kept,
            "bit_flips": self.bit_flips,
        }


@dataclass
class _FileState:
    """One file: durable image + not-yet-fsynced mutations.

    ``synced`` is a bytearray so fsync extends it in place — amortized
    O(chunk), not O(file); the WAL fsyncs the same growing file on every
    group commit, and rebuilding the whole image each time turns an
    append-only log quadratic.
    """

    synced: bytearray = field(default_factory=bytearray)
    #: Appends since the last fsync, in write order.
    pending: list[bytes] = field(default_factory=list)
    #: Full-content replacement since the last fsync (``replace``), if any.
    #: A pending replace supersedes the synced image for reads but is lost
    #: on crash, which is what makes the CURRENT-pointer flip need fsync.
    replaced: Optional[bytes] = None

    def view(self) -> bytes:
        base = self.synced if self.replaced is None else self.replaced
        if not self.pending:
            return bytes(base)
        return bytes(base) + b"".join(self.pending)


class SimDisk:
    """A deterministic block of files with write/fsync latency and crashes."""

    def __init__(
        self,
        *,
        clock: "VirtualClock | None" = None,
        write_latency: float = 0.0,
        fsync_latency: float = 0.0,
        read_latency: float = 0.0,
    ) -> None:
        if min(write_latency, fsync_latency, read_latency) < 0:
            raise ValueError("disk latencies must be >= 0")
        self.clock = clock
        self.write_latency = write_latency
        self.fsync_latency = fsync_latency
        self.read_latency = read_latency
        self.stats = DiskStats()
        self._files: dict[str, _FileState] = {}

    # ------------------------------------------------------------------
    def _charge(self, latency: float) -> None:
        if self.clock is not None and latency > 0:
            self.clock.advance(latency)

    def _state(self, path: str) -> _FileState:
        try:
            return self._files[path]
        except KeyError:
            raise FileNotFoundError(path) from None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def create(self, path: str) -> None:
        """Ensure ``path`` exists (empty, durable).  Idempotent."""
        if not path:
            raise ValueError("empty path")
        self._files.setdefault(path, _FileState())

    def append(self, path: str, data: bytes) -> None:
        """Buffer ``data`` at the end of ``path`` (durable only after fsync)."""
        state = self._state(path)
        self._charge(self.write_latency)
        state.pending.append(bytes(data))
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def replace(self, path: str, data: bytes) -> None:
        """Buffer a full-content rewrite of ``path`` (creating it if absent)."""
        self._files.setdefault(path, _FileState())
        state = self._files[path]
        self._charge(self.write_latency)
        state.replaced = bytes(data)
        state.pending.clear()
        self.stats.writes += 1
        self.stats.bytes_written += len(data)

    def fsync(self, path: str) -> None:
        """Make everything written to ``path`` so far durable."""
        state = self._state(path)
        self._charge(self.fsync_latency)
        if state.replaced is not None:
            state.synced = bytearray(state.replaced)
            state.replaced = None
        for chunk in state.pending:
            state.synced += chunk
        state.pending.clear()
        self.stats.fsyncs += 1

    def delete(self, path: str) -> None:
        """Remove ``path`` (atomic + immediately durable).  Idempotent."""
        if self._files.pop(path, None) is not None:
            self.stats.deletes += 1

    def rename(self, old: str, new: str) -> None:
        """Move ``old`` to ``new`` (atomic + immediately durable)."""
        state = self._state(old)
        del self._files[old]
        self._files[new] = state
        self.stats.renames += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def read(self, path: str) -> bytes:
        """Current contents of ``path`` (synced + pending view)."""
        state = self._state(path)
        self._charge(self.read_latency)
        data = state.view()
        self.stats.reads += 1
        self.stats.bytes_read += len(data)
        return data

    def size(self, path: str) -> int:
        return len(self._state(path).view())

    def list(self, prefix: str = "") -> list[str]:
        """Sorted paths starting with ``prefix``."""
        return sorted(p for p in self._files if p.startswith(prefix))

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def crash(self, rng: random.Random | None = None) -> dict[str, int]:
        """Power loss: drop all un-fsynced data, possibly leaving torn tails.

        For each file with pending appends, a seeded ``rng`` keeps a
        strictly partial prefix (0 to len-1 bytes) of the *first* pending
        append; later pending appends are wholly lost.  Without an
        ``rng`` the cut is clean (no torn bytes).  Pending replaces are
        always lost.  Returns ``{"chunks_lost": n, "torn_bytes": m}``.
        """
        chunks_lost = 0
        torn_bytes = 0
        for state in self._files.values():
            if state.replaced is not None:
                state.replaced = None
                chunks_lost += 1
            if state.pending:
                chunks_lost += len(state.pending)
                first = state.pending[0]
                if rng is not None and len(first) > 1:
                    keep = rng.randrange(0, len(first))
                    if keep:
                        state.synced += first[:keep]
                        torn_bytes += keep
                state.pending.clear()
        self.stats.crashes += 1
        self.stats.pending_chunks_lost += chunks_lost
        self.stats.torn_bytes_kept += torn_bytes
        return {"chunks_lost": chunks_lost, "torn_bytes": torn_bytes}

    def flip_bit(
        self, path: str, *, bit: int | None = None, rng: random.Random | None = None
    ) -> int:
        """Flip one bit of the durable image of ``path`` (bit rot).

        ``bit`` is an absolute bit offset; when None a seeded ``rng``
        picks one uniformly.  Returns the flipped bit offset.  Raises
        ``ValueError`` on an empty file (nothing to corrupt).
        """
        state = self._state(path)
        if not state.synced:
            raise ValueError(f"cannot flip a bit of empty file {path!r}")
        if bit is None:
            if rng is None:
                raise ValueError("flip_bit needs either bit= or rng=")
            bit = rng.randrange(0, len(state.synced) * 8)
        if not 0 <= bit < len(state.synced) * 8:
            raise ValueError(f"bit offset {bit} out of range for {path!r}")
        state.synced[bit // 8] ^= 1 << (bit % 8)
        self.stats.bit_flips += 1
        return bit
