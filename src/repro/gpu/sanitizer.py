"""Server-side compute sanitizer for device memory.

The paper's RPC-Lib gives GPU allocations Rust-lifetime semantics, but only
on the *client* side: the Cricket server still trusts every pointer and
length a tenant sends.  This module is the server's answer -- the moral
equivalent of ``compute-sanitizer --tool memcheck`` running permanently at
the RPC boundary:

* **Redzones**: every sanitized allocation is bracketed by canary-filled
  guard bands.  Checked access paths can never touch them; a *wild* device
  write (a buggy kernel scribbling through an unchecked pointer) lands in
  the canaries and is detected on free, on checkpoint, and by a periodic
  sweep.
* **Quarantine**: freed spans are poisoned and parked in a quarantine list
  instead of returning to the free list, so use-after-free and double-free
  are caught *deterministically* -- the stale address cannot silently alias
  a newer allocation.  Quarantined memory is recycled under pressure
  (oldest first) and flushed entirely before the allocator declares OOM.
* **Attribution**: allocations carry an owner identity and allocation-site
  tag (recorded by the Cricket server at ``cudaMalloc`` time), so every
  violation and every leak report names the tenant and call that created
  the memory involved.

Violations are typed :class:`~repro.gpu.errors.SanitizerError` subclasses.
``sticky`` violations (illegal-address class) are reported through
``on_violation`` so the owning :class:`~repro.gpu.device.GpuDevice` can
poison its context via the existing sticky-fault machinery -- the server
never crashes, and the recovery ladder (:mod:`repro.cricket.recovery`)
heals the device afterwards.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.gpu.errors import RedzoneCorruptionError, SanitizerError

#: canary byte filling the guard bands (any overwrite is corruption)
CANARY = 0xA5
#: poison byte smeared over freed allocation contents
POISON = 0xDD


@dataclass
class _Guard:
    """Guard-band bookkeeping for one sanitized allocation.

    The canaries live in their own arrays (they are allocator metadata,
    not application state): checkpoints never ship them, and restored
    allocations get fresh ones.  ``back`` also covers the alignment slack
    between the requested size and the aligned span, so an overwrite one
    byte past ``user_size`` is caught even though it stays inside the
    aligned span.
    """

    base: int
    user_addr: int
    user_size: int
    #: total footprint including both redzones, bytes
    span: int
    front: np.ndarray = field(repr=False)
    back: np.ndarray = field(repr=False)
    owner: str = ""
    site: str = ""

    @property
    def end(self) -> int:
        """One past the back redzone."""
        return self.base + self.span


@dataclass
class _Quarantined:
    """One freed span awaiting reuse (use-after-free tripwire)."""

    user_addr: int
    base: int
    span: int
    owner: str
    site: str

    def overlaps(self, addr: int, size: int) -> bool:
        """True when [addr, addr+max(size,1)) touches this span."""
        return addr < self.base + self.span and addr + max(size, 1) > self.base


class Sanitizer:
    """Redzone, quarantine and attribution state for one allocator.

    :attr:`REDZONE_BYTES` is a multiple of the allocator alignment so
    sanitized user pointers keep ``cudaMalloc``'s 256-byte alignment.  The
    quarantine bounds cap how much freed memory is withheld from reuse;
    within them use-after-free detection is deterministic.
    """

    #: guard band on each side of an allocation
    REDZONE_BYTES = 256
    #: freed bytes the quarantine withholds from reuse, at most
    QUARANTINE_MAX_BYTES = 16 * 1024 * 1024
    #: freed spans the quarantine holds, at most
    QUARANTINE_MAX_ENTRIES = 512

    def __init__(self) -> None:
        #: user address -> guard bands
        self._guards: dict[int, _Guard] = {}
        self._quarantine: deque[_Quarantined] = deque()
        #: bytes currently withheld from reuse by the quarantine
        self.quarantined_bytes = 0
        #: observer invoked with every violation before it is raised; the
        #: device uses this to poison its context on sticky violations
        self.on_violation: Callable[[SanitizerError], None] | None = None
        #: lifetime violation counts by kind
        self.violations: dict[str, int] = {}
        #: guard bands verified over the sanitizer's lifetime
        self.canary_checks = 0
        #: completed full sweeps (free-time checks excluded)
        self.sweeps = 0

    # -- allocation lifecycle ------------------------------------------------

    def register(
        self, base: int, user_addr: int, user_size: int, user_span: int
    ) -> None:
        """Arm guard bands around a fresh allocation.

        ``base`` is the start of the front redzone; ``user_span`` is the
        aligned payload span (``user_addr + user_span + redzone`` ends the
        footprint).
        """
        rz = self.REDZONE_BYTES
        self._guards[user_addr] = _Guard(
            base=base,
            user_addr=user_addr,
            user_size=user_size,
            span=user_span + 2 * rz,
            front=np.full(rz, CANARY, dtype=np.uint8),
            back=np.full(user_span - user_size + rz, CANARY, dtype=np.uint8),
        )

    def guard(self, user_addr: int) -> _Guard | None:
        """Guard bands for a live allocation, if sanitized."""
        return self._guards.get(user_addr)

    def annotate(self, user_addr: int, owner: str = "", site: str = "") -> None:
        """Attach owner/site attribution to a live allocation."""
        g = self._guards.get(user_addr)
        if g is not None:
            g.owner = owner
            g.site = site

    # -- canary verification -------------------------------------------------

    def check_guard(self, g: _Guard) -> RedzoneCorruptionError | None:
        """Inspect one allocation's canaries; returns the violation, if any."""
        self.canary_checks += 1
        for side, band in (("front", g.front), ("back", g.back)):
            if band.size and (band != CANARY).any():
                return RedzoneCorruptionError(
                    f"{side} redzone of allocation {g.user_addr:#x} "
                    f"(+{g.user_size}) corrupted by a wild device write",
                    addr=g.user_addr,
                    owner=g.owner,
                    site=g.site,
                )
        return None

    def sweep(self) -> int:
        """Verify every live guard band; raises on the first corruption.

        Returns the number of allocations checked.  This is the periodic
        background check the server runs between dispatches -- and the
        checkpoint-time check, since a snapshot must not immortalize
        corrupted state silently.
        """
        for g in list(self._guards.values()):
            violation = self.check_guard(g)
            if violation is not None:
                raise self.report(violation)
        self.sweeps += 1
        return len(self._guards)

    # -- quarantine ----------------------------------------------------------

    def quarantine(self, g: _Guard) -> list[_Quarantined]:
        """Move a freed allocation's span into quarantine.

        Returns the entries *evicted* to honour the quarantine bounds;
        the allocator returns those spans to its free list.
        """
        del self._guards[g.user_addr]
        self._quarantine.append(
            _Quarantined(g.user_addr, g.base, g.span, g.owner, g.site)
        )
        self.quarantined_bytes += g.span
        evicted: list[_Quarantined] = []
        while self._quarantine and (
            len(self._quarantine) > self.QUARANTINE_MAX_ENTRIES
            or self.quarantined_bytes > self.QUARANTINE_MAX_BYTES
        ):
            entry = self._quarantine.popleft()
            self.quarantined_bytes -= entry.span
            evicted.append(entry)
        return evicted

    def flush_quarantine(self) -> list[_Quarantined]:
        """Drain the quarantine entirely (last resort before OOM)."""
        drained = list(self._quarantine)
        self._quarantine.clear()
        self.quarantined_bytes = 0
        return drained

    def quarantined_at(self, addr: int, size: int) -> _Quarantined | None:
        """The quarantined span overlapping [addr, addr+size), if any."""
        for entry in self._quarantine:
            if entry.overlaps(addr, size):
                return entry
        return None

    def is_quarantined_base(self, addr: int) -> bool:
        """True when ``addr`` is the user base of a quarantined span."""
        return any(entry.user_addr == addr for entry in self._quarantine)

    def quarantine_entries(self) -> tuple[_Quarantined, ...]:
        """Current quarantine contents, oldest first."""
        return tuple(self._quarantine)

    def quarantine_spans(self) -> list[tuple[int, int]]:
        """(base, span) footprint of every quarantined entry (invariants)."""
        return [(entry.base, entry.span) for entry in self._quarantine]

    # -- wild writes ---------------------------------------------------------

    def corrupt_guards(self, addr: int, data: np.ndarray) -> int:
        """Land the overlap of an *unchecked* write in the guard bands.

        Models the part of a buggy kernel's wild write that hits redzone
        territory; returns the number of canary bytes overwritten.
        """
        end = addr + data.size
        hit = 0
        for g in self._guards.values():
            for band, start in ((g.front, g.base), (g.back, g.user_addr + g.user_size)):
                lo, hi = max(addr, start), min(end, start + band.size)
                if lo < hi:
                    band[lo - start : hi - start] = data[lo - addr : hi - addr]
                    hit += hi - lo
        return hit

    # -- reporting -----------------------------------------------------------

    def report(self, err: SanitizerError) -> SanitizerError:
        """Count a violation and notify the observer; returns ``err``.

        Callers ``raise self.sanitizer.report(err)`` so every violation is
        counted exactly once and the device poisons itself *before* the
        typed error propagates to the offender.
        """
        self.violations[err.kind] = self.violations.get(err.kind, 0) + 1
        if self.on_violation is not None:
            self.on_violation(err)
        return err
