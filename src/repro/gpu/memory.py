"""Device memory allocator.

Models the GPU's global memory as a 64-bit virtual address range carved by a
first-fit free-list allocator (256-byte aligned, like ``cudaMalloc``).  Each
live allocation is backed by a NumPy byte buffer so kernels and memcpys are
*numerically real*; reads and writes at arbitrary intra-allocation offsets
are supported because CUDA applications routinely do pointer arithmetic on
device pointers.

The allocator detects the error classes the paper's Rust lifetime wrappers
eliminate by construction -- double frees, use-after-free, out-of-bounds
accesses -- and reports them as typed exceptions.

A device-to-host copy does not copy: :meth:`DeviceAllocator.pin` hands out a
read-only :class:`PinnedSpan` of the allocation, which is sent from where it
lives.  While an allocation is pinned it is copy-on-write: whatever would
change its bytes in place first swaps a private copy of the array in, so the
span keeps reading the bytes as of the copy and no writer (or free) ever
waits for the span's reader.

A host-to-device copy of a whole allocation does not copy either, when its
payload was received into a :class:`Landing`: :meth:`DeviceAllocator.write`
adopts the landing's array as the allocation's, by the same swap.
"""

from __future__ import annotations

import bisect
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.errors import (
    AllocationOverlapError,
    DoubleFreeError,
    InvalidDevicePointerError,
    InvalidSizeError,
    OutOfBoundsError,
    OutOfMemoryError,
    QuarantineDoubleFreeError,
    UseAfterFreeError,
)
from repro.gpu.sanitizer import POISON, Sanitizer
from repro.xdr.encoder import Buffer, flat_view

#: env flag: verify allocator invariants after every mutating operation
#: (expensive; CI soak jobs set it, production paths leave it unset)
DEBUG_ALLOCATOR_ENV = "REPRO_DEBUG_ALLOCATOR"

#: Base of the simulated device virtual address space.  Non-zero so that a
#: NULL pointer is never a valid device address.
DEVICE_VA_BASE = 0x7F00_0000_0000

ALIGNMENT = 256

#: granularity of dirty tracking for incremental checkpoints.  64 KiB
#: matches the GPU MMU page size CRAC-style checkpointers diff at: small
#: enough that touching one float does not re-ship a whole allocation,
#: large enough that the page set for 512 MiB stays a few thousand entries.
PAGE_BYTES = 64 * 1024


def _align_up(n: int, alignment: int = ALIGNMENT) -> int:
    return (n + alignment - 1) // alignment * alignment


@dataclass
class Allocation:
    """One live device allocation."""

    addr: int
    size: int
    data: np.ndarray = field(repr=False)
    #: live pinned spans of ``data`` (a copy swapped in has none)
    pins: int = 0


class PinnedSpan(np.ndarray):
    """A read-only span of one allocation that pins it: a D2H copy's result.

    It is a ``uint8`` view of device memory, so it goes into a reply record
    as a buffer the socket gathers from (see
    :class:`~repro.xdr.encoder.GatherRecord`, which calls :meth:`unpin` once
    the record is sent).  While pinned, the allocation is copy-on-write
    (:meth:`DeviceAllocator._unshare`): the span reads the bytes as of the
    copy, however long its reader takes.  The pin goes with :meth:`unpin`,
    :meth:`take`, or when the span is freed, whichever comes first.
    """

    # Set on the span :meth:`DeviceAllocator.pin` hands out, cleared by the
    # unpin; numpy views of the span are plain views that pin nothing.
    _allocator: DeviceAllocator | None = None
    _allocation: Allocation | None = None
    _array: np.ndarray | None = None

    def unpin(self) -> None:
        """Let go of the pin (idempotent): from then on the bytes under the span may change."""
        allocator = self._allocator
        if allocator is not None:
            allocator._unpin(self)

    def take(self) -> bytes:
        """The bytes, copied out, and the pin let go: what an in-process caller gets."""
        data = self.tobytes()
        self.unpin()
        return data

    def __del__(self) -> None:
        self.unpin()


class Landing(np.ndarray):
    """A buffer a host-to-device payload is received into, before the call runs.

    :meth:`DeviceAllocator._landing` sizes one against the allocation the
    payload is for, and :meth:`DeviceAllocator.write` **adopts** its array
    as that allocation's -- no copy -- when the write covers the whole
    allocation and the allocation is still the one it was sized against;
    otherwise the write copies from it, as from any buffer.  Until then it
    is nobody's device memory: a call refused, deduplicated or dropped just
    drops its landing.  Once adopted it *is* device memory, so whatever
    keeps a request beyond its call copies the request out first.
    """

    # Set on the landing :meth:`DeviceAllocator._landing` hands out;
    # cleared when it is adopted (a landing is adopted once at most).
    _allocation: Allocation | None = None


class DeviceAllocator:
    """First-fit free-list allocator over a bounded device memory.

    With ``sanitizer`` set, every allocation is bracketed by canary-filled
    redzones and freed spans pass through a quarantine before reuse --
    see :mod:`repro.gpu.sanitizer`.  The sanitized allocator keeps the
    same external contract (``Allocation.addr`` is the user pointer,
    ``Allocation.data`` the user-sized payload), so checkpoints, delta
    fragments and state fingerprints are format-compatible either way.
    """

    def __init__(self, capacity: int, *, sanitizer: bool = False) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        # Free list: sorted, non-adjacent (addr, size) holes.
        self._free: list[tuple[int, int]] = [(DEVICE_VA_BASE, capacity)]
        self._allocs: dict[int, Allocation] = {}
        self._sorted_addrs: list[int] = []
        self.used_bytes = 0
        #: lifetime counters used by micro-benchmarks and invariants tests
        self.alloc_count = 0
        self.free_count = 0
        #: pages (PAGE_BYTES-granular, relative to DEVICE_VA_BASE) written
        #: since the last :meth:`clear_dirty` -- the incremental-checkpoint
        #: working set
        self._dirty: set[int] = set()
        #: lifetime count of page-dirtying operations (instrumentation)
        self.dirty_marks = 0
        #: compute-sanitizer state, or None when running unsanitized
        self.sanitizer = Sanitizer() if sanitizer else None
        self._debug_invariants = os.environ.get(DEBUG_ALLOCATOR_ENV, "") not in ("", "0")
        #: the allocator's lock.  Pins are taken under the server's dispatch
        #: lock and let go from whichever thread sent the reply, and a
        #: landing is sized on the thread receiving the request: this
        #: orders all three against the array swaps (copy-on-write,
        #: adoption) and against alloc and free
        self._lock = threading.RLock()
        #: spans handed out by :meth:`pin` and not yet let go
        self.pinned_spans = 0
        #: allocations copied aside because a writer met a pin (instrumentation)
        self.cow_copies = 0
        #: landings adopted as an allocation's array (instrumentation)
        self.landings_adopted = 0
        #: the array the last adoption swapped out, if nothing pinned it:
        #: the next landing of its size (one per allocator, so per device);
        #: any free drops it
        self._spare: np.ndarray | None = None

    def _debug_check(self) -> None:
        if self._debug_invariants:
            self.check_invariants()

    # -- allocation ---------------------------------------------------------

    def _find_hole(self, span: int) -> int | None:
        """Index of the first free hole holding ``span`` bytes, or None."""
        for index, (_hole_addr, hole_size) in enumerate(self._free):
            if hole_size >= span:
                return index
        return None

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the device address.

        Zero-byte allocations succeed and return a unique address, matching
        ``cudaMalloc(&p, 0)`` returning ``cudaSuccess``.
        """
        if size < 0:
            raise ValueError("allocation size cannot be negative")
        with self._lock:
            return self._alloc(size)

    def _alloc(self, size: int) -> int:
        span = _align_up(max(size, 1))
        redzone = Sanitizer.REDZONE_BYTES if self.sanitizer else 0
        total = span + 2 * redzone
        index = self._find_hole(total)
        if index is None and self.sanitizer is not None:
            # Quarantined memory is still *free* memory: recycle all of it
            # (losing use-after-free coverage for those spans) before
            # telling the tenant the device is full.
            for entry in self.sanitizer.flush_quarantine():
                self._insert_hole(entry.base, entry.span)
            index = self._find_hole(total)
        if index is None:
            raise OutOfMemoryError(
                f"cannot allocate {size} bytes ({self.free_bytes} free, fragmented)"
            )
        hole_addr, hole_size = self._free[index]
        remaining = hole_size - total
        if remaining:
            self._free[index] = (hole_addr + total, remaining)
        else:
            del self._free[index]
        user_addr = hole_addr + redzone
        allocation = Allocation(user_addr, size, np.zeros(size, dtype=np.uint8))
        self._allocs[user_addr] = allocation
        bisect.insort(self._sorted_addrs, user_addr)
        self.used_bytes += total
        self.alloc_count += 1
        if self.sanitizer is not None:
            self.sanitizer.register(hole_addr, user_addr, size, span)
        # A fresh allocation's (zeroed) contents are new state: a delta
        # checkpoint taken after this must carry it.
        self._mark_dirty(user_addr, size)
        self._debug_check()
        return user_addr

    def alloc_at(self, addr: int, size: int) -> int:
        """Allocate ``size`` bytes at the exact user address ``addr``.

        The restore path's primitive: device pointers are application
        state (they live inside client structures), so a restored
        allocation must reappear at its checkpointed address.  Under the
        sanitizer the redzones are carved around ``addr`` exactly as
        :meth:`alloc` would have placed them, so a restored device keeps
        full guard-band and quarantine coverage.  Raises
        :class:`~repro.gpu.errors.OutOfMemoryError` when the required
        footprint is not entirely free (e.g. arming a sanitizer over a
        checkpoint taken unsanitized, where no redzone gaps exist).
        """
        if size < 0:
            raise ValueError("allocation size cannot be negative")
        with self._lock:
            return self._alloc_at(addr, size)

    def _alloc_at(self, addr: int, size: int) -> int:
        if addr in self._allocs:
            raise AllocationOverlapError(f"address {addr:#x} is already live")
        span = _align_up(max(size, 1))
        redzone = Sanitizer.REDZONE_BYTES if self.sanitizer else 0
        base = addr - redzone
        total = span + 2 * redzone
        index = next(
            (
                i
                for i, (hole_addr, hole_size) in enumerate(self._free)
                if hole_addr <= base and base + total <= hole_addr + hole_size
            ),
            None,
        )
        if index is None:
            raise OutOfMemoryError(
                f"cannot place {size} bytes at {addr:#x}: footprint not free"
            )
        hole_addr, hole_size = self._free[index]
        del self._free[index]
        if base > hole_addr:
            self._free.insert(index, (hole_addr, base - hole_addr))
            index += 1
        if hole_addr + hole_size > base + total:
            self._free.insert(
                index, (base + total, hole_addr + hole_size - (base + total))
            )
        allocation = Allocation(addr, size, np.zeros(size, dtype=np.uint8))
        self._allocs[addr] = allocation
        bisect.insort(self._sorted_addrs, addr)
        self.used_bytes += total
        self.alloc_count += 1
        if self.sanitizer is not None:
            self.sanitizer.register(base, addr, size, span)
        self._mark_dirty(addr, size)
        self._debug_check()
        return addr

    def free(self, addr: int) -> None:
        """Release the allocation starting at ``addr``.

        Freeing address 0 is a no-op (``cudaFree(NULL)`` is legal); freeing
        a non-allocation address raises, freeing twice raises
        :class:`~repro.gpu.errors.DoubleFreeError`.  Under the sanitizer
        the guard bands are verified, the contents are poisoned, and the
        span is quarantined instead of reused immediately.
        """
        if addr == 0:
            return
        with self._lock:
            self._free_at(addr)

    def _free_at(self, addr: int) -> None:
        allocation = self._allocs.pop(addr, None)
        if allocation is None:
            if self.sanitizer is not None:
                entry = next(
                    (e for e in self.sanitizer.quarantine_entries() if e.user_addr == addr),
                    None,
                )
                if entry is not None:
                    raise self.sanitizer.report(
                        QuarantineDoubleFreeError(
                            f"double free of {addr:#x}",
                            addr=addr,
                            owner=entry.owner,
                            site=entry.site,
                        )
                    )
            if any(a.addr < addr < a.addr + max(a.size, 1) for a in self._allocs.values()):
                raise InvalidDevicePointerError(
                    f"free of interior pointer {addr:#x}"
                )
            raise DoubleFreeError(f"free of unallocated address {addr:#x}")
        self._sorted_addrs.remove(addr)
        # A free gives memory back, the spare's too: it would otherwise stay
        # behind for as long as the allocator lives.
        self._spare = None
        span = _align_up(max(allocation.size, 1))
        self.free_count += 1
        if self.sanitizer is None:
            self.used_bytes -= span
            self._insert_hole(addr, span)
            self._debug_check()
            return
        guard = self.sanitizer.guard(addr)
        violation = self.sanitizer.check_guard(guard)
        # Complete the free even when the guard bands are corrupt: the
        # allocator must stay consistent for the co-tenants that the
        # recovery ladder is about to protect.
        if allocation.pins:
            self._unshare(allocation)
        allocation.data[:] = POISON
        self.used_bytes -= guard.span
        for entry in self.sanitizer.quarantine(guard):
            self._insert_hole(entry.base, entry.span)
        self._debug_check()
        if violation is not None:
            raise self.sanitizer.report(violation)

    def _insert_hole(self, addr: int, size: int) -> None:
        index = bisect.bisect_left(self._free, (addr, 0))
        self._free.insert(index, (addr, size))
        # Coalesce with successor then predecessor.
        if index + 1 < len(self._free):
            nxt_addr, nxt_size = self._free[index + 1]
            if addr + size == nxt_addr:
                self._free[index] = (addr, size + nxt_size)
                del self._free[index + 1]
        if index > 0:
            prev_addr, prev_size = self._free[index - 1]
            cur_addr, cur_size = self._free[index]
            if prev_addr + prev_size == cur_addr:
                self._free[index - 1] = (prev_addr, prev_size + cur_size)
                del self._free[index]

    # -- access --------------------------------------------------------------

    def _find(self, addr: int, size: int, mode: str = "write") -> tuple[Allocation, int]:
        """Locate the allocation containing [addr, addr+size).

        ``mode`` classifies the failed access for the sanitizer's typed
        errors (``"read"`` or ``"write"``); it does not affect lookup.  A
        negative ``size`` is refused first: sliced, it would read as a
        Python negative index, most of the allocation.
        """
        if size < 0:
            raise InvalidSizeError(f"{mode} of {size} bytes at {addr:#x}")
        index = bisect.bisect_right(self._sorted_addrs, addr) - 1
        if index >= 0:
            allocation = self._allocs[self._sorted_addrs[index]]
            start = allocation.addr
            if start <= addr and addr + size <= start + allocation.size:
                return allocation, addr - start
            guard = self.sanitizer.guard(allocation.addr) if self.sanitizer else None
            crosses_end = allocation.addr <= addr < allocation.addr + allocation.size
            # Under the sanitizer the back redzone (and alignment slack)
            # also belongs to this allocation for diagnostic purposes: an
            # access landing there is an out-of-bounds on *this* buffer.
            in_back_zone = guard is not None and allocation.addr <= addr < guard.end
            if crosses_end or in_back_zone:
                message = (
                    f"access [{addr:#x}, +{size}) crosses end of allocation "
                    f"[{allocation.addr:#x}, +{allocation.size})"
                )
                if self.sanitizer is not None:
                    raise self.sanitizer.report(
                        OutOfBoundsError(
                            message,
                            mode=mode,
                            addr=addr,
                            owner=guard.owner if guard else "",
                            site=guard.site if guard else "",
                        )
                    )
                raise AllocationOverlapError(message)
        if self.sanitizer is not None:
            entry = self.sanitizer.quarantined_at(addr, size)
            if entry is not None:
                raise self.sanitizer.report(
                    UseAfterFreeError(
                        f"{mode} of freed (quarantined) memory at {addr:#x}",
                        addr=addr,
                        owner=entry.owner,
                        site=entry.site,
                    )
                )
        raise InvalidDevicePointerError(f"invalid device address {addr:#x}")

    def view(self, addr: int, size: int) -> np.ndarray:
        """A writable uint8 view of device memory at ``addr``.

        Marks the covered pages dirty: every mutation path -- ``write``,
        ``memset``, ``copy_within`` and kernel bodies (via
        :meth:`~repro.gpu.kernels.LaunchContext.view`) -- goes through
        here, so the dirty set is a sound overapproximation of what
        changed since the last :meth:`clear_dirty`.  For the same reason a
        pinned allocation is unshared here (:meth:`_unshare`).
        """
        allocation, offset = self._find(addr, size, mode="write")
        if allocation.pins:
            self._unshare(allocation)
        self._mark_dirty(addr, size)
        if self._debug_invariants:
            self.check_invariants()
        return allocation.data[offset : offset + size]

    def read(self, addr: int, size: int) -> bytes:
        """Copy ``size`` bytes out of device memory (does not mark dirty)."""
        allocation, offset = self._find(addr, size, mode="read")
        return allocation.data[offset : offset + size].tobytes()

    def pin(self, addr: int, size: int) -> PinnedSpan:
        """``size`` bytes of device memory at ``addr`` as a :class:`PinnedSpan`.

        Checked like :meth:`read` -- bounds, and under the sanitizer
        out-of-bounds and use-after-free reads -- but nothing is copied:
        until the span is unpinned, the allocation is copy-on-write.
        """
        allocation, offset = self._find(addr, size, mode="read")
        with self._lock:
            array = allocation.data
            allocation.pins += 1
            self.pinned_spans += 1
        span = array[offset : offset + size].view(PinnedSpan)
        span.flags.writeable = False
        span._allocation, span._array = allocation, array
        span._allocator = self
        return span

    def _unpin(self, span: PinnedSpan) -> None:
        with self._lock:
            if span._allocator is None:
                return  # let go already
            allocation, array = span._allocation, span._array
            span._allocator = span._allocation = span._array = None
            self.pinned_spans -= 1
            if allocation.data is array:  # else a copy was swapped in: no pins
                allocation.pins -= 1

    def _unshare(self, allocation: Allocation) -> None:
        """Swap a private copy of a pinned allocation's array in, before
        anything changes the allocation in place.

        The pinned spans keep the old array, which nothing writes again; the
        copy starts with no pins.  Every in-place mutation -- :meth:`view`
        (so writes, memsets, device-to-device copies, kernels and the
        libraries), a sanitized :meth:`free`'s poison, :meth:`wild_write` --
        calls this first when the allocation is pinned.  A reset, restore or
        failover needs nothing: it builds new allocators and arrays.
        """
        with self._lock:
            if allocation.pins:
                allocation.data = allocation.data.copy()
                allocation.pins = 0
                self.cow_copies += 1

    def write(self, addr: int, data: Buffer) -> None:
        """Copy the bytes of ``data`` into device memory at ``addr``.

        ``data`` is any buffer -- its bytes, not its values: a ``float32``
        array writes four bytes per element.  A view of a whole
        :class:`Landing` whose write covers the whole allocation it was
        sized against is adopted instead of copied (:meth:`_adopt`).
        """
        view = memoryview(data)
        if not view.c_contiguous:  # its bytes in C order
            view = memoryview(view.tobytes())
        view = flat_view(view)
        landing = view.obj
        if type(landing) is Landing and landing._allocation is not None:
            allocation, offset = self._find(addr, len(view), mode="write")
            if (
                allocation is landing._allocation
                and not offset
                and len(view) == len(landing) == allocation.size
            ):
                self._adopt(allocation, landing)
                self._mark_dirty(addr, len(view))
                self._debug_check()
                return
        self.view(addr, len(view))[:] = np.frombuffer(view, dtype=np.uint8)

    def _landing(self, addr: int, size: int) -> Landing | None:
        """A :class:`Landing` for ``size`` bytes to be written at ``addr``.

        ``None`` unless ``[addr, addr + size)`` lies in one live
        allocation: a write that cannot succeed is received as any other
        record and fails in the call, as ever.  This only looks -- no
        sanitizer verdict, no dirty page, nothing counted -- and takes the
        allocator's lock, as alloc and free do, so it may run beside the
        dispatch of other calls.  The landing is the spare array when that
        has the size, else a fresh, uninitialised one.
        """
        with self._lock:
            index = bisect.bisect_right(self._sorted_addrs, addr) - 1
            if index < 0:
                return None
            allocation = self._allocs[self._sorted_addrs[index]]
            if addr + size > allocation.addr + allocation.size:
                return None
            array = self._spare
            if array is not None and array.size == size:
                self._spare = None
            else:
                array = None
        if array is None:
            array = np.empty(size, dtype=np.uint8)
        landing = array.view(Landing)
        landing._allocation = allocation
        return landing

    def _adopt(self, allocation: Allocation, landing: Landing) -> None:
        """Swap the landing's array in as ``allocation``'s, as
        :meth:`_unshare` swaps a copy in: pinned spans keep the old array,
        which nothing writes again, and the new one starts with no pins.
        An old array nothing pinned becomes the spare.

        That is sound because pins are the only holders of an allocation's
        array beyond a call: every other user -- :meth:`view` (writes,
        memsets, kernels, the libraries), :meth:`read`,
        :meth:`copy_within`, checkpoints and dirty fragments -- slices or
        copies it within the call that asked.
        """
        with self._lock:
            old = allocation.data
            allocation.data = landing.base
            landing._allocation = None
            self.landings_adopted += 1
            if allocation.pins:
                allocation.pins = 0
            else:
                self._spare = old

    def memset(self, addr: int, value: int, size: int) -> None:
        """Fill ``size`` bytes at ``addr`` with ``value``."""
        self.view(addr, size)[:] = value & 0xFF

    def copy_within(self, dst: int, src: int, size: int) -> None:
        """Device-to-device copy (handles overlapping ranges like memmove)."""
        allocation, offset = self._find(src, size, mode="read")
        data = allocation.data[offset : offset + size].copy()
        self.view(dst, size)[:] = data

    def wild_write(self, addr: int, data: bytes) -> int:
        """Unchecked device write: a buggy kernel's wild pointer (chaos hook).

        Deliberately bypasses bounds validation -- this models the class of
        bug the checked RPC paths *cannot* make, a kernel scribbling
        through an arbitrary pointer.  Bytes land wherever the range
        overlaps live allocation payloads or guard bands; canary damage is
        caught later by free/sweep/checkpoint verification.  Returns the
        number of canary bytes corrupted (0 when unsanitized or the write
        missed every redzone).
        """
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
        end = addr + buf.size
        for allocation in self.live_allocations():
            lo = max(addr, allocation.addr)
            hi = min(end, allocation.addr + allocation.size)
            if lo < hi:
                if allocation.pins:
                    self._unshare(allocation)
                allocation.data[lo - allocation.addr : hi - allocation.addr] = (
                    buf[lo - addr : hi - addr]
                )
                self._mark_dirty(lo, hi - lo)
        self._debug_check()
        if self.sanitizer is None:
            return 0
        return self.sanitizer.corrupt_guards(addr, buf)

    # -- dirty-page tracking (incremental checkpoints) -----------------------

    def _mark_dirty(self, addr: int, size: int) -> None:
        if size <= 0:
            return
        first = (addr - DEVICE_VA_BASE) // PAGE_BYTES
        last = (addr + size - 1 - DEVICE_VA_BASE) // PAGE_BYTES
        if first == last:
            self._dirty.add(first)
        else:
            self._dirty.update(range(first, last + 1))
        self.dirty_marks += 1

    def dirty_pages(self) -> frozenset[int]:
        """Pages written since the last :meth:`clear_dirty`."""
        return frozenset(self._dirty)

    def clear_dirty(self) -> frozenset[int]:
        """Return the dirty page set and reset it (checkpoint epoch edge)."""
        pages = frozenset(self._dirty)
        self._dirty.clear()
        return pages

    def remark_dirty(self, pages: frozenset[int]) -> None:
        """Put back pages a :meth:`clear_dirty` took whose checkpoint then
        failed: the next capture must still ship them."""
        self._dirty.update(pages)

    def mark_all_dirty(self) -> None:
        """Mark every live allocation dirty (after restore: baseline unknown)."""
        for allocation in self._allocs.values():
            self._mark_dirty(allocation.addr, max(allocation.size, 1))

    @property
    def dirty_bytes(self) -> int:
        """Upper bound on bytes a delta checkpoint would ship right now."""
        return len(self._dirty) * PAGE_BYTES

    def dirty_fragments(
        self, pages: frozenset[int] | set[int] | None = None
    ) -> list[tuple[int, bytes]]:
        """Live-memory fragments covered by ``pages`` (default: current dirty set).

        Each fragment is ``(device_addr, data)`` and lies entirely inside
        one live allocation -- the unit an incremental checkpoint or a
        pre-copy migration round ships.  Pages overlapping no live
        allocation contribute nothing (the bytes were freed).
        """
        if pages is None:
            pages = self._dirty
        if not pages:
            return []
        # Merge page indices into contiguous [start, end) address ranges.
        ranges: list[tuple[int, int]] = []
        for page in sorted(pages):
            start = DEVICE_VA_BASE + page * PAGE_BYTES
            end = start + PAGE_BYTES
            if ranges and ranges[-1][1] == start:
                ranges[-1] = (ranges[-1][0], end)
            else:
                ranges.append((start, end))
        fragments: list[tuple[int, bytes]] = []
        for allocation in self.live_allocations():
            if allocation.size == 0:
                continue
            a_start, a_end = allocation.addr, allocation.addr + allocation.size
            for r_start, r_end in ranges:
                lo, hi = max(a_start, r_start), min(a_end, r_end)
                if lo >= hi:
                    continue
                data = allocation.data[lo - a_start : hi - a_start].tobytes()
                fragments.append((lo, data))
        return fragments

    # -- inspection ------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Device memory available to new allocations, bytes.

        Quarantined spans count as free -- they are recycled (oldest
        first, or flushed entirely) before the allocator reports OOM.
        """
        return self.capacity - self.used_bytes

    @property
    def quarantined_bytes(self) -> int:
        """Freed bytes currently withheld from reuse by the sanitizer."""
        return self.sanitizer.quarantined_bytes if self.sanitizer is not None else 0

    def live_allocations(self) -> tuple[Allocation, ...]:
        """All live allocations, ordered by address."""
        return tuple(self._allocs[a] for a in self._sorted_addrs)

    def is_live(self, addr: int) -> bool:
        """True if ``addr`` is the base of a live allocation."""
        return addr in self._allocs

    # -- attribution and canary verification ----------------------------------

    def annotate(self, addr: int, owner: str = "", site: str = "") -> None:
        """Attach owner/allocation-site attribution (no-op unsanitized)."""
        if self.sanitizer is not None:
            self.sanitizer.annotate(addr, owner=owner, site=site)

    def site_of(self, addr: int) -> tuple[str, str]:
        """(owner, site) recorded for a live allocation ("" when unknown)."""
        if self.sanitizer is not None:
            guard = self.sanitizer.guard(addr)
            if guard is not None:
                return guard.owner, guard.site
        return "", ""

    def live_report(self) -> list[tuple[int, int, str, str]]:
        """(addr, size, owner, site) for every live allocation.

        The input to the server's leak report when a session's ledger is
        released with memory still live.
        """
        return [
            (a.addr, a.size, *self.site_of(a.addr)) for a in self.live_allocations()
        ]

    def verify_canaries(self) -> int:
        """Check every guard band now; raises on the first corruption.

        Returns the number of allocations verified (0 unsanitized).  Run
        by the server's periodic sweep and at checkpoint time.
        """
        if self.sanitizer is None:
            return 0
        return self.sanitizer.sweep()

    def check_invariants(self) -> None:
        """Verify allocator bookkeeping; used by property-based tests.

        Under the sanitizer, each allocation's footprint includes its
        redzones and quarantined spans tile alongside free holes -- the
        address space must still be covered exactly.
        """
        if self.sanitizer is not None:
            alloc_spans = []
            for a in self._allocs.values():
                guard = self.sanitizer.guard(a.addr)
                if guard is None:
                    raise AssertionError(f"live allocation {a.addr:#x} has no guard")
                alloc_spans.append((guard.base, guard.span))
            spans = sorted(
                alloc_spans + list(self._free) + self.sanitizer.quarantine_spans()
            )
        else:
            spans = sorted(
                [(a.addr, _align_up(max(a.size, 1))) for a in self._allocs.values()]
                + list(self._free)
            )
        cursor = DEVICE_VA_BASE
        total = 0
        for addr, size in spans:
            if addr < cursor:
                raise AssertionError("overlapping regions in allocator")
            if addr != cursor:
                raise AssertionError("gap in allocator address space")
            cursor = addr + size
            total += size
        if total != self.capacity:
            raise AssertionError("allocator does not cover capacity exactly")
        # Free list must be sorted and coalesced.
        for (a1, s1), (a2, _s2) in zip(self._free, self._free[1:]):
            if a1 + s1 >= a2 and a1 + s1 != a2:
                raise AssertionError("free list overlap")
            if a1 + s1 == a2:
                raise AssertionError("free list not coalesced")
        with self._lock:  # spans are let go from other threads
            pins = 0
            for a in self._allocs.values():
                if a.pins < 0:
                    raise AssertionError(f"allocation {a.addr:#x} unpinned more than pinned")
                pins += a.pins
            if pins > self.pinned_spans:
                raise AssertionError("more pins on live allocations than spans handed out")
