"""Staged fault-recovery ladder for sanitizer and watchdog verdicts.

GPU System Calls (Veselý et al.) argues GPUs need OS-grade fault handling;
CRAC shows device state can be rebuilt after a fault.  This module puts
both ideas behind the Cricket dispatch path: when the compute sanitizer
poisons a context or the kernel watchdog flags a hang, the server climbs a
ladder of progressively more expensive (and more collateral-heavy)
remedies instead of crashing or staying wedged:

0. **Preemptive device failover** -- a device whose *soft* telemetry has
   degraded past thresholds (thermal throttle multiplier, correctable-ECC
   event count) is still healthy by every binary check, but it is both a
   tail-latency destroyer and the classic precursor of the uncorrectable
   fault.  With a clean same-model spare available, its memory image
   migrates off *before* the hard failure -- no tenant ever sees an error.
1. **Cooperative cancel** -- a hung-but-responsive kernel (``"spin"`` /
   ``"budget"`` verdicts) is cancelled in place; only the hung stream's
   queued work is lost.
2. **Stream abort** -- a hard-hung (``"fused"``) non-default stream has
   its execution engine torn down; the handle survives, queued work is
   discarded.
3. **Context reset** -- when the poisoned/hung device carries state of at
   most the culprit tenant, a full ``cudaDeviceReset`` clears it (the
   culprit's resources are dropped, nobody else is affected because
   nobody else is there).
4. **Device failover** -- with innocent co-tenants on the device and a
   healthy same-model spare available, the whole memory image migrates via
   the PR-3 ``failover_device`` path: every tenant's pointers and handles
   stay valid, the fault is gone.
5. **Session reclamation** -- the backstop with collateral: no spare, but
   co-tenants to protect.  The culprit's session is reclaimed (its ledger
   released), the surviving state is salvaged CRAC-style
   (snapshot -> reset -> restore), and the device comes back healthy.

The ladder only auto-heals faults whose ``origin`` is ``"sanitizer"`` or
``"watchdog"`` -- *operator-injected* faults (chaos tests, maintenance)
keep their manual failover semantics from PR 3.  Every rung taken is
counted in :class:`~repro.resilience.stats.ServerStats` and therefore
visible in the tracing summary.

The ladder runs under the Cricket implementation's dispatch lock, invoked
opportunistically by ``_charge_dispatch`` (like the lease reaper): the
first call dispatched after a poisoning -- whoever sends it -- heals the
device before any executor sees it, so innocent tenants never observe a
failed call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.device import FAULT_KINDS, GpuDevice
from repro.gpu.errors import DeviceFaultError
from repro.gpu.stream import DEFAULT_STREAM
from repro.gpu.watchdog import COOPERATIVE_HANGS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cricket.server import CricketServer

#: fault origins the ladder is allowed to heal automatically
AUTO_HEAL_ORIGINS = frozenset({"sanitizer", "watchdog"})


class RecoveryLadder:
    """Climbs the escalation ladder for one Cricket server's devices.

    ``PREEMPT_THROTTLE`` / ``PREEMPT_ECC_EVENTS`` are the soft-telemetry
    thresholds of the preemptive rung: a device throttled to at least the
    multiplier, or with that many accrued correctable ECC events, is
    failed over to a spare before it hard-fails.
    """

    #: throttle multiplier at which a device is preempted
    PREEMPT_THROTTLE = 2.0
    #: accrued correctable ECC events at which a device is preempted
    PREEMPT_ECC_EVENTS = 32

    def __init__(self, server: "CricketServer") -> None:
        self._server = server

    # -- entry points --------------------------------------------------------

    def needs_heal(self) -> bool:
        """Cheap check: is there anything for the ladder to do?"""
        for ordinal, device in enumerate(self._server.devices):
            if device.fault is not None and device.fault.origin in AUTO_HEAL_ORIGINS:
                return True
            if device.streams.hung_streams():
                return True
            if self._should_preempt(ordinal, device):
                return True
        return False

    def heal(self) -> None:
        """Run every applicable rung; caller holds the dispatch lock."""
        for ordinal, device in enumerate(self._server.devices):
            self._heal_streams(ordinal, device)
            fault = device.fault
            if fault is not None and fault.origin in AUTO_HEAL_ORIGINS:
                self._heal_fault(ordinal, device, fault)
            elif fault is None and self._should_preempt(ordinal, device):
                self._preempt(ordinal)

    # -- rung 0: preemptive failover off degraded silicon --------------------

    def _degraded_past_threshold(self, device: GpuDevice) -> bool:
        return (
            device.throttle_multiplier >= self.PREEMPT_THROTTLE
            or device.correctable_ecc_events >= self.PREEMPT_ECC_EVENTS
        )

    def _should_preempt(self, ordinal: int, device: GpuDevice) -> bool:
        """Degraded past thresholds *and* somewhere clean to go?

        Without a spare there is nothing for the ladder to do -- the
        brownout controller absorbs the slowness instead -- so a
        spare-less degraded device must not keep ``needs_heal`` true.
        """
        if device.fault is not None or not self._degraded_past_threshold(device):
            return False
        return self._server._find_spare(ordinal) is not None

    def _preempt(self, ordinal: int) -> None:
        server = self._server
        spare = server._find_spare(ordinal)
        if spare is None:
            return  # the spare vanished between check and heal
        # Rung 0: same mechanics as rung 4, but *before* the hard fault --
        # every tenant's pointers and handles survive, nobody saw an error.
        server._failover_device_locked(ordinal, spare)
        server.server_stats.ladder_preemptive_failovers += 1

    # -- rungs 1-2: stream-level recovery ------------------------------------

    def _heal_streams(self, ordinal: int, device: GpuDevice) -> None:
        stats = self._server.server_stats
        now = self._server.clock.now_ns
        for stream in device.streams.hung_streams():
            stats.watchdog_hangs += 1
            if stream.hang in COOPERATIVE_HANGS:
                # Rung 1: the kernel still answers the driver; cancel it.
                stream.hang = None
                stream.tail_ns = min(stream.tail_ns, now)
                stats.ladder_cooperative_cancels += 1
            elif stream.handle != DEFAULT_STREAM:
                # Rung 2: execution engine unresponsive; abort the stream.
                # The handle stays valid (clients may still hold it) but
                # everything queued on it is discarded.
                stream.hang = None
                stream.tail_ns = min(stream.tail_ns, now)
                stats.ladder_stream_aborts += 1
            else:
                # A fused hang on the un-abortable default stream is a
                # context-level casualty: clear the marker (the recovery
                # below restarts the execution engines) and escalate
                # through the sticky-fault rungs.
                stream.hang = None
                stream.tail_ns = min(stream.tail_ns, now)
                if device.fault is None:
                    device.fault = DeviceFaultError(
                        "context",
                        FAULT_KINDS["context"],
                        origin="watchdog",
                        culprit=self._stream_owner(ordinal, stream.handle),
                    )

    # -- rungs 3-5: context-level recovery -----------------------------------

    def _heal_fault(
        self, ordinal: int, device: GpuDevice, fault: DeviceFaultError
    ) -> None:
        server = self._server
        stats = server.server_stats
        culprit = fault.culprit
        bystanders = self._owners_on(ordinal) - ({culprit} if culprit else set())
        if not bystanders:
            # Rung 3: nobody to protect -- reset the context outright.
            device.reset()
            server.sessions.drop_device(ordinal)
            stats.ladder_context_resets += 1
            return
        spare = server._find_spare(ordinal)
        if spare is not None:
            # Rung 4: migrate everyone's state onto the spare; pointers,
            # handles and ordinals all survive, the fault does not.
            server._failover_device_locked(ordinal, spare)
            stats.ladder_device_failovers += 1
            return
        # Rung 5: no spare, co-tenants present.  Reclaim the culprit's
        # session, then salvage the survivors CRAC-style: snapshot the
        # (intact) memory image, reset the poisoned context, restore.
        # With no culprit attributed (e.g. a fused hang on the ownerless
        # default stream), everyone is a bystander: the salvage runs
        # without evicting anyone and counts as a context-level recovery.
        reclaimed = False
        if culprit:
            session = server.sessions.lookup(culprit)
            if session is not None:
                server.release_ledger(session.ledger)
                server.sessions.evict(culprit)
                reclaimed = True
        saved_streams = device.streams
        device.restore(device.snapshot())
        device.streams = saved_streams
        if reclaimed:
            stats.ladder_session_reclaims += 1
        else:
            stats.ladder_context_resets += 1

    # -- attribution helpers -------------------------------------------------

    def _owners_on(self, ordinal: int) -> set[str]:
        """Identities holding any ledger resource on device ``ordinal``."""
        return {
            session.identity
            for session in self._server.sessions.sessions()
            if session.ledger.entries_on(ordinal)
        }

    def _stream_owner(self, ordinal: int, handle: int) -> str:
        """Identity owning stream ``handle`` on ``ordinal`` ("" if unknown)."""
        for session in self._server.sessions.sessions():
            if session.ledger.tables["streams"].get(handle) == ordinal:
                return session.identity
        return ""
