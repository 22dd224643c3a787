"""Guest network-stack cost model.

Computes the *CPU time a guest spends* to transmit or receive a message of
``n`` bytes, from the mechanisms the paper holds responsible for the
observed platform differences (§4.2):

* a fixed per-operation entry cost (socket syscall + kernel path on Linux;
  a plain function call in a single-address-space unikernel -- "no classic
  context switches within the guest are necessary"),
* internal buffer copies (the paper reduced RustyHermit's copies; fractional
  values express partial-path copies such as ring-buffer staging),
* software checksumming when the virtio checksum offload is not negotiated,
* per-segment streaming costs when TCP segmentation offload is absent: the
  guest cuts MTU-sized segments itself and pays protocol processing,
  notification and ACK-handling per segment instead of per 64 KiB chunk,
* virtio kick (tx) / interrupt (rx) and descriptor costs for virtualized
  configurations,
* a receive-side inefficiency factor -- the paper measures that reading
  from the network degrades much more than writing ("significant
  inefficiencies when reading from the network").

The *first* segment's processing is folded into the entry cost so that
small-message latency (Figure 6) and bulk throughput (Figure 7) are
controlled by separate, independently calibratable parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.net.link import LinkModel
from repro.unikernel.virtio import VirtioCosts, VirtioFeatures

#: Software checksum throughput on one EPYC-class core, bytes/s.
CSUM_RATE_BPS = 4.5e9

#: Chunk size handed to the device per operation when TSO is available.
TSO_CHUNK = 65536


@dataclass(frozen=True)
class NetstackModel:
    """Parameters of one guest network stack."""

    name: str
    #: fixed cost to enter the stack and emit one message (tx), seconds
    tx_entry_s: float
    #: fixed cost to deliver one message to the application (rx), seconds
    rx_entry_s: float
    #: payload copies on the transmit path (fractional = partial-path copy)
    tx_copies: float
    #: payload copies on the receive path
    rx_copies: float
    #: single-core copy throughput, bytes/s
    copy_rate_Bps: float
    #: per tx segment on *sustained bulk* flows: protocol processing,
    #: device notification and ACK-stall handling once send buffers and the
    #: TCP window are exhausted, seconds
    tx_segment_s: float
    #: per rx wire segment on sustained bulk flows, seconds
    rx_segment_s: float
    #: multiplier on receive-side per-byte work (>= 1.0)
    rx_inefficiency: float = 1.0
    #: bytes a flow may move before per-segment bulk penalties apply
    #: (models TCP window growth / socket buffering; 0 = from the second
    #: chunk onwards).  Messages smaller than this -- e.g. the ~6.5 MiB
    #: matrices of cuSolverDn_LinearSolver -- ride the window without
    #: stalling, which is how the paper's Hermit shows only ~27 % overhead
    #: on the most transfer-heavy application while collapsing to ~10 % on
    #: the 512 MiB bandwidthTest streams.
    bulk_threshold_bytes: int = 0
    #: virtio features; ``None`` for bare-metal (real NIC with full offloads)
    virtio: VirtioFeatures | None = None
    virtio_costs: VirtioCosts = field(default_factory=VirtioCosts)

    # -- feature helpers ------------------------------------------------------

    def _tso(self) -> bool:
        return True if self.virtio is None else self.virtio.host_tso4

    def _tx_csum_offload(self) -> bool:
        return True if self.virtio is None else self.virtio.csum

    def _rx_csum_offload(self) -> bool:
        return True if self.virtio is None else self.virtio.guest_csum

    def _sg(self) -> bool:
        return True if self.virtio is None else self.virtio.sg

    def tx_chunk_bytes(self, link: LinkModel) -> int:
        """Bytes handed to the device per tx operation (TSO chunk or MTU)."""
        return TSO_CHUNK if self._tso() else link.mtu - 40

    # -- main costs -------------------------------------------------------------

    def tx_time_s(self, nbytes: int, link: LinkModel) -> float:
        """Guest CPU time to transmit one ``nbytes`` message."""
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        copies = self.tx_copies + (0.0 if self._sg() else 0.6)
        per_byte = copies / self.copy_rate_Bps
        if not self._tx_csum_offload():
            per_byte += 1.0 / CSUM_RATE_BPS
        chunk = self.tx_chunk_bytes(link)
        chunks = max(1, -(-nbytes // chunk))
        free_chunks = max(1, self.bulk_threshold_bytes // chunk)
        penalized = max(0, chunks - free_chunks)
        cost = self.tx_entry_s + nbytes * per_byte + penalized * self.tx_segment_s
        if self.virtio is not None:
            cost += self.virtio_costs.kick_s
            cost += chunks * self.virtio_costs.descriptor_s
        return cost

    def rx_time_s(self, nbytes: int, link: LinkModel) -> float:
        """Guest CPU time to receive one ``nbytes`` message."""
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        per_byte = self.rx_copies / self.copy_rate_Bps
        if not self._rx_csum_offload():
            per_byte += 1.0 / CSUM_RATE_BPS
        per_byte *= self.rx_inefficiency
        segments = link.segments(nbytes)
        segment_cost = self.rx_segment_s
        if self.virtio is not None and not self.virtio.mrg_rxbuf:
            segment_cost *= 2.0  # one rx buffer per packet, extra recycling
        free_segments = max(1, self.bulk_threshold_bytes // max(1, link.mtu - 40))
        penalized = max(0, segments - free_segments)
        cost = self.rx_entry_s + nbytes * per_byte + penalized * segment_cost
        if self.virtio is not None:
            cost += self.virtio_costs.irq_s
            cost += max(1, segments // 8) * self.virtio_costs.descriptor_s
        return cost

    # -- compiled costs -----------------------------------------------------------
    #
    # The lines below are tx_time_s / rx_time_s with every term that does not
    # depend on ``nbytes`` worked out once: the same expressions in the same
    # order, so the same float.  ``max(1, c)`` becomes ``c or 1``, which is
    # the same for the counts here (``nbytes`` has been checked not to be
    # negative, so a count is 0 only for an empty message).

    def tx_source(self, link: LinkModel, out: str) -> list[str]:
        """Source lines assigning ``tx_time_s(nbytes, link)`` to ``out``."""
        copies = self.tx_copies + (0.0 if self._sg() else 0.6)
        per_byte = copies / self.copy_rate_Bps
        if not self._tx_csum_offload():
            per_byte += 1.0 / CSUM_RATE_BPS
        chunk = self.tx_chunk_bytes(link)
        free = max(1, self.bulk_threshold_bytes // chunk)
        chunks = f"{out}_chunks"
        lines = [
            f"{chunks} = -(-nbytes // {chunk!r}) or 1",
            f"{out} = {self.tx_entry_s!r} + nbytes * {per_byte!r}"
            f" + ({chunks} - {free!r} if {chunks} > {free!r} else 0) * {self.tx_segment_s!r}",
        ]
        if self.virtio is not None:
            lines.append(f"{out} += {self.virtio_costs.kick_s!r}")
            lines.append(f"{out} += {chunks} * {self.virtio_costs.descriptor_s!r}")
        return lines

    def rx_source(self, link: LinkModel, out: str) -> list[str]:
        """Source lines assigning ``rx_time_s(nbytes, link)`` to ``out``."""
        per_byte = self.rx_copies / self.copy_rate_Bps
        if not self._rx_csum_offload():
            per_byte += 1.0 / CSUM_RATE_BPS
        per_byte *= self.rx_inefficiency
        segment_cost = self.rx_segment_s
        if self.virtio is not None and not self.virtio.mrg_rxbuf:
            segment_cost *= 2.0
        free = max(1, self.bulk_threshold_bytes // max(1, link.mtu - 40))
        segments = f"{out}_segments"
        lines = [
            f"{segments} = -(-nbytes // {link.mtu - 40!r}) or 1",  # link.segments
            f"{out} = {self.rx_entry_s!r} + nbytes * {per_byte!r}"
            f" + ({segments} - {free!r} if {segments} > {free!r} else 0) * {segment_cost!r}",
        ]
        if self.virtio is not None:
            lines.append(f"{out} += {self.virtio_costs.irq_s!r}")
            lines.append(f"{out} += ({segments} // 8 or 1) * {self.virtio_costs.descriptor_s!r}")
        return lines

    def effective_tx_rate_Bps(self, link: LinkModel, nbytes: int = 64 << 20) -> float:
        """Asymptotic transmit throughput of this stack (ignoring the wire)."""
        return nbytes / self.tx_time_s(nbytes, link)

    def with_virtio(self, features: VirtioFeatures) -> "NetstackModel":
        """Copy of this stack with different negotiated virtio features."""
        return replace(self, virtio=features)
