"""Calibrated platform presets: the five configurations of Table 1.

Every constant in this file is a *calibration parameter* of the
reproduction, anchored to the mechanisms and ratios the paper reports (see
DESIGN.md §5):

* **C / Rust native** (Rocky Linux, no hypervisor, kernel TCP on the real
  NIC): one payload copy per direction, full hardware offloads.
* **Linux VM** (Fedora guest under QEMU/KVM, virtio-net with all offloads
  negotiated): guest-kernel syscall/softirq entry costs plus VM-exit and
  interrupt-injection costs; retains >= 80 % of native bulk bandwidth but
  pays the largest per-call latency (Figure 6).
* **Unikraft** (lwIP): cheap entries (single address space) but no checksum
  offload (paper footnote 4), lwIP per-segment processing, several internal
  copies.
* **RustyHermit** (smoltcp, with the paper's improvements: CSUM,
  GUEST_CSUM and MRG_RXBUF negotiated, fewer internal copies): the best
  virtualized per-call latency, but no TSO and expensive per-segment
  streaming -- reproducing the ~10 % bulk bandwidth of Figure 7.

Absolute values are plausible for EPYC-7301-class cores; only the resulting
*ratios* carry scientific weight.  The ones the paper reports are rows of
the claims table (:mod:`repro.harness.claims`), which ``python -m
repro.harness`` checks and writes to ``results/claims.txt``.
"""

from __future__ import annotations

from repro.net.link import LinkModel
from repro.unikernel.language import C_PROFILE, RUST_PROFILE
from repro.unikernel.netstack import NetstackModel
from repro.unikernel.platform import Platform, RpcPathModel
from repro.unikernel.virtio import VirtioCosts, VirtioFeatures

#: The evaluation link: 100 Gbit/s Ethernet (IPoIB, ConnectX-5), MTU 9000.
#: One-way latency ~5 us is typical for IPoIB through one switch.
EVAL_LINK = LinkModel(name="100GbE-IPoIB", line_rate_bps=100e9, latency_s=5e-6, mtu=9000)

# ---------------------------------------------------------------------------
# Network stacks
# ---------------------------------------------------------------------------

#: Bare-metal Linux on the real NIC: the client stack of the native
#: configurations and the server stack of the GPU node in *all*
#: configurations.
NATIVE_STACK = NetstackModel(
    name="linux-native",
    tx_entry_s=1.4e-6,
    rx_entry_s=1.9e-6,
    tx_copies=1.0,
    rx_copies=1.0,
    copy_rate_Bps=5.0e9,
    tx_segment_s=0.5e-6,   # per 64 KiB TSO chunk
    rx_segment_s=0.08e-6,  # GRO amortizes per-wire-segment work
    rx_inefficiency=1.0,
    virtio=None,
)

#: Fedora guest under QEMU/KVM with every virtio-net offload negotiated.
LINUX_VM_STACK = NetstackModel(
    name="linux-vm-virtio",
    tx_entry_s=5.0e-6,
    rx_entry_s=11.0e-6,
    tx_copies=1.4,
    rx_copies=1.3,
    copy_rate_Bps=4.5e9,
    tx_segment_s=0.6e-6,
    rx_segment_s=0.10e-6,
    rx_inefficiency=1.05,
    virtio=VirtioFeatures(),  # all offloads on
    virtio_costs=VirtioCosts(kick_s=12e-6, irq_s=18e-6, descriptor_s=0.3e-6),
)

#: Unikraft with lwIP: no syscall boundary, but no checksum offload and
#: lwIP's per-segment processing; several internal copies.
UNIKRAFT_STACK = NetstackModel(
    name="unikraft-lwip",
    tx_entry_s=1.2e-6,
    rx_entry_s=1.8e-6,
    # lwIP folds checksumming into its copy pass (copy-and-checksum), so the
    # explicit software-checksum term below carries most of the per-byte cost
    # and the residual copy term stays below one full pass.
    tx_copies=0.85,
    rx_copies=0.9,
    copy_rate_Bps=4.0e9,
    tx_segment_s=11.5e-6,
    rx_segment_s=8.0e-6,
    rx_inefficiency=1.8,
    bulk_threshold_bytes=8 << 20,
    virtio=VirtioFeatures(csum=False, guest_csum=False, host_tso4=False, mrg_rxbuf=True, sg=True),
    virtio_costs=VirtioCosts(kick_s=10e-6, irq_s=12e-6, descriptor_s=0.3e-6),
)

#: RustyHermit with smoltcp, including this paper's improvements:
#: CSUM/GUEST_CSUM and MRG_RXBUF negotiated, fewer internal copies.
HERMIT_STACK = NetstackModel(
    name="hermit-smoltcp",
    tx_entry_s=0.7e-6,
    rx_entry_s=1.1e-6,
    tx_copies=1.1,
    rx_copies=1.2,
    copy_rate_Bps=4.0e9,
    tx_segment_s=38.0e-6,  # per-packet processing + ACK stalls past the window
    rx_segment_s=16.0e-6,
    rx_inefficiency=2.3,
    bulk_threshold_bytes=8 << 20,
    virtio=VirtioFeatures(csum=True, guest_csum=True, host_tso4=False, mrg_rxbuf=True, sg=True),
    virtio_costs=VirtioCosts(kick_s=10e-6, irq_s=13e-6, descriptor_s=0.25e-6),
)

# ---------------------------------------------------------------------------
# Platforms (rows of Table 1)
# ---------------------------------------------------------------------------


def native_c() -> Platform:
    """C application, Rocky Linux, no hypervisor, native network."""
    return Platform("C", "Rocky Linux", None, "native", NATIVE_STACK, C_PROFILE)


def native_rust() -> Platform:
    """Rust application, Rocky Linux, no hypervisor, native network."""
    return Platform("Rust", "Rocky Linux", None, "native", NATIVE_STACK, RUST_PROFILE)


def linux_vm(*, offloads: bool = True) -> Platform:
    """Rust application in a Fedora VM under QEMU with virtio networking.

    ``offloads=False`` reproduces the paper's ablation: TSO, transmit
    checksum offload and scatter-gather disabled (§4.2's 923.9 MiB/s
    observation).
    """
    stack = LINUX_VM_STACK
    if not offloads:
        stack = stack.with_virtio(
            VirtioFeatures(csum=False, guest_csum=True, host_tso4=False, mrg_rxbuf=True, sg=False)
        )
    return Platform("Linux VM", "Fedora VM", "QEMU", "virtio", stack, RUST_PROFILE)


def unikraft() -> Platform:
    """Rust application in a Unikraft unikernel under QEMU."""
    return Platform("Unikraft", "Unikraft", "QEMU", "virtio", UNIKRAFT_STACK, RUST_PROFILE)


def rustyhermit() -> Platform:
    """Rust application in a RustyHermit unikernel under QEMU."""
    return Platform("Hermit", "Hermit", "QEMU", "virtio", HERMIT_STACK, RUST_PROFILE)


def table1_platforms() -> list[Platform]:
    """The five evaluated configurations, in the paper's row order."""
    return [native_c(), native_rust(), linux_vm(), unikraft(), rustyhermit()]


def path_for(platform: Platform, link: LinkModel = EVAL_LINK) -> RpcPathModel:
    """RPC path from ``platform``'s node to the (native Linux) GPU node."""
    return RpcPathModel(client=platform, link=link, server_stack=NATIVE_STACK)


#: Per-RPC CPU cost of the Cricket server's dispatch loop (rpcgen skeleton,
#: argument demarshalling, CUDA call issue) on a GPU-node core.
CRICKET_SERVER_DISPATCH_S = 2.0e-6


# ---------------------------------------------------------------------------
# Outlook configurations (the paper's §5 future work)
# ---------------------------------------------------------------------------


def rustyhermit_with_tso() -> Platform:
    """RustyHermit with TCP segmentation offload negotiated.

    The conclusion: "For both, RustyHermit and Unikraft, there are ongoing
    efforts to support TCP segmentation offloading, which we expect to
    increase performance significantly."  Flipping ``HOST_TSO4`` hands
    64 KiB chunks to the device instead of MTU-sized segments, so the
    per-segment streaming cost amortizes ~7x better -- the projection
    falls out of the same mechanistic model used everywhere else.
    """
    stack = HERMIT_STACK.with_virtio(
        VirtioFeatures(csum=True, guest_csum=True, host_tso4=True, mrg_rxbuf=True, sg=True)
    )
    return Platform("Hermit+TSO", "Hermit", "QEMU", "virtio", stack, RUST_PROFILE)


def unikraft_with_csum_offload() -> Platform:
    """Unikraft with the proposed checksum offload (paper footnote 4).

    Models https://github.com/unikraft/lib-lwip/pull/12 being merged:
    software checksumming leaves the per-byte path.
    """
    stack = UNIKRAFT_STACK.with_virtio(
        VirtioFeatures(csum=True, guest_csum=True, host_tso4=False, mrg_rxbuf=True, sg=True)
    )
    return Platform("Unikraft+CSUM", "Unikraft", "QEMU", "virtio", stack, RUST_PROFILE)


def rustyhermit_vdpa() -> Platform:
    """RustyHermit over vDPA (virtio data path acceleration).

    The paper's other outlook: "vDPA ... removes the virtualization
    overhead from the data path by allowing direct access to hardware
    queues for VMs and unikernels."  Modelled as near-zero kick/interrupt
    costs (hardware doorbells, no VM exits on the data path) on the
    otherwise unchanged RustyHermit stack.
    """
    from dataclasses import replace as _replace

    stack = _replace(
        HERMIT_STACK,
        virtio_costs=VirtioCosts(kick_s=0.8e-6, irq_s=1.2e-6, descriptor_s=0.15e-6),
    )
    return Platform("Hermit+vDPA", "Hermit", "QEMU", "virtio", stack, RUST_PROFILE)
