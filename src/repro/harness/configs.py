"""Table 1: the evaluated configurations.

The paper evaluates five client configurations against the same Cricket
server on the GPU node.  :func:`table1` renders the table; the platform
objects themselves come from :mod:`repro.unikernel.presets`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.harness.runner import make_session
from repro.unikernel.platform import Platform
from repro.unikernel.presets import table1_platforms


@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    name: str
    app_language: str
    os_name: str
    hypervisor: str
    network: str


def table1_rows() -> list[Table1Row]:
    """The five configurations, in the paper's order."""
    return [
        Table1Row(
            name=p.name,
            app_language=p.language.name,
            os_name=p.os_name,
            hypervisor=p.hypervisor or "-",
            network=p.network,
        )
        for p in table1_platforms()
    ]


def table1(rows: list[Table1Row] | None = None) -> str:
    """Render Table 1 as text."""
    rows = table1_rows() if rows is None else rows
    header = f"{'Name':<10} {'app.':<6} {'OS':<12} {'Hypervisor':<10} {'Network':<8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<10} {r.app_language:<6} {r.os_name:<12} "
            f"{r.hypervisor:<10} {r.network:<8}"
        )
    return "\n".join(lines)


@dataclass
class Table1Result:
    """Table 1's rows, and how many GPUs each configuration sees."""

    rows: list[Table1Row] = field(default_factory=list)
    #: configuration name -> ``cudaGetDeviceCount`` through its session
    device_counts: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        """Render the table (the device counts feed the claims only)."""
        return table1(self.rows)


def run_table1() -> Table1Result:
    """Table 1, with every configuration completing a call to the GPU."""
    result = Table1Result(rows=table1_rows())
    for platform in table1_platforms():
        with make_session(platform) as session:
            result.device_counts[platform.name] = session.client.get_device_count()
    return result


#: Paper values of Table 1 for verification.
PAPER_TABLE1 = [
    ("C", "C", "Rocky Linux", "-", "native"),
    ("Rust", "Rust", "Rocky Linux", "-", "native"),
    ("Linux VM", "Rust", "Fedora VM", "QEMU", "virtio"),
    ("Unikraft", "Rust", "Unikraft", "QEMU", "virtio"),
    ("Hermit", "Rust", "Hermit", "QEMU", "virtio"),
]


def eval_platforms() -> list[Platform]:
    """Platforms used by every figure run (Table 1 order)."""
    return table1_platforms()


def workload_scale() -> int:
    """Iteration-count divisor for figure runs.

    The paper's full workloads (100 000 iterations etc.) run in simulated
    time but still cost real CPU for the RPC path.  By default figures run
    at 1/10 scale and extrapolate the (exactly linear) loop portion; set
    ``REPRO_FULL_SCALE=1`` to run the paper's full counts.
    """
    return 1 if os.environ.get("REPRO_FULL_SCALE") == "1" else 10
