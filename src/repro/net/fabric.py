"""Cluster nodes: one machine's GPU presence and host copy rate.

The platform presets (:mod:`repro.unikernel.presets`) describe the
paper's application and GPU nodes with it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class Node:
    """One machine in the cluster."""

    name: str
    #: whether physical GPUs are installed (GPU node vs. application node)
    has_gpu: bool = False
    #: single-core effective copy/checksum rate, bytes/s (host CPU bound)
    core_copy_rate_Bps: float = 3.2e9

    def __post_init__(self) -> None:
        if self.core_copy_rate_Bps <= 0:
            raise ValueError("core copy rate must be positive")
