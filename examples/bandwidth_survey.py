#!/usr/bin/env python3
"""Bandwidth survey: Figure 7 plus the transfer-method ablation.

Measures RPC-argument transfer bandwidth on every Table 1 platform (a
reduced-size Figure 7), then compares Cricket's four transfer methods and
shows why unikernels are stuck with the slowest one.

Run:  python examples/bandwidth_survey.py
"""

from repro import GpuSession, SessionConfig
from repro.apps import bandwidth
from repro.harness.ablation import run_transfer_method_comparison
from repro.unikernel import table1_platforms

MIB = 1 << 20
SIZE = 128 * MIB


def main() -> None:
    print(f"=== RPC-argument transfers, {SIZE // MIB} MiB (Figure 7) ===")
    baseline = None
    for platform in table1_platforms():
        config = SessionConfig(platform=platform, execute=False,
                               device_mem_bytes=SIZE + 64 * MIB)
        with GpuSession(config) as session:
            result = bandwidth.run(session, transfer_bytes=SIZE, verify=False)
        if platform.name == "Rust":
            baseline = result
        rel_h2d = result.h2d_MiBps / baseline.h2d_MiBps if baseline else 1.0
        print(f"  {platform.name:<10} D2H {result.d2h_MiBps:8.1f} MiB/s   "
              f"H2D {result.h2d_MiBps:8.1f} MiB/s  ({rel_h2d:5.1%} of native)")

    print()
    print(run_transfer_method_comparison(nbytes=SIZE).render())
    print("\nunikernels lack InfiniBand drivers and host shared memory, so the")
    print("whole evaluation runs over single-threaded RPC-argument transfers.")


if __name__ == "__main__":
    main()
