"""The paper's claims as one checked table.

Every quantitative statement the reproduction makes about its artifacts
is a :class:`Claim` row: the artifact it reads, the quantity, the relation
and tolerance it must satisfy, the sentence it checks and its kind:

* ``paper`` -- the paper's evaluation (Table 1, Figures 5-7, §4.2): a
  sentence of the paper, or a cell EXPERIMENTS.md reports for it;
* ``analysis`` -- the analyses beyond the paper (§5 outlook, launch
  batching, cost breakdown, shmoo, scaling, compute-bound);
* ``deviation`` -- where the measurement knowingly departs from the
  paper; the row pins the measured value and its quote names the cause.

A full ``python -m repro.harness`` run measures every row on the results
it just computed and writes ``results/claims.txt``: one line per row with
the value and the verdict.  A value is recorded to six significant digits
and the verdict is taken on the recorded value, so re-evaluating
:data:`CLAIMS` against the committed file (what the tier-1 test does, with
no harness run) reaches the same verdicts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.harness.configs import PAPER_TABLE1
from repro.harness.figure6 import PAPER_CALLS
from repro.harness.report import render_table

Value = float | str

#: relation name -> test of (value, bound); "in" is an open interval and
#: "~" a (target, relative tolerance) pair, both strict
RELATIONS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "in": lambda value, bound: bound[0] < value < bound[1],
    "~": lambda value, bound: abs(value - bound[0]) < bound[1] * abs(bound[0]),
}

KINDS = ("paper", "analysis", "deviation")


@dataclass(frozen=True)
class Claim:
    """One checked statement about one artifact."""

    id: str
    #: key of the artifact in ``repro.harness.__main__.ARTIFACTS``
    artifact: str
    quantity: str
    #: the quantity, computed from the artifact's result
    measure: Callable[[Any], Value]
    relation: str
    bound: Value | tuple[float, float]
    kind: str
    #: the sentence it checks, as EXPERIMENTS.md / DESIGN.md §4 quote it
    quote: str

    def holds(self, value: Value) -> bool:
        """Whether ``value`` satisfies the relation."""
        return RELATIONS[self.relation](value, self.bound)

    def relation_text(self) -> str:
        """The relation as written in ``claims.txt``."""
        if self.relation == "in":
            return f"in ({self.bound[0]:g}, {self.bound[1]:g})"
        if self.relation == "~":
            return f"~ {self.bound[0]:g} +-{100 * self.bound[1]:g}%"
        bound = self.bound if isinstance(self.bound, str) else f"{self.bound:g}"
        return f"{self.relation} {bound}"


def format_value(value: Value) -> str:
    """A value as ``claims.txt`` records it (six significant digits)."""
    return value if isinstance(value, str) else f"{value:.6g}"


def parse_value(text: str) -> Value:
    """Inverse of :func:`format_value`."""
    try:
        return float(text)
    except ValueError:
        return text


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _slug(platform: str) -> str:
    """A platform's name as row ids spell it."""
    return "VM" if platform == "Linux VM" else platform


CLAIMS: list[Claim] = []


def _claim(id, artifact, quantity, measure, relation, bound, quote, kind="paper"):
    CLAIMS.append(Claim(id, artifact, quantity, measure, relation, bound, kind, quote))


# -- Table 1 -------------------------------------------------------------------

_T1 = "Table 1 reproduced exactly, cell for cell"
_T1_COLUMNS = ("name", "app_language", "os_name", "hypervisor", "network")
_claim("table1.rows", "table1", "configurations", lambda r: len(r.rows), "==", 5, _T1)
for _i, _paper_row in enumerate(PAPER_TABLE1):
    _name = _paper_row[0]
    for _column, _cell in zip(_T1_COLUMNS, _paper_row):
        _claim(
            f"table1.{_slug(_name)}.{_column}", "table1", f"row {_i + 1}, {_column}",
            lambda r, i=_i, c=_column: getattr(r.rows[i], c), "==", _cell, _T1,
        )
    _claim(
        f"table1.{_slug(_name)}.devices", "table1", f"{_name}: cudaGetDeviceCount",
        lambda r, n=_name: r.device_counts[n], "==", 1,
        "each configuration completes CUDA calls end-to-end",
    )

# -- Figure 5 ------------------------------------------------------------------

_MM, _LS, _HIST = "matrixMul", "cuSolverDn_LinearSolver", "histogram"


def _f5(app: str, platform: str, baseline: str) -> Callable[[Any], float]:
    return lambda r: r.seconds(app, platform) / r.seconds(app, baseline)


def _ex_init(r, platform: str) -> float:
    t = r.times[_HIST][platform]
    return t.paper_scale_s - t.init_s


_DOUBLE = 'unikernels need "more than double" the native time'
_VM_WORSE = "unikernels perform similar or better than the Linux VM on the latency-bound apps"


def _latency_bound(sub: str, app: str) -> None:
    _claim(f"{sub}.hermit_vs_rust", "fig5", f"{app}: Hermit / Rust",
           _f5(app, "Hermit", "Rust"), ">", 2.0, _DOUBLE)
    _claim(f"{sub}.hermit_vs_vm", "fig5", f"{app}: Hermit / Linux VM",
           _f5(app, "Hermit", "Linux VM"), "<=", 1.0, _VM_WORSE)
    _claim(f"{sub}.unikraft_vs_vm", "fig5", f"{app}: Unikraft / Linux VM",
           _f5(app, "Unikraft", "Linux VM"), "<=", 1.0, _VM_WORSE)


_latency_bound("fig5a", _MM)
_claim("fig5a.hermit_vs_unikraft", "fig5", "matrixMul: Hermit / Unikraft",
       _f5(_MM, "Hermit", "Unikraft"), "<=", 1.0, "Fig 5: Hermit <= Unikraft <= Linux VM")
_claim("fig5a.c_vs_rust", "fig5", "matrixMul: C / Rust", _f5(_MM, "C", "Rust"),
       "in", (0.92, 1.08), '"only minor differences" C vs Rust (launch-path delta, cf. Fig 6c)')
_claim("fig5b.hermit_overhead", "fig5", "cuSolver: Hermit / Rust - 1",
       lambda r: r.overhead(_LS, "Hermit"), "in", (0.15, 0.40),
       'Hermit has "only approx. 26.6 % overhead" on cuSolverDn_LinearSolver')
_claim("fig5b.hermit_vs_vm", "fig5", "cuSolver: Hermit / Linux VM",
       _f5(_LS, "Hermit", "Linux VM"), "<", 1.0, "Fig 5b: Hermit beats the Linux VM")
_claim("fig5b.c_vs_rust", "fig5", "cuSolver: C / Rust", _f5(_LS, "C", "Rust"),
       "in", (0.95, 1.05), "Fig 5b: C and Rust show minor differences")
for _other, _app in (("matrixmul", _MM), ("histogram", _HIST)):
    _claim(f"fig5b.overhead_vs_{_other}", "fig5", f"Hermit overhead: cuSolver / {_app}",
           lambda r, a=_app: r.overhead(_LS, "Hermit") / r.overhead(a, "Hermit"), "<", 1.0,
           "smallest overhead of the three applications despite the largest transfer volume")
_claim("fig5b.unikraft_vs_vm", "fig5", "cuSolver: Unikraft / Linux VM",
       _f5(_LS, "Unikraft", "Linux VM"), ">", 1.0,
       "Deviation 1: Unikraft is above the VM on Fig 5b -- its missing checksum offload is "
       "a per-byte cost this transfer-heavy app exposes, the VM's costs are per call",
       kind="deviation")
_claim("fig5b.calls_per_iteration", "fig5", "cuSolver: API calls per iteration",
       lambda r: r.times[_LS]["Rust"].api_calls / r.times[_LS]["Rust"].run_iterations,
       "in", (15.0, 25.0),
       "Deviation 2: ~17 vs the paper's ~20 calls per iteration -- the sample's exact "
       "per-iteration call list is not published",
       kind="deviation")
_latency_bound("fig5c", _HIST)
_claim("fig5c.rust_faster_total", "fig5", "histogram: C / Rust - 1",
       lambda r: r.overhead(_HIST, "C"), "in", (0.30, 0.45),
       "Rust histogram is 37.6 % faster than C in total")
_claim("fig5c.rust_faster_ex_init", "fig5", "histogram ex-init: C / Rust - 1",
       lambda r: _ex_init(r, "C") / _ex_init(r, "Rust") - 1, "~", (0.273, 0.05),
       "Rust histogram is 27.3 % faster than C excluding initialization")

# -- Figure 6 ------------------------------------------------------------------

_PLATFORMS = ("C", "Rust", "Linux VM", "Unikraft", "Hermit")


def _f6(bench: str, platform: str, baseline: str) -> Callable[[Any], float]:
    return lambda r: r.seconds(bench, platform) / r.seconds(bench, baseline)


def _vm_margin(bench: str) -> Callable[[Any], float]:
    others = [p for p in _PLATFORMS if p != "Linux VM"]
    return lambda r: r.seconds(bench, "Linux VM") / max(r.seconds(bench, p) for p in others)


for _sub, _bench in (
    ("fig6a", "cudaGetDeviceCount"), ("fig6b", "cudaMalloc/cudaFree"), ("fig6c", "kernel launch"),
):
    _claim(f"{_sub}.vm_slowest", "fig6", f"{_bench}: Linux VM / slowest other",
           _vm_margin(_bench), ">", 1.0, "the Linux VM requires the most time for every API")
    _claim(f"{_sub}.hermit_vs_unikraft", "fig6", f"{_bench}: Hermit / Unikraft",
           _f6(_bench, "Hermit", "Unikraft"), "<", 1.0,
           "RustyHermit shows the smallest virtualized overhead")
    _claim(f"{_sub}.unikraft_vs_vm", "fig6", f"{_bench}: Unikraft / Linux VM",
           _f6(_bench, "Unikraft", "Linux VM"), "<", 1.0,
           "RustyHermit shows the smallest virtualized overhead")
    _claim(f"{_sub}.hermit_vs_rust", "fig6", f"{_bench}: Hermit / Rust",
           _f6(_bench, "Hermit", "Rust"), ">", 2.0,
           "RustyHermit still needs more than double the native time")
_claim("fig6a.c_vs_rust", "fig6", "cudaGetDeviceCount: C / Rust",
       _f6("cudaGetDeviceCount", "C", "Rust"), "in", (0.97, 1.03),
       "Fig 6a: C and Rust nearly identical")
_claim("fig6b.malloc_vs_getdevicecount", "fig6", "Rust: cudaMalloc/cudaFree / cudaGetDeviceCount",
       lambda r: r.seconds("cudaMalloc/cudaFree", "Rust") / r.seconds("cudaGetDeviceCount", "Rust"),
       ">", 1.0, "allocations cost more than the trivial cudaGetDeviceCount (bookkeeping)")
_claim("fig6c.c_launch_overhead", "fig6", "kernel launch: C / Rust - 1",
       lambda r: r.ratio("kernel launch", "C") - 1, "in", (0.04, 0.09),
       "Rust kernel launches are ~6.3 % faster than C (the <<<...>>> compatibility logic)")
_claim("fig6a.native_call_us", "fig6", "Rust: us per cudaGetDeviceCount",
       lambda r: r.seconds("cudaGetDeviceCount", "Rust") / PAPER_CALLS * 1e6, "~", (20.0, 0.05),
       "Deviation 3: native per-call round trip ~20 us -- plausible for the testbed class, "
       "not calibrated to unpublished absolute values",
       kind="deviation")

# -- Figure 7 ------------------------------------------------------------------

LINE_RATE_MiBps = 100e9 / 8 / (1 << 20)


def _f7(direction: str, platform: str) -> Callable[[Any], float]:
    return lambda r: r.relative(direction, platform)


_claim("fig7.d2h.C", "fig7", "D2H: C / Rust", _f7("d2h", "C"), "~", (1.0, 0.02),
       "Fig 7a: C and Rust native are equivalent")
for _direction in ("d2h", "h2d"):
    _claim(f"fig7.{_direction}.VM", "fig7", f"{_direction.upper()}: Linux VM / Rust",
           _f7(_direction, "Linux VM"), ">=", 0.80,
           'the Linux VM "can retain at least 80 % of performance"')
for _direction, _platform in (("d2h", "Unikraft"), ("d2h", "Hermit"), ("h2d", "Unikraft")):
    _claim(f"fig7.{_direction}.{_platform}", "fig7", f"{_direction.upper()}: {_platform} / Rust",
           _f7(_direction, _platform), "<", 0.30, "both unikernels stay below 30 % of native")
_claim("fig7.h2d.Hermit", "fig7", "H2D: Hermit / Rust", _f7("h2d", "Hermit"), "in", (0.07, 0.13),
       '"RustyHermit can only reach approx. 9.8 % in one direction"')
_claim("fig7.hermit_d2h_vs_h2d", "fig7", "Hermit: relative D2H / relative H2D",
       lambda r: r.relative("d2h", "Hermit") / r.relative("h2d", "Hermit"), ">", 1.0,
       "RustyHermit's other direction is less degraded")
_claim("fig7.native_vs_line_rate", "fig7", "Rust H2D / 100 Gbit/s line rate",
       lambda r: r.h2d["Rust"] / LINE_RATE_MiBps, "<", 0.25,
       "single-threaded RPC-argument transfers are bound by single-core copy performance, "
       "not the wire")
_claim("fig7.native_h2d", "fig7", "Rust H2D MiB/s", lambda r: r.h2d["Rust"], ">", 1000.0,
       "native bandwidth still exceeds 1 GiB/s")
# the cells EXPERIMENTS.md reports, each within 5 % of the reported value
_claim("fig7.cell.h2d.C", "fig7", "H2D: C / Rust", _f7("h2d", "C"), "~", (1.0, 0.02),
       "Fig 7 table: C 100 % of native H2D")
for _direction, _platform, _reported in (
    ("d2h", "Linux VM", 0.830), ("h2d", "Linux VM", 0.820),
    ("d2h", "Unikraft", 0.266), ("h2d", "Unikraft", 0.260),
    ("d2h", "Hermit", 0.193),
):
    _claim(f"fig7.cell.{_direction}.{_slug(_platform)}", "fig7",
           f"{_direction.upper()}: {_platform} / Rust", _f7(_direction, _platform),
           "~", (_reported, 0.05),
           f"Fig 7 table: {_platform} {100 * _reported:.1f} % of native {_direction.upper()}")
_claim("fig7.cell.h2d.Hermit", "fig7", "H2D: Hermit / Rust", _f7("h2d", "Hermit"),
       "~", (0.111, 0.05),
       "Deviation 4: Hermit H2D 11.1 % vs the paper's 9.8 % -- the measured figure includes "
       "reply messages and record-marking overhead",
       kind="deviation")
_claim("fig7.cell.native", "fig7", "Rust H2D MiB/s", lambda r: r.h2d["Rust"],
       "~", (1782.0, 0.05),
       "Deviation 3: native bandwidth ~1 782 MiB/s -- plausible for the testbed class, "
       "not calibrated to unpublished absolute values",
       kind="deviation")

# -- §4.2 offload ablation and transfer methods --------------------------------

_ON, _OFF = "VM, offloads on", "VM, TSO/csum/SG off"


def _off_vs_on(direction: str) -> Callable[[Any], float]:
    return lambda r: getattr(r, direction)[_OFF] / getattr(r, direction)[_ON]


_claim("offloads.h2d_off", "offloads", "VM H2D MiB/s, TSO/csum/SG off", lambda r: r.h2d[_OFF],
       "~", (923.9, 0.15),
       'disabling the offloads reduces H2D "to approx. 923.9 MiB/s" (the one absolute anchor)')
_claim("offloads.h2d_off_vs_on", "offloads", "VM H2D: off / on", _off_vs_on("h2d"),
       "<", 0.75, "disabling the offloads costs more than 25 % of H2D")
_claim("offloads.d2h_off_vs_on", "offloads", "VM D2H: off / on", _off_vs_on("d2h"),
       ">", 0.9, 'D2H "is influenced much less"')
_claim("offloads.d2h_minus_h2d", "offloads", "D2H off/on - H2D off/on",
       lambda r: _off_vs_on("d2h")(r) - _off_vs_on("h2d")(r), ">", 0.2,
       "the receive direction is influenced much less than transmit")


def _method_ratio(faster: str, slower: str) -> Callable[[Any], float]:
    return lambda r: r.bandwidth_MiBps[faster] / r.bandwidth_MiBps[slower]


_ORDERING = "RPC arguments < parallel sockets < GPUDirect RDMA / shared memory"
_claim("methods.parallel_vs_rpc", "methods", "parallel sockets / RPC arguments",
       _method_ratio("parallel-sockets", "rpc-args"), ">", 1.0, _ORDERING)
_claim("methods.gpudirect_vs_parallel", "methods", "GPUDirect / parallel sockets",
       _method_ratio("ib-gpudirect", "parallel-sockets"), ">", 1.0, _ORDERING)
_claim("methods.shm_vs_parallel", "methods", "shared memory / parallel sockets",
       _method_ratio("shared-memory", "parallel-sockets"), ">", 1.0, _ORDERING)
for _method, _usable in (
    ("rpc-args", "yes"), ("parallel-sockets", "no"),
    ("ib-gpudirect", "no"), ("shared-memory", "no"),
):
    _claim(f"methods.{_method}.unikernels", "methods", f"{_method} usable from unikernels",
           lambda r, m=_method: _yes(r.supported_by_unikernels[m]), "==", _usable,
           "unikernels lack InfiniBand drivers and host shared memory: only RPC arguments work")
_claim("methods.gpudirect_vs_hw_limit", "methods", "GPUDirect / min(line rate, PCIe)",
       lambda r: r.bandwidth_MiBps["ib-gpudirect"] / min(LINE_RATE_MiBps, 26e9 / (1 << 20)),
       ">", 0.9, "GPUDirect removes the staging buffer and reaches hardware limits")

# -- §5 outlook ----------------------------------------------------------------


def _bw(name: str, baseline: str) -> Callable[[Any], float]:
    return lambda r: r.h2d_MiBps[name] / r.h2d_MiBps[baseline]


def _lat(name: str, baseline: str) -> Callable[[Any], float]:
    return lambda r: r.call_latency_us[name] / r.call_latency_us[baseline]


_TSO = 'TSO is "expected to increase performance significantly"'
_VDPA = "vDPA removes the data path's virtualization overhead"
_claim("outlook.tso_gain", "outlook", "H2D: Hermit+TSO / Hermit", _bw("Hermit+TSO", "Hermit"),
       ">", 3.0, _TSO, kind="analysis")
_claim("outlook.tso_vs_native", "outlook", "H2D: Hermit+TSO / Rust", _bw("Hermit+TSO", "Rust"),
       "<", 1.0, "the TSO projection stays below native (copies remain)", kind="analysis")
_claim("outlook.tso_latency", "outlook", "per-call latency: Hermit+TSO / Hermit",
       _lat("Hermit+TSO", "Hermit"), "~", (1.0, 0.02),
       "TSO does not change small-call latency", kind="analysis")
_claim("outlook.csum_gain", "outlook", "H2D: Unikraft+CSUM / Unikraft",
       _bw("Unikraft+CSUM", "Unikraft"), ">", 1.08,
       "checksum offload removes a per-byte cost from Unikraft's path", kind="analysis")
_claim("outlook.vdpa_vs_hermit", "outlook", "per-call latency: Hermit+vDPA / Hermit",
       _lat("Hermit+vDPA", "Hermit"), "<", 0.6, _VDPA, kind="analysis")
_claim("outlook.vdpa_vs_native", "outlook", "per-call latency: Hermit+vDPA / Rust",
       _lat("Hermit+vDPA", "Rust"), "in", (0.95, 1.10),
       "vDPA brings unikernel call latency within ~10 % of native, never below it",
       kind="analysis")

# -- launch batching -----------------------------------------------------------


def _gain(r, platform: str) -> float:
    sync, batched = r.latency_us[platform]
    return sync - batched


_BATCH = "ONC RPC batching reduces per-call overhead for communication-heavy apps (§5)"
for _platform in ("Rust", "Linux VM", "Unikraft", "Hermit"):
    _claim(f"batching.{_slug(_platform)}.batched_vs_sync", "batching",
           f"{_platform}: batched / synchronous launch latency",
           lambda r, p=_platform: r.latency_us[p][1] / r.latency_us[p][0], "<", 1.0, _BATCH,
           kind="analysis")
for _platform in ("Linux VM", "Hermit"):
    _claim(f"batching.{_slug(_platform)}.gain_vs_native", "batching",
           f"latency saved by batching: {_platform} / Rust",
           lambda r, p=_platform: _gain(r, p) / _gain(r, "Rust"), ">", 1.0,
           "virtualized platforms gain more absolute latency from batching than native",
           kind="analysis")
_claim("batching.hermit_vs_native_sync", "batching", "Hermit batched / Rust synchronous",
       lambda r: r.latency_us["Hermit"][1] / r.latency_us["Rust"][0], "<", 1.0,
       "batched Hermit launches beat synchronous native launches", kind="analysis")

# -- cost breakdown ------------------------------------------------------------


def _bd(regime: str, platform: str) -> Callable[[Any], Any]:
    return lambda r: r.runs[(regime, platform)]


_claim("breakdown.bulk.Hermit.dominant", "breakdown", "Hermit bulk: largest component",
       lambda r: _bd("bulk", "Hermit")(r).dominant(), "==", "client_stack",
       "unikernel bandwidth loss comes from the guest network stack (§4.2)", kind="analysis")
_claim("breakdown.bulk.Hermit.client_stack", "breakdown", "Hermit bulk: guest-stack share",
       lambda r: _bd("bulk", "Hermit")(r).fraction("client_stack"), ">", 0.75,
       "the guest stack carries > 75 % of Hermit's bulk-transfer time", kind="analysis")
_claim("breakdown.bulk.Rust.stacks", "breakdown", "native bulk: endpoint-stack share",
       lambda r: _bd("bulk", "Rust")(r).fraction("client_stack")
       + _bd("bulk", "Rust")(r).fraction("server_stack"), ">", 0.5,
       "native transfers are single-core bound: endpoint copy work dominates", kind="analysis")
_claim("breakdown.bulk.Rust.wire_vs_stacks", "breakdown", "native bulk: wire / endpoint stacks",
       lambda r: _bd("bulk", "Rust")(r).components_s["wire"]
       / (_bd("bulk", "Rust")(r).components_s["client_stack"]
          + _bd("bulk", "Rust")(r).components_s["server_stack"]), "<", 1.0,
       "the 100GbE wire is not the native bottleneck", kind="analysis")
_claim("breakdown.chatty.VM.stack_vs_wire", "breakdown", "VM chatty: guest stack / wire",
       lambda r: _bd("chatty", "Linux VM")(r).fraction("client_stack")
       / _bd("chatty", "Linux VM")(r).fraction("wire"), ">", 1.0,
       "VM per-call latency is dominated by guest-side costs, not the wire", kind="analysis")
_claim("breakdown.chatty.Rust.dominant", "breakdown", "native chatty: largest component",
       lambda r: _bd("chatty", "Rust")(r).dominant(), "==", "wire",
       "native per-call time is dominated by link latency", kind="analysis")
for _regime in ("bulk", "chatty"):
    for _platform in ("Rust", "Linux VM", "Hermit"):
        _claim(f"breakdown.{_regime}.{_slug(_platform)}.accounted", "breakdown",
               f"{_platform} {_regime}: sum of components / total",
               lambda r, g=_regime, p=_platform: sum(r.runs[(g, p)].components_s.values())
               / r.runs[(g, p)].total_s, "~", (1.0, 0.02),
               "the breakdown components account for the total", kind="analysis")

# -- bandwidth shmoo -----------------------------------------------------------

_claim("shmoo.advantage_4KiB", "shmoo", "native / Hermit H2D at 4 KiB",
       lambda r: r.native_advantage()[0], "in", (1.5, 3.0),
       "small transfers track Figure 6's ~2x call latency", kind="analysis")
_claim("shmoo.advantage_64MiB", "shmoo", "native / Hermit H2D at 64 MiB",
       lambda r: r.native_advantage()[-1], ">", 5.0,
       "large transfers open the gap toward Figure 7's ~9x", kind="analysis")
_claim("shmoo.advantage_growth", "shmoo", "native advantage: 64 MiB / 4 KiB",
       lambda r: r.native_advantage()[-1] / r.native_advantage()[0], ">", 2.0,
       "the native advantage at least doubles across the sweep", kind="analysis")
for _platform in ("Rust", "Hermit"):
    _claim(f"shmoo.{_platform}.growth", "shmoo", f"{_platform} H2D: 64 MiB / 4 KiB",
           lambda r, p=_platform: r.h2d(p)[-1] / r.h2d(p)[0], ">", 1.0,
           "fixed costs amortize as transfers grow", kind="analysis")

# -- scaling -------------------------------------------------------------------


def _at(r, policy: str, tenants: int):
    return next(p for p in r.curves[policy] if p.tenants == tenants)


_claim("scaling.fifo.min_step", "scaling", "FIFO utilization: smallest step between counts",
       lambda r: min(b - a for a, b in zip(r.utilization_curve("fifo"),
                                            r.utilization_curve("fifo")[1:])),
       ">=", -1e-9, "GPU utilization never falls as tenants are added", kind="analysis")
_claim("scaling.fifo.utilization_1", "scaling", "FIFO utilization, 1 tenant",
       lambda r: r.utilization_curve("fifo")[0], "<", 0.5,
       "one tenant cannot saturate the shared GPU", kind="analysis")
_claim("scaling.fifo.utilization_32", "scaling", "FIFO utilization, 32 tenants",
       lambda r: r.utilization_curve("fifo")[-1], ">", 0.9,
       "32 tenants drive the GPU near saturation", kind="analysis")
_claim("scaling.counts_beyond_7", "scaling", "tenant counts above the SR-IOV limit of 7",
       lambda r: len([p for p in r.curves["fifo"] if p.tenants > 7]), ">=", 2,
       "the sweep exercises more tenants than the A100's 7 SR-IOV partitions", kind="analysis")
_claim("scaling.fifo.fairness_beyond_7", "scaling", "FIFO: lowest fairness above 7 tenants",
       lambda r: min(p.fairness for p in r.curves["fifo"] if p.tenants > 7), ">", 0.95,
       "fair sharing holds past the SR-IOV partition limit", kind="analysis")
_claim("scaling.rr_vs_fifo_wait_32", "scaling", "mean wait at 32 tenants: round-robin / FIFO",
       lambda r: _at(r, "round-robin", 32).mean_wait_ns / _at(r, "fifo", 32).mean_wait_ns,
       "<=", 1.05, "round-robin never queues meaningfully worse than FIFO", kind="analysis")
_claim("scaling.rr_minus_fifo_fairness_32", "scaling",
       "fairness at 32 tenants: round-robin - FIFO",
       lambda r: _at(r, "round-robin", 32).fairness - _at(r, "fifo", 32).fairness,
       ">=", -1e-9, "round-robin is at least as fair as FIFO at saturation", kind="analysis")

# -- compute-bound counter-example ---------------------------------------------

_COMPUTE = ('the approach "is best suited to GPU applications that have long-running, '
            'high-workload GPU kernels" (§5)')
for _platform in ("Linux VM", "Unikraft", "Hermit"):
    _claim(f"compute_bound.{_slug(_platform)}.nbody_overhead", "compute_bound",
           f"{_platform}: nbody / Rust nbody - 1",
           lambda r, p=_platform: r.overhead(p)[1], "<", 0.10, _COMPUTE, kind="analysis")
    _claim(f"compute_bound.{_slug(_platform)}.overhead_ratio", "compute_bound",
           f"{_platform}: nbody overhead / matrixMul overhead",
           lambda r, p=_platform: r.overhead(p)[1] / r.overhead(p)[0], "<", 0.2,
           "compute-bound overhead at least 5x smaller than I/O-bound overhead", kind="analysis")
_claim("compute_bound.Rust.gpu_busy", "compute_bound", "Rust nbody: device drain time / loop time",
       lambda r: r.gpu_busy_share["Rust"], ">", 0.8,
       "the GPU is busy for > 80 % of the loop (launches are hidden)", kind="analysis")
_claim("compute_bound.nbody_verified", "compute_bound", "nbody numerics vs NumPy (192 bodies)",
       lambda r: _yes(r.verified), "==", "yes",
       "nbody numerics match the NumPy reference", kind="analysis")


# -- evaluation and claims.txt -------------------------------------------------

HEADERS = ["id", "kind", "value", "relation", "verdict", "quantity"]


def evaluate(results: Mapping[str, Any]) -> dict[str, Value]:
    """Measure every row on the artifacts' results, as recorded."""
    return {
        c.id: parse_value(format_value(c.measure(results[c.artifact]))) for c in CLAIMS
    }


def failures(values: Mapping[str, Value]) -> list[str]:
    """Ids of the rows whose value is missing or breaks the relation."""
    return [c.id for c in CLAIMS if c.id not in values or not c.holds(values[c.id])]


def render(values: Mapping[str, Value]) -> str:
    """``claims.txt``: one line per row, value and verdict."""
    return render_table(
        "Claims -- every row of repro.harness.claims on the regenerated artifacts",
        HEADERS,
        [
            (
                c.id, c.kind, format_value(values[c.id]), c.relation_text(),
                "PASS" if c.holds(values[c.id]) else "FAIL", c.quantity,
            )
            for c in CLAIMS
        ],
    )


def read(text: str) -> dict[str, dict[str, str]]:
    """Parse ``claims.txt`` back into ``id -> {column: cell}``."""
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("--"))
    spans, start = [], 0
    for dashes in lines[rule].split("  "):
        spans.append((start, start + len(dashes)))
        start += len(dashes) + 2
    rows = {}
    for line in lines[rule + 1:]:
        cells = dict(zip(HEADERS, (line[a:b].strip() for a, b in spans)))
        rows[cells["id"]] = cells
    return rows
