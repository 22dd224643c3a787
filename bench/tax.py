"""Feature-tax matrix: what each optional plane adds to one call, in us.

``tax.<plane>_us`` is the p50 of ``get_device_count`` over in-process
loopback with that one plane switched on, minus the p50 with none.
``tax.sync_replication_us`` and ``tax.fencing_us`` use a ``malloc`` +
``free`` pair instead (reads are not replicated or fenced): through an
unfenced ``make_ha_pair`` + ``CricketClient.failover`` minus a plain
loopback client, and fenced minus unfenced.

Bare and plane-on are measured in alternating blocks of 200 calls and the
median *paired* difference is reported: measured back to back, the two
drift apart by tens of microseconds and produce negative taxes.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from bench import MIB

BLOCK = 200


def _block_p50_us(op: Callable[[], object]) -> float:
    now = time.perf_counter_ns
    samples = []
    for _ in range(BLOCK):
        start = now()
        op()
        samples.append(now() - start)
    return statistics.median(samples) / 1e3


def _paired(base: Callable[[], object], others: dict[str, Callable[[], object]],
            pairs: int) -> dict[str, float]:
    """Median over ``pairs`` rounds of (other block p50 - adjacent base block p50)."""
    diffs: dict[str, list[float]] = {name: [] for name in others}
    for _ in range(pairs):
        for name, op in others.items():
            bare = _block_p50_us(base)
            diffs[name].append(_block_p50_us(op) - bare)
    return {name: statistics.median(values) for name, values in diffs.items()}


def measure(budget_s: float) -> dict[str, float]:
    from repro.cricket import CricketClient, CricketServer
    from repro.cricket.replication import make_ha_pair
    from repro.gpu import A100, GpuDevice
    from repro.resilience.overload import OverloadConfig
    from repro.resilience.retry import RetryPolicy
    from repro.unikernel import rustyhermit

    def server(**planes) -> CricketServer:
        return CricketServer([GpuDevice(A100, mem_bytes=64 * MIB)], **planes)

    def count_of(client: CricketClient) -> Callable[[], object]:
        return client.get_device_count

    def pair_of(client: CricketClient) -> Callable[[], object]:
        return lambda: client.free(client.malloc(4096))

    server_planes = {
        "crc_records": dict(crc_records=True),
        "overload": dict(overload=OverloadConfig()),
        "sanitizer": dict(sanitizer=True),
        "watchdog": dict(watchdog=True),
        "brownout": dict(brownout=True),
        "lease": dict(lease_s=30.0),
    }
    clients = {name: CricketClient.loopback(server(**planes))
               for name, planes in server_planes.items()}
    clients["retry_policy"] = CricketClient.loopback(server(), retry_policy=RetryPolicy())
    clients["platform_meter"] = CricketClient.loopback(server(), platform=rustyhermit())
    bare = CricketClient.loopback(server())

    _, unfenced_endpoints = make_ha_pair(server(), server(), unfenced=True)
    _, fenced_endpoints = make_ha_pair(server(), server())
    unfenced = CricketClient.failover(unfenced_endpoints, retry_policy=RetryPolicy())
    fenced = CricketClient.failover(fenced_endpoints, retry_policy=RetryPolicy())

    # one round is a bare block beside each plane's block
    start = time.perf_counter()
    _paired(count_of(bare), {n: count_of(c) for n, c in clients.items()}, 1)
    _paired(pair_of(bare), {"u": pair_of(unfenced), "f": pair_of(fenced)}, 1)
    round_s = time.perf_counter() - start
    pairs = max(3, min(15, int(budget_s / round_s)))

    tax = _paired(count_of(bare), {n: count_of(c) for n, c in clients.items()}, pairs)
    ha = _paired(pair_of(bare), {"u": pair_of(unfenced), "f": pair_of(fenced)}, pairs)
    result = {f"tax.{name}_us": value for name, value in tax.items()}
    result["tax.sync_replication_us"] = ha["u"]
    result["tax.fencing_us"] = ha["f"] - ha["u"]
    for client in (*clients.values(), bare, unfenced, fenced):
        client.close()
    return result
