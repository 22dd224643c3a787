"""Composed nemesis: seeded schedule generation over every fault model.

``generate_schedule`` draws a whole adversary campaign -- kinds, firing
times and parameters -- from the *caller's* RNG, up front, as pure
data.  All randomness is consumed before the run starts: by the time
the first virtual-time event fires, the schedule (and the workload
drawn after it from the same master RNG) is frozen, which is the
determinism contract the shrinker depends on.
"""

from __future__ import annotations

import random

from repro.resilience.simulation.events import (
    BUG_DOUBLE_EXECUTE,
    DRAIN_RESTORE,
    GPU_FAULT,
    GPU_THROTTLE,
    HA_PAIR_KINDS,
    KILL_CLIENT,
    KILL_PRIMARY,
    LIMP_ENDPOINT,
    MIGRATE,
    PARTITION,
    PARTITION_SHAPES,
    SINGLE_KINDS,
    STORAGE_SLOW,
    STORAGE_TORN,
    TRANSPORT_FAULTS,
    NemesisEvent,
)


def _draw_params(
    rng: random.Random, kind: str, *, clients: int, horizon_s: float
) -> dict:
    """Draw one event's parameters.  Fixed draw order per kind."""
    if kind == PARTITION:
        return {
            "shape": rng.choice(PARTITION_SHAPES),
            "duration_s": round(rng.uniform(0.5, 0.12 * horizon_s + 0.5), 6),
        }
    if kind == KILL_PRIMARY:
        return {"dangerous": rng.random() < 0.5}
    if kind == GPU_FAULT:
        return {"fault": "ecc" if rng.random() < 0.5 else "context"}
    if kind == GPU_THROTTLE:
        return {"severity": round(rng.uniform(2.0, 6.0), 3)}
    if kind == TRANSPORT_FAULTS:
        return {
            "client": rng.randrange(clients),
            "duration_s": round(rng.uniform(0.2, 0.06 * horizon_s + 0.2), 6),
        }
    if kind == LIMP_ENDPOINT:
        return {
            "client": rng.randrange(clients),
            "duration_s": round(rng.uniform(0.2, 0.06 * horizon_s + 0.2), 6),
        }
    if kind == STORAGE_TORN:
        return {"count": rng.randrange(1, 3)}
    if kind == STORAGE_SLOW:
        return {"count": rng.randrange(1, 4), "delay_s": round(rng.uniform(0.05, 0.4), 6)}
    if kind in (DRAIN_RESTORE, MIGRATE):
        return {}
    if kind == BUG_DOUBLE_EXECUTE:
        return {"count": 1}
    if kind == KILL_CLIENT:
        return {"client": rng.randrange(clients)}
    raise ValueError(f"unknown nemesis event kind {kind!r}")


def generate_schedule(
    rng: random.Random,
    *,
    topology: str,
    events: int,
    clients: int,
    horizon_s: float,
    kinds: tuple[str, ...] = (),
) -> list[NemesisEvent]:
    """Draw ``events`` nemesis events for ``topology`` over ``horizon_s``.

    ``kinds`` restricts the alphabet (a nemesis profile's move); empty
    means the topology's full composed alphabet.

    Every draw comes from ``rng`` in a fixed order (time, kind, params
    per event), so the schedule is a pure function of the RNG state --
    and the caller can keep drawing the workload from the same RNG
    afterwards without the two streams interleaving.
    """
    kinds = kinds or {"ha_pair": HA_PAIR_KINDS, "single": SINGLE_KINDS}[topology]
    drawn = []
    for _ in range(events):
        at_s = round(rng.uniform(0.05 * horizon_s, 0.85 * horizon_s), 6)
        kind = rng.choice(kinds)
        params = _draw_params(rng, kind, clients=clients, horizon_s=horizon_s)
        drawn.append(NemesisEvent(at_s=at_s, kind=kind, params=params))
    drawn.sort(key=lambda e: e.at_s)
    return drawn
