"""The platform meter's compiled charges held to the path model, bit for bit.

``PlatformMeter`` compiles its request and reply charges once, at
construction (:func:`repro.unikernel.platform.compile_charges`).  The model
-- ``RpcPathModel.request_components_s`` / ``reply_components_s`` and the
netstack and link methods under them -- stays the reference: every
component must be the same float, at every size where a count in the model
steps, for every preset; and a meter must leave the same clock and the same
``breakdown_s`` as the meter that walked the model, which is kept here.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.simclock import SimClock
from repro.oncrpc.record import DEFAULT_FRAGMENT_SIZE
from repro.unikernel import presets
from repro.unikernel.netstack import TSO_CHUNK
from repro.unikernel.platform import PlatformMeter, RpcPathModel, compile_charges

MIB = 1 << 20

#: Table 1 and the four variants of ``presets.py``
PLATFORMS = {
    **{platform.name: platform for platform in presets.table1_platforms()},
    "Linux VM, no offloads": presets.linux_vm(offloads=False),
    "Hermit+TSO": presets.rustyhermit_with_tso(),
    "Unikraft+CSUM": presets.unikraft_with_csum_offload(),
    "Hermit+vDPA": presets.rustyhermit_vdpa(),
}
PATHS = {name: presets.path_for(platform) for name, platform in PLATFORMS.items()}


def test_every_preset_is_covered():
    assert len(PATHS) == 9


def boundary_sizes(path: RpcPathModel) -> list[int]:
    """0, 1 and every size around a step of a count the model takes."""
    payload = path.link.mtu - 40
    steps = {payload, 8 * payload, TSO_CHUNK, DEFAULT_FRAGMENT_SIZE}
    for stack in (path.client.netstack, path.server_stack):
        if stack.bulk_threshold_bytes:
            steps.add(stack.bulk_threshold_bytes)
        chunk = stack.tx_chunk_bytes(path.link)
        steps.add(max(1, stack.bulk_threshold_bytes // chunk) * chunk)
        steps.add(max(1, stack.bulk_threshold_bytes // payload) * payload)
    sizes = {0, 1, 2, 64 * MIB, 64 * MIB + 1, 64 * MIB + 12345, 300 * MIB + 7}
    for step in steps:
        for multiple in (1, 2, 3, 7, 8, 9, 64):
            sizes.update(step * multiple + delta for delta in (-1, 0, 1))
    return sorted(sizes)


def assert_charges_equal_model(path: RpcPathModel, charges, nbytes: int) -> None:
    stack = path.client.netstack
    assert charges.request(nbytes) == tuple(path.request_components_s(nbytes).values())
    assert charges.reply(nbytes) == tuple(path.reply_components_s(nbytes).values())
    assert charges.send_stack(nbytes) == stack.tx_time_s(nbytes, path.link)
    assert charges.recv_copies(nbytes) == (
        stack.rx_entry_s + nbytes * stack.rx_copies / stack.copy_rate_Bps
    )


@pytest.mark.parametrize("name", list(PATHS))
def test_charges_equal_model_at_every_boundary(name):
    path = PATHS[name]
    charges = compile_charges(path)
    for nbytes in boundary_sizes(path):
        assert_charges_equal_model(path, charges, nbytes)


@pytest.mark.parametrize("name", list(PATHS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(nbytes=st.integers(min_value=0, max_value=1 << 36))
def test_charges_equal_model_for_any_size(name, nbytes):
    path = PATHS[name]
    assert_charges_equal_model(path, compile_charges(path), nbytes)


@pytest.mark.parametrize("name", list(PATHS))
def test_negative_sizes_still_refused(name):
    charges = compile_charges(PATHS[name])
    for charge in (charges.request, charges.reply, charges.send_stack):
        with pytest.raises(ValueError, match="negative"):
            charge(-1)
    meter, reference = pair(PATHS[name])
    for one in (meter, reference):
        with pytest.raises(ValueError, match="negative"):
            one.on_send(-1)
        with pytest.raises(ValueError, match="negative"):
            one.on_recv(-1)
    assert_same_state(meter, reference)


# -- the meter --------------------------------------------------------------------


class RecordingClock(SimClock):
    """A SimClock that keeps every advance it is asked for, unrounded."""

    def __init__(self) -> None:
        super().__init__()
        self.asked: list[float] = []

    def advance_ns(self, delta_ns: float) -> int:
        self.asked.append(delta_ns)
        return super().advance_ns(delta_ns)


class ReferenceMeter(PlatformMeter):
    """The meter as it was: the model walked per record, components summed."""

    def on_send(self, nbytes: int) -> None:
        extra, self._pending_extra_s = self._pending_extra_s, 0.0
        cpu = self.path.client.language.call_overhead_s + extra
        self.breakdown_s["client_cpu"] += cpu
        if self._batched_sends > 0:
            self._batched_sends -= 1
            stack = self.path.client.netstack.tx_time_s(nbytes, self.path.link)
            self.breakdown_s["client_stack"] += stack
            cost = cpu + stack
        else:
            components = self.path.request_components_s(nbytes)
            for key, value in components.items():
                self.breakdown_s[key] += value
            cost = cpu + sum(components.values())
        self.clock.advance_s(cost)
        self.bytes_sent += nbytes

    def on_recv(self, nbytes: int) -> None:
        if self._batched_recvs > 0:
            self._batched_recvs -= 1
            stack = self.path.client.netstack
            cost = stack.rx_entry_s + nbytes * stack.rx_copies / stack.copy_rate_Bps
            self.breakdown_s["client_stack"] += cost
        else:
            components = self.path.reply_components_s(nbytes)
            for key, value in components.items():
                self.breakdown_s[key] += value
            cost = sum(components.values())
        self.clock.advance_s(cost)
        self.bytes_received += nbytes


def pair(path: RpcPathModel) -> tuple[PlatformMeter, ReferenceMeter]:
    return PlatformMeter(path, RecordingClock()), ReferenceMeter(path, RecordingClock())


def assert_same_state(meter: PlatformMeter, reference: ReferenceMeter) -> None:
    assert meter.clock.asked == reference.clock.asked
    assert meter.clock.now_ns == reference.clock.now_ns
    assert meter.breakdown_s == reference.breakdown_s
    assert (meter.bytes_sent, meter.bytes_received) == (
        reference.bytes_sent, reference.bytes_received)
    assert (meter._pending_extra_s, meter._batched_sends, meter._batched_recvs) == (
        reference._pending_extra_s, reference._batched_sends, reference._batched_recvs)


@pytest.mark.parametrize("name", list(PATHS))
def test_meter_matches_reference_after_a_mixed_sequence(name):
    path = PATHS[name]
    meter, reference = pair(path)
    sizes = boundary_sizes(path)
    for step, nbytes in enumerate(sizes):
        for one in (meter, reference):
            if step % 5 == 0:
                one.add_client_cpu_s(1e-6 * (step % 7) + 3.3e-7)
            if step % 3 == 0:
                one.mark_batched(sends=2, recvs=1)
            one.on_send(nbytes)
            one.on_recv(sizes[-1 - step])
            if step % 4 == 1:
                one.on_send(nbytes // 3)
    assert len(meter.clock.asked) > 2 * len(sizes)
    assert_same_state(meter, reference)
