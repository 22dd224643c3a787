"""The client transport stack: one assembly, one reconnect contract.

Every :class:`~repro.cricket.client.CricketClient` constructor builds only
its base transport and hands it to one assembly that stacks, in the only
legal order, base -> [FaultInjectingTransport] -> [ChecksummedTransport].
These tests pin that order per constructor, the CRC-aware reconnect probe,
where leadership epochs are fed, the ``reconnect(*, force=False)``
contract on the recovery path, and the one fault-window endpoint wrapper.
"""

import dataclasses
import weakref

import pytest

from repro.cricket import CricketClient, CricketServer
from repro.cricket.replication import make_ha_pair
from repro.net.simclock import SimClock
from repro.oncrpc.errors import RpcTransportError
from repro.oncrpc.transport import ChecksummedTransport, LoopbackTransport
from repro.resilience import (
    FailoverTransport,
    FaultInjectingTransport,
    FaultPlan,
    FaultyEndpoint,
    LoopbackEndpoint,
    ReconnectingTransport,
    SlowFaultPlan,
    SlowTransport,
)


def layers(client: CricketClient) -> list[str]:
    """Class names from the RPC client's transport down, outermost first."""
    names, transport = [], client.stub.client.transport
    while transport is not None:
        names.append(type(transport).__name__)
        transport = getattr(transport, "inner", None) or getattr(
            transport, "_inner", None
        )
    return names


def _loopback(crc: bool, faults: bool) -> CricketClient:
    server = CricketServer(crc_records=crc)
    return CricketClient.loopback(
        server, faults=FaultPlan(seed=1) if faults else None
    )


def _failover(crc: bool, faults: bool) -> CricketClient:
    # faults on a failover client are per connection, below the rotation
    endpoint = LoopbackEndpoint(CricketServer(crc_records=crc), name="only")
    if faults:
        endpoint = FaultyEndpoint(endpoint, FaultPlan(seed=1))
    return CricketClient.failover([endpoint])


@pytest.fixture
def tcp_server():
    servers = []

    def serve(crc: bool) -> tuple[str, int]:
        server = CricketServer(crc_records=crc)
        servers.append(server)
        return server.serve_tcp("127.0.0.1", 0)

    yield serve
    for server in servers:
        server.shutdown()


STACKS = [
    # constructor, crc, faults, layers outermost first
    ("loopback", False, False, ["LoopbackTransport"]),
    ("loopback", False, True, ["FaultInjectingTransport", "LoopbackTransport"]),
    ("loopback", True, False, ["ChecksummedTransport", "LoopbackTransport"]),
    ("loopback", True, True, [
        "ChecksummedTransport", "FaultInjectingTransport", "LoopbackTransport"]),
    ("failover", False, False, ["FailoverTransport", "LoopbackTransport"]),
    ("failover", False, True, [
        "FailoverTransport", "FaultInjectingTransport", "LoopbackTransport"]),
    ("failover", True, False, [
        "ChecksummedTransport", "FailoverTransport", "LoopbackTransport"]),
    ("failover", True, True, [
        "ChecksummedTransport", "FailoverTransport", "FaultInjectingTransport",
        "LoopbackTransport"]),
    ("connect_tcp", False, False, ["ReconnectingTransport", "TcpTransport"]),
    ("connect_tcp", True, False, [
        "ChecksummedTransport", "ReconnectingTransport", "TcpTransport"]),
]


class TestAssembly:
    @pytest.mark.parametrize(
        "constructor,crc,faults,expected",
        STACKS,
        ids=[f"{c}-crc{int(r)}-faults{int(f)}" for c, r, f, _ in STACKS],
    )
    def test_layer_order(self, tcp_server, constructor, crc, faults, expected):
        if constructor == "loopback":
            client = _loopback(crc, faults)
        elif constructor == "failover":
            client = _failover(crc, faults)
        else:
            client = CricketClient.connect_tcp(*tcp_server(crc), crc=crc)
        try:
            assert layers(client) == expected
            # every layer counts into the client's one stats object
            transport = client.stub.client.transport
            while transport is not None:
                if isinstance(transport, (ChecksummedTransport, FaultInjectingTransport,
                                          ReconnectingTransport)):
                    assert transport.stats is client.stats
                transport = getattr(transport, "inner", None)
            assert client.get_device_count() >= 1  # and the stack works
        finally:
            client.close()

    def test_failover_transport_is_below_the_crc_layer(self):
        client = _failover(crc=True, faults=False)
        assert isinstance(client.failover_transport, FailoverTransport)
        assert client.stub.client.transport.inner is client.failover_transport


class TestCrcProbe:
    def test_tcp_reconnect_probe_answered_by_crc_server(self, tcp_server):
        client = CricketClient.connect_tcp(*tcp_server(True), crc=True)
        try:
            client.reattach()  # forced reconnect: runs the NULL probe
            assert client.stats.reconnects == 1
            assert client.stats.probe_rtt_last_ns is not None
            assert client.get_device_count() >= 1
        finally:
            client.close()

    def test_failover_walk_probe_answered_by_crc_server(self):
        # construction already walks (and probes) the endpoint list
        client = _failover(crc=True, faults=False)
        client.reattach()
        assert client.stats.reconnects == 1
        assert client.get_device_count() >= 1


class TestLeaderSink:
    def test_loopback_client_sees_no_leadership(self):
        client = CricketClient.loopback(CricketServer())
        client.malloc(4096)
        assert client.stub.client.leader_sink is None
        assert client.leader_epoch == 0
        assert client.active_endpoint_name == ""

    @pytest.mark.parametrize("crc", [False, True])
    def test_fenced_failover_client(self, crc):
        clock = SimClock()
        primary = CricketServer(clock=clock, crc_records=crc)
        standby = CricketServer(clock=clock, crc_records=crc)
        _link, endpoints = make_ha_pair(primary, standby)
        client = CricketClient.failover(endpoints, clock=clock)
        assert client.stub.client.leader_sink is client.failover_transport
        client.malloc(4096)
        assert client.leader_epoch == 1
        assert client.active_endpoint_name == "primary"

    def test_hand_built_client_over_failover_transport(self):
        clock = SimClock()
        primary = CricketServer(clock=clock)
        standby = CricketServer(clock=clock)
        _link, endpoints = make_ha_pair(primary, standby)
        transport = FailoverTransport(endpoints, clock=clock)
        client = CricketClient(transport, clock=clock)
        assert client.stub.client.leader_sink is transport
        client.malloc(4096)
        assert client.leader_epoch == 1
        assert transport.known_epoch == 1
        assert client.active_endpoint_name == "primary"


class _ArmedFactory:
    """A transport factory that raises ``TypeError`` on one chosen call."""

    def __init__(self, server: CricketServer) -> None:
        self.server = server
        self.calls = 0
        self.fail_on: int | None = None

    def __call__(self):
        self.calls += 1
        if self.calls == self.fail_on:
            raise TypeError("factory bug")
        return LoopbackTransport(self.server.dispatch_record)


WRAPPERS = {
    "bare": lambda t: t,
    "crc": lambda t: ChecksummedTransport(t),
    "faults": lambda t: FaultInjectingTransport(t, FaultPlan()),
    "slow": lambda t: SlowTransport(t, SlowFaultPlan()),
}


class TestReconnectContract:
    """A forced reconnect runs once, and its error reaches the caller."""

    def _client(self, wrapper: str) -> tuple[CricketClient, _ArmedFactory]:
        server = CricketServer(crc_records=wrapper == "crc")
        factory = _ArmedFactory(server)
        base = ReconnectingTransport(factory, clock=server.clock)
        client = CricketClient(WRAPPERS[wrapper](base), clock=server.clock)
        client.ping()
        return client, factory

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_reattach_propagates_type_error(self, wrapper):
        client, factory = self._client(wrapper)
        factory.fail_on = factory.calls + 1
        with pytest.raises(TypeError, match="factory bug"):
            client.reattach()
        assert factory.calls == 2  # the connect at construction + one

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    def test_recover_propagates_type_error(self, wrapper):
        client, factory = self._client(wrapper)
        blob = client.checkpoint()
        factory.fail_on = factory.calls + 1
        with pytest.raises(TypeError, match="factory bug"):
            client.recover(blob)
        assert factory.calls == 2
        assert client.stats.recoveries == 0

    def test_forced_reconnect_calls_factory_once(self):
        client, factory = self._client("bare")
        client.reattach()
        assert factory.calls == 2
        client.recover(client.checkpoint())
        assert factory.calls == 3


class TestFaultyEndpoint:
    @pytest.mark.parametrize(
        "plan,transport_type",
        [(FaultPlan(seed=7), FaultInjectingTransport),
         (SlowFaultPlan(seed=7), SlowTransport)],
        ids=["FaultPlan", "SlowFaultPlan"],
    )
    def test_per_connection_seeds(self, plan, transport_type):
        endpoint = FaultyEndpoint(LoopbackEndpoint(CricketServer()), plan)
        pipes = [endpoint.connect() for _ in range(3)]
        assert all(type(pipe) is transport_type for pipe in pipes)
        assert [pipe.plan.seed for pipe in pipes] == [7, 8, 9]
        assert all(pipe.active for pipe in pipes)  # active by default

    def test_failed_connect_does_not_consume_a_seed(self):
        loopback = LoopbackEndpoint(CricketServer())
        refusals = [RpcTransportError("refused")]

        class Flaky:
            def connect(self):
                if refusals:
                    raise refusals.pop()
                return loopback.connect()

        endpoint = FaultyEndpoint(Flaky(), FaultPlan(seed=3))
        with pytest.raises(RpcTransportError, match="refused"):
            endpoint.connect()
        assert endpoint.connect().plan.seed == 3

    def test_closing_the_window_heals_every_pipe(self):
        clock = SimClock()
        endpoint = FaultyEndpoint(
            LoopbackEndpoint(CricketServer(clock=clock)),
            FaultPlan(disconnect_rate=1.0),
            clock=clock,
        )
        clients = [CricketClient(endpoint.connect(), clock=clock) for _ in range(2)]
        for client in clients:
            with pytest.raises(RpcTransportError, match="injected disconnect"):
                client.ping()
            with pytest.raises(RpcTransportError, match="broken"):
                client.ping()
        endpoint.set_active(False)
        for client in clients:
            client.ping()  # healed without a reconnect
        assert not any(pipe.active for pipe in endpoint._transports)

    def test_dropped_pipes_are_released(self):
        # the endpoint holds its pipes weakly: a dropped connection is
        # freed with its RNG streams, and the window still reaches the rest
        endpoint = FaultyEndpoint(LoopbackEndpoint(CricketServer()), FaultPlan(seed=1))
        kept = endpoint.connect()
        dropped = endpoint.connect()
        dropped.close()
        released = weakref.ref(dropped)
        del dropped
        assert released() is None
        assert list(endpoint._transports) == [kept]
        endpoint.set_active(False)
        assert not kept.active
        assert endpoint.connect().plan.seed == 3  # seeds count every pipe

    def test_every_slow_plan_field_reaches_the_connection(self):
        plan = SlowFaultPlan(
            base_delay_s=0.001,
            jitter_s=0.002,
            spike_rate=0.25,
            spike_s=0.004,
            throughput_Bps=1e9,
            seed=11,
        )
        for field in dataclasses.fields(SlowFaultPlan):
            assert getattr(plan, field.name) != field.default, field.name
        endpoint = FaultyEndpoint(LoopbackEndpoint(CricketServer()), plan)
        first, second = endpoint.connect(), endpoint.connect()
        assert first.plan == plan
        assert second.plan == dataclasses.replace(plan, seed=12)
