"""Integration tests: RPC client against server over loopback and real TCP."""

import threading
from types import SimpleNamespace

import pytest

from repro.oncrpc import (
    GarbageArgumentsError,
    LoopbackTransport,
    RpcClient,
    RpcGarbageArgs,
    RpcProcUnavailable,
    RpcProgMismatch,
    RpcProgUnavailable,
    RpcServer,
    RpcSystemError,
    RpcTransportError,
    TcpTransport,
)
from repro.xdr import INT, StringType, VarOpaque, XdrDecoder, XdrEncoder

PROG = 0x20000001
VERS = 1

PROC_ECHO = 1
PROC_ADD = 2
PROC_FAIL = 3
PROC_GARBAGE = 4
PROC_UPPER = 5


def build_server() -> RpcServer:
    server = RpcServer()

    def echo(args: bytes, ctx) -> bytes:
        return args

    def add(args: bytes, ctx) -> bytes:
        dec = XdrDecoder(args)
        a, b = dec.unpack_int(), dec.unpack_int()
        dec.assert_done()
        enc = XdrEncoder()
        enc.pack_int(a + b)
        return enc.getvalue()

    def fail(args: bytes, ctx) -> bytes:
        raise RuntimeError("handler exploded")

    def garbage(args: bytes, ctx) -> bytes:
        raise GarbageArgumentsError()

    def upper(args: bytes, ctx) -> bytes:
        dec = XdrDecoder(args)
        s = dec.unpack_string()
        enc = XdrEncoder()
        enc.pack_string(s.upper())
        return enc.getvalue()

    server.register_program(
        PROG,
        VERS,
        {
            PROC_ECHO: echo,
            PROC_ADD: add,
            PROC_FAIL: fail,
            PROC_GARBAGE: garbage,
            PROC_UPPER: upper,
        },
    )
    return server


@pytest.fixture()
def loopback_client():
    server = build_server()
    client = RpcClient(LoopbackTransport(server.dispatch_record), PROG, VERS)
    yield client
    client.close()


class TestLoopback:
    def test_null_procedure_auto_registered(self, loopback_client):
        loopback_client.null_call()

    def test_echo_raw(self, loopback_client):
        payload = b"\x01\x02\x03\x04" * 10
        assert loopback_client.call_raw(PROC_ECHO, payload) == payload

    def test_add_typed_manual(self, loopback_client):
        enc = XdrEncoder()
        enc.pack_int(20)
        enc.pack_int(22)
        result = loopback_client.call_raw(PROC_ADD, enc.getvalue())
        assert XdrDecoder(result).unpack_int() == 42

    def test_call_typed(self, loopback_client):
        result = loopback_client.call_typed(PROC_UPPER, StringType(), StringType(), "cricket")
        assert result == "CRICKET"

    def test_prog_unavailable(self):
        server = build_server()
        client = RpcClient(LoopbackTransport(server.dispatch_record), PROG + 5, VERS)
        with pytest.raises(RpcProgUnavailable):
            client.null_call()

    def test_prog_mismatch_reports_versions(self):
        server = build_server()
        client = RpcClient(LoopbackTransport(server.dispatch_record), PROG, 9)
        with pytest.raises(RpcProgMismatch) as exc:
            client.null_call()
        assert exc.value.low == VERS
        assert exc.value.high == VERS

    def test_proc_unavailable(self, loopback_client):
        with pytest.raises(RpcProcUnavailable):
            loopback_client.call_raw(99, b"")

    def test_handler_crash_maps_to_system_err(self, loopback_client):
        with pytest.raises(RpcSystemError):
            loopback_client.call_raw(PROC_FAIL, b"")

    def test_garbage_args(self, loopback_client):
        with pytest.raises(RpcGarbageArgs):
            loopback_client.call_raw(PROC_GARBAGE, b"")

    def test_undecodable_args_map_to_garbage(self, loopback_client):
        # PROC_ADD expects 8 bytes; send 4.
        with pytest.raises(RpcGarbageArgs):
            loopback_client.call_raw(PROC_ADD, b"\x00\x00\x00\x01")

    def test_calls_made_counter(self, loopback_client):
        for _ in range(3):
            loopback_client.null_call()
        assert loopback_client.calls_made == 3

    def test_large_fragmented_payload(self):
        server = build_server()
        transport = LoopbackTransport(server.dispatch_record, fragment_size=1024)
        client = RpcClient(transport, PROG, VERS)
        payload = bytes(i % 251 for i in range(300_000))
        assert client.call_raw(PROC_ECHO, payload) == payload


class TestTcp:
    @pytest.fixture()
    def tcp_server(self):
        server = build_server()
        host, port = server.serve_tcp("127.0.0.1", 0)
        yield server, host, port
        server.shutdown()

    def test_tcp_roundtrip(self, tcp_server):
        _, host, port = tcp_server
        with RpcClient(TcpTransport(host, port), PROG, VERS) as client:
            result = client.call_typed(PROC_UPPER, StringType(), StringType(), "tcp path")
            assert result == "TCP PATH"

    def test_tcp_large_transfer_multi_fragment(self, tcp_server):
        """A GPU-sized (1 MiB) argument crosses TCP in 64 KiB fragments.

        This is the capability RPC-Lib added over the ``onc_rpc`` crate: a
        datagram transport caps a call near 64 KiB.
        """
        _, host, port = tcp_server
        sent: list[int] = []
        meter = SimpleNamespace(on_send=sent.append, on_recv=lambda nbytes: None)
        transport = TcpTransport(host, port, fragment_size=64 * 1024, meter=meter)
        with RpcClient(transport, PROG, VERS) as client:
            payload = bytes(i % 256 for i in range(1 << 20))
            assert client.call_raw(PROC_ECHO, payload) == payload
        (wire,) = sent  # the framed call record
        fragments = -(-wire // (64 * 1024 + 4))  # each 64 KiB at most, plus its mark
        assert fragments == 17  # 16 full ones carry the argument, one the rest
        assert 0 < wire - 4 * fragments - (1 << 20) < 100  # the call header

    def test_tcp_concurrent_clients(self, tcp_server):
        _, host, port = tcp_server
        errors: list[Exception] = []

        def worker(seed: int) -> None:
            try:
                with RpcClient(TcpTransport(host, port), PROG, VERS) as client:
                    for i in range(20):
                        result = client.call_typed(
                            PROC_ADD,
                            _IntPair(),
                            INT,
                            (seed, i),
                        )
                        assert result == seed + i
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

    def test_tcp_connect_refused(self):
        with pytest.raises(RpcTransportError):
            TcpTransport("127.0.0.1", 1, timeout=0.5)

    def test_server_survives_connection_drop(self, tcp_server):
        server, host, port = tcp_server
        client = RpcClient(TcpTransport(host, port), PROG, VERS)
        client.null_call()
        client.close()
        # Server still serves new clients after the previous one vanished.
        with RpcClient(TcpTransport(host, port), PROG, VERS) as client2:
            client2.null_call()


class _IntPair:
    """Ad-hoc XDR type for (int, int) tuples used in the concurrency test."""

    def encode(self, encoder: XdrEncoder, value) -> None:
        encoder.pack_int(value[0])
        encoder.pack_int(value[1])

    def decode(self, decoder: XdrDecoder):
        return decoder.unpack_int(), decoder.unpack_int()
