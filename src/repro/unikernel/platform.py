"""Execution-platform models and the end-to-end RPC path timing.

A :class:`Platform` bundles what Table 1 of the paper calls a
*configuration*: guest OS, hypervisor presence, network plumbing and the
application language.  :class:`RpcPathModel` composes a client platform, the
physical link and the (always native-Linux) GPU-node server into per-message
latency charges, and :class:`PlatformMeter` plugs that model into the
transport layer so every record crossing the wire advances the experiment's
virtual clock.

The meter is on the path of every forwarded call, so it does not walk the
model per record: it compiles its charges once (:func:`compile_charges`)
into straight-line functions of the record size, whose results are the
model's bit for bit (``tests/test_compiled_charges.py`` holds them to it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from repro.net.link import LinkModel
from repro.net.simclock import SimClock
from repro.unikernel.language import LanguageProfile
from repro.unikernel.netstack import NetstackModel


@dataclass(frozen=True)
class Platform:
    """One evaluated configuration (a row of Table 1)."""

    name: str
    #: operating system label ("Rocky Linux", "Fedora VM", "Unikraft", "Hermit")
    os_name: str
    #: hypervisor label or None for bare metal
    hypervisor: str | None
    #: network plumbing label ("native" or "virtio")
    network: str
    netstack: NetstackModel
    language: LanguageProfile

    @property
    def virtualized(self) -> bool:
        """True when a hypervisor sits under this platform."""
        return self.hypervisor is not None

    def with_language(self, language: LanguageProfile) -> "Platform":
        """Copy of this platform with a different application language."""
        return replace(self, language=language)



@dataclass(frozen=True)
class RpcPathModel:
    """Timing of one message along client -> link -> server (and back).

    The server side is the Cricket server's host: the GPU node running
    native Linux, so its stack is always the native model.  Request and
    reply charges are:

    ``request(n) = client.tx(n) + link.latency + wire(n) + server.rx(n)``
    ``reply(n)   = server.tx(n) + link.latency + wire(n) + client.rx(n)``

    Summing CPU time and wire time (instead of overlapping them) models a
    single-threaded RPC implementation that cannot pipeline marshalling
    with transmission -- the paper's explanation for why Cricket's
    RPC-argument transfers are CPU-bound (§4.2).
    """

    client: Platform
    link: LinkModel
    server_stack: NetstackModel

    def request_components_s(self, nbytes: int) -> dict[str, float]:
        """Per-component seconds of the request path (for cost attribution)."""
        return {
            "client_stack": self.client.netstack.tx_time_s(nbytes, self.link),
            "wire": self.link.one_way_s(nbytes),
            "server_stack": self.server_stack.rx_time_s(nbytes, self.link),
        }

    def reply_components_s(self, nbytes: int) -> dict[str, float]:
        """Per-component seconds of the reply path."""
        return {
            "server_stack": self.server_stack.tx_time_s(nbytes, self.link),
            "wire": self.link.one_way_s(nbytes),
            "client_stack": self.client.netstack.rx_time_s(nbytes, self.link),
        }

    def request_time_s(self, nbytes: int) -> float:
        """Seconds for a request record of ``nbytes`` to reach the server."""
        return sum(self.request_components_s(nbytes).values())

    def reply_time_s(self, nbytes: int) -> float:
        """Seconds for a reply record of ``nbytes`` to reach the client."""
        return sum(self.reply_components_s(nbytes).values())

    def round_trip_s(self, request_bytes: int, reply_bytes: int) -> float:
        """Convenience: request plus reply (no server processing)."""
        return self.request_time_s(request_bytes) + self.reply_time_s(reply_bytes)


class PathCharges(NamedTuple):
    """The charges of one :class:`RpcPathModel`, compiled.

    ``request(n)`` and ``reply(n)`` return the components of
    :meth:`RpcPathModel.request_components_s` /
    :meth:`~RpcPathModel.reply_components_s` as a tuple in the same order;
    ``send_stack(n)`` is the client's transmit time alone (a batched send)
    and ``recv_copies(n)`` the client's receive entry plus copies (a
    batched reply).  All but ``recv_copies`` refuse a negative ``n`` with
    the model's :class:`ValueError`.
    """

    request: Callable[[int], tuple[float, float, float]]
    reply: Callable[[int], tuple[float, float, float]]
    send_stack: Callable[[int], float]
    recv_copies: Callable[[int], float]
    #: the generated code, for reading
    source: str


_NEGATIVE = ("if nbytes < 0:", '    raise ValueError("nbytes cannot be negative")')


def compile_charges(path: RpcPathModel) -> PathCharges:
    """Compile ``path``'s charges into functions of the record size.

    Each is the model's arithmetic with every term that does not depend on
    the size worked out here, in the model's order, so it returns the
    model's floats exactly.  (The meter adds the components left to right,
    as ``sum`` does; ``sum``'s start, 0, adds nothing to a cost.)
    """
    client, server, link = path.client.netstack, path.server_stack, path.link
    wire = f"wire = {link.latency_s!r} + nbytes / {link.line_rate_Bps!r}"
    bodies = {
        "request": [
            *_NEGATIVE,
            *client.tx_source(link, "client_stack"),
            wire,
            *server.rx_source(link, "server_stack"),
            "return client_stack, wire, server_stack",
        ],
        "reply": [
            *_NEGATIVE,
            *server.tx_source(link, "server_stack"),
            wire,
            *client.rx_source(link, "client_stack"),
            "return server_stack, wire, client_stack",
        ],
        "send_stack": [
            *_NEGATIVE,
            *client.tx_source(link, "client_stack"),
            "return client_stack",
        ],
        "recv_copies": [
            f"return {client.rx_entry_s!r} + nbytes * {client.rx_copies!r}"
            f" / {client.copy_rate_Bps!r}",
        ],
    }
    source = "".join(
        f"def {name}(nbytes):\n" + "".join(f"    {line}\n" for line in body) + "\n"
        for name, body in bodies.items()
    )
    namespace: dict = {}
    exec(compile(source, f"<charges of {path.client.name}>", "exec"), namespace)
    return PathCharges(*(namespace[name] for name in bodies), source)


class PlatformMeter:
    """Transport meter charging RPC path time to a virtual clock.

    Attached to a client transport
    (:class:`repro.oncrpc.transport.TcpTransport` or
    :class:`~repro.oncrpc.transport.LoopbackTransport`); every sent record
    charges the request path, every received record the reply path, plus
    the language profile's per-call marshalling overhead on sends.
    """

    def __init__(self, path: RpcPathModel, clock: SimClock) -> None:
        self.path = path
        self.clock = clock
        #: cumulative bytes, for bandwidth reporting
        self.bytes_sent = 0
        self.bytes_received = 0
        #: extra client CPU to charge on the next send (e.g. C launch logic)
        self._pending_extra_s = 0.0
        self._batched_sends = 0
        self._batched_recvs = 0
        #: cost attribution, seconds per component (client_cpu includes the
        #: language marshalling overhead and app-charged extras)
        self.breakdown_s: dict[str, float] = {
            "client_cpu": 0.0,
            "client_stack": 0.0,
            "wire": 0.0,
            "server_stack": 0.0,
        }
        self._call_overhead_s = path.client.language.call_overhead_s
        self._charges = compile_charges(path)

    def add_client_cpu_s(self, seconds: float) -> None:
        """Charge additional client CPU before the next message (launch
        compatibility logic, input generation, ...)."""
        self._pending_extra_s += seconds

    def mark_batched(self, sends: int = 0, recvs: int = 0) -> None:
        """Declare upcoming messages as pipelined (ONC RPC batching).

        A batched send charges only the client's transmit CPU (the wire and
        server work overlap with the client's next operation); a batched
        reply charges only the client's receive CPU.
        """
        self._batched_sends += sends
        self._batched_recvs += recvs

    def on_send(self, nbytes: int) -> None:
        """Charge the request path for one outbound record."""
        extra, self._pending_extra_s = self._pending_extra_s, 0.0
        cpu = self._call_overhead_s + extra
        breakdown = self.breakdown_s
        breakdown["client_cpu"] += cpu
        if self._batched_sends > 0:
            self._batched_sends -= 1
            stack = self._charges.send_stack(nbytes)
            breakdown["client_stack"] += stack
            cost = cpu + stack
        else:
            stack, wire, server = self._charges.request(nbytes)
            breakdown["client_stack"] += stack
            breakdown["wire"] += wire
            breakdown["server_stack"] += server
            cost = cpu + (stack + wire + server)
        self.clock.advance_ns(cost * 1e9)
        self.bytes_sent += nbytes

    def on_recv(self, nbytes: int) -> None:
        """Charge the reply path for one inbound record."""
        breakdown = self.breakdown_s
        if self._batched_recvs > 0:
            self._batched_recvs -= 1
            # Pipelined replies arrive back to back: interrupts coalesce and
            # per-segment work overlaps, leaving entry cost plus copies.
            cost = self._charges.recv_copies(nbytes)
            breakdown["client_stack"] += cost
        else:
            server, wire, stack = self._charges.reply(nbytes)
            breakdown["server_stack"] += server
            breakdown["wire"] += wire
            breakdown["client_stack"] += stack
            cost = server + wire + stack
        self.clock.advance_ns(cost * 1e9)
        self.bytes_received += nbytes
