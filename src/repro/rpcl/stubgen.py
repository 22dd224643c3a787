"""Client-stub and server-skeleton generation from RPCL specifications.

This mirrors RPC-Lib's procedural macros (client side) and rpcgen's server
skeletons (the Cricket server side):

* :func:`bind_client` returns a :class:`ClientStub` whose attributes are the
  program's procedures -- calling ``stub.rpc_cudagetdevicecount()`` encodes
  the arguments per the spec, performs the RPC and decodes the result.
* :func:`make_server_dispatch` adapts a plain Python object (one method per
  procedure name) into the handler table consumed by
  :class:`repro.oncrpc.server.RpcServer`.

Because stubs are derived entirely from the interface file, adding an RPC to
the specification makes it immediately callable with no hand-written client
code -- the property the paper highlights for RPC-Lib.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Mapping

from repro.oncrpc.client import RpcClient
from repro.oncrpc.server import CallContext, GarbageArgumentsError, Handler
from repro.oncrpc.transport import Transport
from repro.rpcl import ast
from repro.rpcl.compiler import ProcedureSignature, SpecCompiler
from repro.rpcl.errors import RpclSemanticError
from repro.rpcl.parser import parse
from repro.xdr.errors import XdrError


class ClientStub:
    """A program-version client with one bound method per procedure."""

    def __init__(
        self,
        client: RpcClient,
        signatures: Mapping[str, ProcedureSignature],
        constants: Mapping[str, int],
    ) -> None:
        self._client = client
        self._signatures = dict(signatures)
        #: constants (const defs and enum members) from the specification
        self.constants = dict(constants)

    @property
    def client(self) -> RpcClient:
        """The underlying :class:`~repro.oncrpc.client.RpcClient`."""
        return self._client

    def procedures(self) -> tuple[str, ...]:
        """Names of all callable procedures."""
        return tuple(self._signatures)

    def __getattr__(self, name: str) -> Callable[..., Any]:
        """Build a procedure's method on first use; it stays on the instance."""
        try:
            sig = self._signatures[name]
        except KeyError:
            raise AttributeError(f"no procedure {name!r} in this program") from None
        client = self._client

        def invoke(*args: Any) -> Any:
            # The client packs the RPC header, then has the signature append
            # the arguments to the same encoder: one buffer per record.
            raw = client.call_raw(sig.number, partial(sig.encode_args, args))
            return sig.decode_result(raw)

        invoke.__name__ = name
        invoke.__doc__ = f"Remote procedure {name} (proc {sig.number})."
        setattr(self, name, invoke)
        return invoke

    def call(self, name: str, *args: Any) -> Any:
        """Invoke a procedure by name (explicit form of attribute access)."""
        return getattr(self, name)(*args)

    def call_batched(self, name: str, *args: Any) -> int:
        """Issue a procedure call without waiting for its reply; return its xid.

        Collect (and error-check) outstanding replies with
        ``stub.client.flush_batch()``.  Any synchronous call drains them
        first and hands their results to ``stub.client.drain_observer``.
        The xid is the handle ``rpc_cancel`` takes to abort the call.
        """
        try:
            sig = self._signatures[name]
        except KeyError:
            raise AttributeError(f"no procedure {name!r} in this program") from None
        return self._client.call_batched(sig.number, partial(sig.encode_args, args))

    def close(self) -> None:
        """Close the underlying RPC client."""
        self._client.close()

    def __enter__(self) -> "ClientStub":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ProgramInterface:
    """A compiled (program, version) interface ready for binding."""

    def __init__(self, spec: ast.Specification, program: str, version: int) -> None:
        self.spec = spec
        self.compiler = SpecCompiler(spec)
        self.prog_number, self.vers_number, self.signatures = self.compiler.signatures(
            program, version
        )
        self.program_name = program

    @classmethod
    def from_source(cls, source: str, program: str, version: int) -> "ProgramInterface":
        """Parse RPCL source text and compile one program version."""
        return cls(parse(source), program, version)

    # -- client side ------------------------------------------------------

    def bind_client(self, transport: Transport, **rpc_kwargs: Any) -> ClientStub:
        """Create a client stub speaking this interface over ``transport``.

        Extra keyword arguments (``retry_policy``, ``clock``, ``stats``,
        ``cred``) are forwarded to the underlying
        :class:`~repro.oncrpc.client.RpcClient`.
        """
        client = RpcClient(transport, self.prog_number, self.vers_number, **rpc_kwargs)
        return ClientStub(client, self.signatures, self.compiler.constants)

    # -- server side ------------------------------------------------------

    def make_server_dispatch(self, implementation: Any) -> dict[int, Handler]:
        """Adapt ``implementation`` into an RpcServer handler table.

        ``implementation`` provides one callable per procedure name, either
        as attributes (an object) or items (a mapping).  Each callable takes
        the decoded argument values -- plus an optional trailing
        ``CallContext`` if the callable accepts it via a ``ctx`` keyword --
        and returns the result value to encode.
        """

        def lookup(name: str) -> Callable[..., Any]:
            if isinstance(implementation, Mapping):
                fn = implementation.get(name)
            else:
                fn = getattr(implementation, name, None)
            if fn is None:
                raise RpclSemanticError(
                    f"implementation provides no procedure {name!r}"
                )
            return fn

        table: dict[int, Handler] = {}
        for sig in self.signatures.values():
            table[sig.number] = _make_handler(sig, lookup(sig.name))
        return table


def _make_handler(sig: ProcedureSignature, fn: Callable[..., Any]) -> Handler:
    wants_ctx = _accepts_ctx(fn)

    def handler(args: bytes, ctx: CallContext) -> Callable[..., object]:
        try:
            values = sig.decode_args(args)
        except XdrError as exc:
            raise GarbageArgumentsError(str(exc)) from exc
        result = fn(*values, ctx=ctx) if wants_ctx else fn(*values)
        # A writer: the server packs the reply header, then this appends
        # the result to the same encoder.
        return partial(sig.encode_result, result)

    handler.__name__ = f"handle_{sig.name}"
    return handler


def _accepts_ctx(fn: Callable[..., Any]) -> bool:
    import inspect

    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False
    if "ctx" in params:
        return True
    return any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values())


def bind_client(
    source: str, program: str, version: int, transport: Transport
) -> ClientStub:
    """One-shot convenience: parse, compile and bind a client stub."""
    return ProgramInterface.from_source(source, program, version).bind_client(transport)
