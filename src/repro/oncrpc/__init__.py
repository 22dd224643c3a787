"""ONC RPC (RFC 5531) in pure Python.

This is the Python analogue of the paper's RPC-Lib: a from-scratch
implementation of Sun/ONC RPC with

* the full ``rpc_msg`` structure set (:mod:`repro.oncrpc.message`),
* ``AUTH_NONE``/``AUTH_SYS`` authentication (:mod:`repro.oncrpc.auth`),
* record marking **with multi-fragment support** (:mod:`repro.oncrpc.record`)
  -- the capability whose absence from the existing ``onc_rpc`` crate
  motivated RPC-Lib, since Cricket ships GPU-sized buffers as RPC arguments,
* pluggable transports with traffic metering hooks
  (:mod:`repro.oncrpc.transport`), and
* client/server endpoints (:mod:`repro.oncrpc.client`,
  :mod:`repro.oncrpc.server`).

Only the (Python) standard library is used, mirroring RPC-Lib's
std-only dependency policy that makes it portable to unikernels.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "portmap": (
            "PortMapper", "PortMapperClient", "Mapping", "connect_via_portmap", "PMAP_PROG",
            "PMAP_VERS", "PMAP_PORT",
        ),
        "auth": (
            "OpaqueAuth", "AuthSysParams", "NULL_AUTH", "AUTH_NONE", "AUTH_SYS",
            "AUTH_CLIENT_TOKEN", "client_token_auth", "client_token_from",
        ),
        "client": ("RpcClient",),
        "server": ("RpcServer", "CallContext", "GarbageArgumentsError"),
        "record": (
            "RecordReader", "encode_record", "iter_fragments", "DEFAULT_FRAGMENT_SIZE",
            "LAST_FRAGMENT",
        ),
        "transport": (
            "TcpTransport", "LoopbackTransport", "Transport", "TransportMeter", "NullMeter",
        ),
        "errors": (
            "RpcError", "RpcTransportError", "RpcTimeoutError", "RpcDeadlineExceeded",
            "RpcRetryExhausted", "RpcBusyError", "RpcCircuitOpenError", "RpcProtocolError",
            "RpcReplyError", "RpcProgUnavailable", "RpcProgMismatch", "RpcProcUnavailable",
            "RpcGarbageArgs", "RpcSystemError", "RpcDenied",
        ),
    },
)
