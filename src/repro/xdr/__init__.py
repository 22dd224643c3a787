"""External Data Representation (XDR, RFC 4506).

This subpackage implements the XDR serialization standard used by ONC RPC
(RFC 5531).  It provides three layers:

* :class:`~repro.xdr.encoder.XdrEncoder` / :class:`~repro.xdr.decoder.XdrDecoder`
  -- imperative pack/unpack primitives operating on a growing byte buffer,
  mirroring the classic ``xdrmem_create`` streams of Sun RPC.
* :mod:`repro.xdr.types` -- declarative type descriptors (structs, unions,
  variable arrays, optionals, ...) composed by the RPCL compiler
  (:mod:`repro.rpcl`) into full message codecs.
* :mod:`repro.xdr.errors` -- the exception hierarchy.

All quantities are encoded big-endian and padded to 4-byte alignment as the
RFC requires.
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "encoder": ("XdrEncoder",),
        "decoder": ("XdrDecoder",),
        "errors": ("XdrError", "XdrEncodeError", "XdrDecodeError", "XdrLimitError"),
        "types": (
            "XdrType", "INT", "UINT", "HYPER", "UHYPER", "FLOAT", "DOUBLE", "BOOL", "VOID",
            "StringType", "VarOpaque", "FixedOpaque", "FixedArray", "VarArray", "OptionalType",
            "EnumType", "StructField", "StructType", "UnionArm", "UnionType",
        ),
    },
)
