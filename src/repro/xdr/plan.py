"""Compiled XDR codecs: a run of descriptors flattened into ``struct`` plans.

The RPCL compiler describes a procedure's arguments and result as
:mod:`repro.xdr.types` descriptors, and walking those costs a method call,
a type test and a range test per field.  :func:`compile_plan` walks them
once instead and generates two functions.  Every run of adjacent fixed-width
members -- ``int``, ``unsigned``, ``hyper``, ``unsigned hyper``, ``float``,
``double``, and structs of them, flattened -- becomes one precompiled
:class:`struct.Struct`; every other member (opaques, strings, arrays,
unions, optionals, enums, bools, forward references) is handed to its
descriptor where it stands, so the limits it enforces are enforced by the
same code as ever.

One rule keeps the plan honest: **a plan that cannot finish hands the same
input to the interpreter** (:func:`encode_each`, :func:`decode_each`).
``struct`` refuses what the descriptors refuse -- a value out of range or
of the wrong kind, a buffer that is too short -- with one exception the
generated code tests itself: it would pack a ``bool`` or a ``numpy`` integer
as an ``int``, so every integral member must be a plain ``int``.  Whatever
stops a plan, the interpreter then either raises the typed error and message
callers and the retry loop already know, or (an ``IntEnum``, say) succeeds
the slow way.  The plan itself never raises and never decides what is valid.
"""

from __future__ import annotations

import itertools
import struct
from typing import Any, Callable, NamedTuple, Sequence

from repro.xdr.decoder import XdrDecoder
from repro.xdr.encoder import Buffer, GatherRecord, XdrEncoder
from repro.xdr.types import DOUBLE, FLOAT, HYPER, INT, UHYPER, UINT, StructType, XdrType

#: ``struct`` format of each fixed-width primitive, by descriptor identity
_FORMATS = {
    id(INT): "i", id(UINT): "I", id(HYPER): "q", id(UHYPER): "Q",
    id(FLOAT): "f", id(DOUBLE): "d",
}
_INTEGRAL = frozenset("iIqQ")

#: what a plan is made of: only ``Struct`` runs, runs and descriptors, or
#: descriptors alone (nothing in it was compiled)
ALL_FIXED, MIXED, INTERPRETER_ONLY = "all-fixed", "mixed", "interpreter-only"


def fixed_format(xdr_type: XdrType) -> str | None:
    """The ``struct`` format of a fixed-width primitive descriptor, else None."""
    return _FORMATS.get(id(xdr_type))


class Defer(Exception):
    """Raised inside compiled code to leave the input to the interpreter.

    It never escapes: whoever runs compiled code catches ``Exception`` around
    it -- ``struct.error``, a ``KeyError`` from a struct value and this alike
    -- and calls the interpreter outside the handler.
    """


def encode_each(types: Sequence[XdrType], values: Sequence[Any], encoder: XdrEncoder) -> None:
    """The interpreter: pack ``values`` descriptor by descriptor."""
    for xdr_type, value in zip(types, values):
        xdr_type.encode(encoder, value)


def decode_each(types: Sequence[XdrType], data: Buffer) -> tuple[Any, ...]:
    """The interpreter: unpack one value per descriptor; ``data`` must end there."""
    decoder = XdrDecoder(data)
    values = tuple(xdr_type.decode(decoder) for xdr_type in types)
    decoder.assert_done()
    return values


class Plan(NamedTuple):
    """The compiled codec of one sequence of types.

    ``encode(value, encoder)`` appends to the encoder and returns its
    :attr:`~repro.xdr.encoder.XdrEncoder.buffer`; ``decode(data)`` returns
    the value with opaques as read-only views of ``data``.  The value is the
    tuple of all members, or with ``single`` the one member bare.
    """

    encode: Callable[[Any, XdrEncoder], bytearray | GatherRecord]
    decode: Callable[[Buffer], Any]
    shape: str
    #: the generated module, for the curious and for the documentation
    source: str


class _Builder:
    """Walks the descriptors, collecting the lines of both functions."""

    def __init__(self) -> None:
        self.namespace: dict[str, Any] = {}
        self.encode_lines: list[str] = []
        self.decode_lines: list[str] = []
        self.run: list[tuple[str, str]] = []  # (format, local) not yet packed
        self.structs = self.descriptors = 0
        self._serial = itertools.count()

    def name(self, prefix: str) -> str:
        return f"{prefix}{next(self._serial)}"

    def walk(self, xdr_type: XdrType, source: str) -> str:
        """Emit the code for one member read from the expression ``source``;
        returns the expression of its decoded value."""
        fmt = fixed_format(xdr_type)
        if fmt is not None:
            local = self.name("f")
            self.encode_lines.append(f"{local} = {source}")
            self.run.append((fmt, local))
            return local
        if type(xdr_type) is StructType:
            local = self.name("s")
            self.encode_lines.append(f"{local} = {source}")
            fields = [
                f"{field.name!r}: {self.walk(field.type, f'{local}[{field.name!r}]')}"
                for field in xdr_type.fields
            ]
            return "{" + ", ".join(fields) + "}"
        self.flush()
        self.descriptors += 1
        descriptor, local = self.name("T"), self.name("x")
        self.namespace[descriptor] = xdr_type
        self.encode_lines.append(f"{descriptor}.encode(enc, {source})")
        self.decode_lines.append(f"{local} = {descriptor}.decode(dec)")
        return local

    def flush(self) -> str | None:
        """Turn the pending run of fixed-width members into one ``Struct``.

        Returns the statement that decodes a buffer holding that run and
        nothing else (``None`` without a pending run).
        """
        if not self.run:
            return None
        self.structs += 1
        packer = struct.Struct(">" + "".join(fmt for fmt, _ in self.run))
        name = self.name("S")
        self.namespace[name] = packer
        locals_ = ", ".join(local for _, local in self.run)
        plain = " and ".join(
            f"type({local}) is int" for fmt, local in self.run if fmt in _INTEGRAL
        )
        if plain:
            self.encode_lines.append(f"if not ({plain}): raise Defer")
        self.encode_lines.append(f"buf += {name}.pack({locals_})")
        self.decode_lines += [
            "pos = dec._pos",
            f"{locals_}, = {name}.unpack_from(dec._mv, pos)",
            f"dec._pos = pos + {packer.size}",
        ]
        self.run.clear()
        return f"{locals_}, = {name}.unpack(data)"


_TEMPLATE = """\
def encode(v, enc):
    buf = enc._buf
    start = len(buf)
    try:
        {encode}
        return buf if enc._refs is None else enc.buffer
    except Exception:
        enc._rollback(start)
    encode_each(TYPES, {values}, enc)
    return enc.buffer

def decode(data):
    try:
        {decode}
    except Exception:
        pass
    return decode_each(TYPES, data){pick}
"""

_DECODE_MIXED = """\
dec = XdrDecoder(data)
        {lines}
        if dec._pos != dec._end: raise Defer
        return {result}"""


def compile_plan(types: Sequence[XdrType], *, single: bool = False) -> Plan:
    """Generate the codec of ``types``: a tuple of values, or one bare value."""
    types = tuple(types)
    builder = _Builder()
    results = [
        builder.walk(xdr_type, "v" if single else f"v[{index}]")
        for index, xdr_type in enumerate(types)
    ]
    whole = builder.flush()
    result = results[0] if single else "(" + "".join(f"{r}, " for r in results) + ")"
    if not builder.descriptors:
        # Nothing but one ``Struct`` (or nothing at all): its exact-size
        # ``unpack`` is the whole decoder, trailing-bytes check included.
        shape = ALL_FIXED
        decode = f"{whole or 'if len(data): raise Defer'}\n        return {result}"
    else:
        shape = MIXED if builder.structs else INTERPRETER_ONLY
        decode = _DECODE_MIXED.format(
            lines="\n        ".join(builder.decode_lines), result=result
        )
    source = _TEMPLATE.format(
        encode="\n        ".join(builder.encode_lines or ["pass"]),
        decode=decode,
        values="(v,)" if single else "v",
        pick="[0]" if single else "",
    )
    namespace = dict(
        builder.namespace, TYPES=types, XdrDecoder=XdrDecoder, Defer=Defer,
        encode_each=encode_each, decode_each=decode_each,
    )
    exec(compile(source, "<xdr plan>", "exec"), namespace)
    return Plan(namespace["encode"], namespace["decode"], shape, source)
