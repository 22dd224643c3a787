"""Lower RPCL AST into XDR type descriptors and procedure signatures.

This is the semantic core of the stub generator: it builds a symbol table of
all named types in a specification and can produce the
:class:`~repro.xdr.types.XdrType` codec for any declaration, including
recursive structures (XDR optionals make linked lists expressible, and
rpcgen supports them, so we do too via lazy references).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.rpcl import ast
from repro.rpcl.errors import RpclSemanticError
from repro.xdr import (
    BOOL,
    DOUBLE,
    FLOAT,
    HYPER,
    INT,
    UHYPER,
    UINT,
    VOID,
    EnumType,
    FixedArray,
    FixedOpaque,
    OptionalType,
    StringType,
    StructField,
    StructType,
    UnionArm,
    UnionType,
    VarArray,
    VarOpaque,
)
from repro.xdr.decoder import DEFAULT_MAX_ITEM_BYTES, XdrDecoder
from repro.xdr.encoder import Buffer, GatherRecord, LandedRecord, XdrEncoder, flatten
from repro.xdr.plan import Plan, compile_plan, fixed_format
from repro.xdr.types import XdrType, _BaseType

_PRIMITIVES: dict[str, XdrType] = {
    "int": INT,
    "long": INT,
    "short": INT,
    "char": INT,
    "unsigned int": UINT,
    "unsigned long": UINT,
    "unsigned short": UINT,
    "unsigned char": UINT,
    "hyper": HYPER,
    "unsigned hyper": UHYPER,
    "float": FLOAT,
    "double": DOUBLE,
    "bool": BOOL,
    "void": VOID,
}


class LazyRef(_BaseType):
    """A forward/recursive reference resolved against the symbol table."""

    __slots__ = ("name", "_table", "_resolved")

    def __init__(self, name: str, table: dict[str, XdrType]) -> None:
        self.name = name
        self._table = table
        self._resolved: XdrType | None = None

    def _target(self) -> XdrType:
        if self._resolved is None:
            try:
                self._resolved = self._table[self.name]
            except KeyError:
                raise RpclSemanticError(f"undefined type {self.name!r}") from None
        return self._resolved

    def encode(self, encoder: XdrEncoder, value: Any) -> None:
        """Encode through the resolved target type."""
        self._target().encode(encoder, value)

    def decode(self, decoder: XdrDecoder) -> Any:
        """Decode through the resolved target type."""
        return self._target().decode(decoder)


class OpaqueSplit(NamedTuple):
    """Where a signature's bulk opaque sits, when it can be landed.

    A run of members whose first variable-length field is a
    variable-length opaque preceded only by fixed-width fields (``int``,
    ``unsigned``, ``hyper``, ``unsigned hyper``, ``float``, ``double`` and
    structs of them) has the opaque's bytes at a fixed ``offset``: after
    those fields (``prefix``) and the opaque's length word.  A receiver can
    then tell from a record's first bytes how long the opaque is and have
    its bytes received straight into a buffer of its choosing (a
    :class:`~repro.xdr.encoder.LandedRecord`).
    """

    #: the fixed-width fields before the opaque, in wire order
    prefix: struct.Struct
    #: bytes before the opaque's bytes: ``prefix`` and the length word
    offset: int
    #: where the opaque sits in the decoded value: indexes and field names
    path: tuple[Any, ...]
    #: the longest opaque a decoder accepts (its declared bound, else the
    #: decoder's ceiling)
    limit: int

    def declared(self, data: Buffer) -> tuple[tuple[Any, ...], int] | None:
        """``(fixed field values, opaque length)`` read from the start of
        ``data``, or ``None`` if it is too short or the length is over
        :attr:`limit` (a record a decoder refuses is not landed)."""
        if len(data) < self.offset:
            return None
        values = self.prefix.unpack_from(data)
        size = int.from_bytes(data[self.offset - 4 : self.offset], "big")
        return (values, size) if size <= self.limit else None

    def decode(self, plan: Plan, record: LandedRecord) -> Any:
        """``plan.decode(flatten(record))``, with the opaque a read-only
        view of ``record.landing`` instead of a copy.

        The fields around it are decoded by ``plan`` from head and tail
        with the opaque's bytes left out -- padding checked, every byte
        consumed.  Anything that is not a well-formed split of this shape
        is decoded flattened, which raises what the record deserves.
        """
        head, tail = record.head, record.tail
        size = len(record.landing)
        pad = -size & 3
        if (
            len(head) == self.offset
            and int.from_bytes(head[-4:], "big") == size <= self.limit
            and len(tail) >= pad
            and not any(tail[:pad])
        ):
            around = bytearray(head)
            around[-4:] = bytes(4)  # an empty opaque in the landed one's place
            around += tail[pad:]
            value = plan.decode(around)
            return _placed(value, self.path, memoryview(record.landing).toreadonly())
        return plan.decode(flatten(record))


def _placed(value: Any, path: tuple[Any, ...], opaque: memoryview) -> Any:
    """``value`` with the member at ``path`` replaced by ``opaque``."""
    if not path:
        return opaque
    key, rest = path[0], path[1:]
    if type(value) is tuple:
        return value[:key] + (_placed(value[key], rest, opaque),) + value[key + 1 :]
    value[key] = _placed(value[key], rest, opaque)  # a struct's dict
    return value


def opaque_split(types: tuple[XdrType, ...], *, single: bool = False) -> OpaqueSplit | None:
    """The :class:`OpaqueSplit` of ``types`` (one bare value with
    ``single``), or ``None`` when its first variable-length field is not an
    opaque or something else precedes it."""
    formats: list[str] = []

    def walk(xdr_type: XdrType, path: tuple[Any, ...]) -> OpaqueSplit | bool:
        """The split, once the opaque is found; True to walk on, False to give up."""
        fmt = fixed_format(xdr_type)
        if fmt is not None:
            formats.append(fmt)
            return True
        if type(xdr_type) is StructType:
            for member in xdr_type.fields:
                found = walk(member.type, path + (member.name,))
                if found is not True:
                    return found
            return True
        if type(xdr_type) is not VarOpaque:
            return False
        prefix = struct.Struct(">" + "".join(formats))
        bound = xdr_type.max_size
        limit = DEFAULT_MAX_ITEM_BYTES if bound is None else bound
        return OpaqueSplit(prefix, prefix.size + 4, path, limit)

    for index, xdr_type in enumerate(types):
        found = walk(xdr_type, () if single else (index,))
        if found is not True:
            return found or None
    return None


@dataclass(frozen=True)
class ProcedureSignature:
    """The wire signature of one remote procedure.

    The four codec methods run a compiled :class:`~repro.xdr.plan.Plan`,
    generated from the descriptors when the signature is built; a plan that
    cannot finish defers to the descriptors, which raise (see
    :mod:`repro.xdr.plan`).  The plans are built here and not on first use
    because a first use is a call: what is allocated then, for good, lands
    in the heap beside that call's buffers, and after a 16 MiB copy it keeps
    the allocator from reusing their pages (+15 MiB peak RSS on the
    benchmark's ``bulk_copy`` server, measured).
    """

    name: str
    number: int
    arg_types: tuple[XdrType, ...]
    result_type: XdrType
    #: the compiled codec of the argument tuple
    args_plan: Plan = field(init=False, repr=False, compare=False)
    #: the compiled codec of the result
    result_plan: Plan = field(init=False, repr=False, compare=False)
    #: where a bulk opaque of the arguments / the result can be landed
    #: (:class:`OpaqueSplit`), or None
    args_split: OpaqueSplit | None = field(init=False, repr=False, compare=False)
    result_split: OpaqueSplit | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "args_plan", compile_plan(self.arg_types))
        object.__setattr__(self, "result_plan", compile_plan((self.result_type,), single=True))
        object.__setattr__(self, "args_split", opaque_split(self.arg_types))
        object.__setattr__(
            self, "result_split", opaque_split((self.result_type,), single=True)
        )

    def encode_args(
        self, values: tuple[Any, ...], encoder: XdrEncoder | None = None
    ) -> bytearray | GatherRecord:
        """Encode positional argument values back-to-back.

        With ``encoder`` they are appended to what it already holds -- the
        RPC header, on the call path -- so the arguments land in the record
        itself, and a bulk argument is referenced, not copied.  Returns the
        encoder's :attr:`~repro.xdr.encoder.XdrEncoder.buffer` (not a copy).
        """
        if len(values) != len(self.arg_types):
            raise TypeError(
                f"{self.name}() takes {len(self.arg_types)} argument(s), "
                f"got {len(values)}"
            )
        return self.args_plan.encode(values, XdrEncoder() if encoder is None else encoder)

    def decode_args(self, data: Buffer | LandedRecord) -> tuple[Any, ...]:
        """Decode positional argument values (server side).

        Opaque values come back as read-only views of ``data`` -- the
        landed one of a :class:`~repro.xdr.encoder.LandedRecord` a view of
        its landing (:meth:`OpaqueSplit.decode`).
        """
        if type(data) is LandedRecord:
            return self.args_split.decode(self.args_plan, data)
        return self.args_plan.decode(data)

    def encode_result(
        self, value: Any, encoder: XdrEncoder | None = None
    ) -> bytearray | GatherRecord:
        """Encode the procedure result (server side); see :meth:`encode_args`."""
        return self.result_plan.encode(value, XdrEncoder() if encoder is None else encoder)

    def decode_result(self, data: Buffer | LandedRecord) -> Any:
        """Decode the procedure result (client side); opaques are views of
        ``data``, as in :meth:`decode_args`."""
        if type(data) is LandedRecord:
            return self.result_split.decode(self.result_plan, data)
        return self.result_plan.decode(data)


class SpecCompiler:
    """Compiles a parsed specification's types and program interfaces."""

    def __init__(self, spec: ast.Specification) -> None:
        self.spec = spec
        self.types: dict[str, XdrType] = {}
        self.constants = spec.constants
        self._compile_types()

    # -- type lowering ------------------------------------------------------

    def _compile_types(self) -> None:
        for definition in self.spec.definitions:
            if isinstance(definition, ast.EnumDef):
                self.types[definition.name] = EnumType(
                    definition.name, dict(definition.members)
                )
            elif isinstance(definition, ast.StructDef):
                self.types[definition.name] = StructType(
                    definition.name,
                    [
                        StructField(f.name, self.declaration_type(f))
                        for f in definition.fields
                    ],
                )
            elif isinstance(definition, ast.UnionDef):
                self.types[definition.name] = self._compile_union(definition)
            elif isinstance(definition, ast.TypedefDef):
                self.types[definition.name] = self.declaration_type(
                    definition.declaration
                )

    def _compile_union(self, definition: ast.UnionDef) -> UnionType:
        disc_type = self.declaration_type(definition.discriminant)
        arms = [
            UnionArm(value, self.declaration_type(case.declaration))
            for case in definition.cases
            for value in case.values
        ]
        default = (
            self.declaration_type(definition.default)
            if definition.default is not None
            else None
        )
        return UnionType(definition.name, disc_type, arms, default)

    def type_for(self, spec: ast.TypeSpec) -> XdrType:
        """Resolve a bare type specifier to its codec."""
        if spec.name in _PRIMITIVES:
            return _PRIMITIVES[spec.name]
        if spec.name == "quadruple":
            raise RpclSemanticError(
                "XDR 'quadruple' (128-bit float) is not supported: Python "
                "has no native quad type and no CUDA API uses it"
            )
        if spec.name == "string":
            # A bare `string` in procedure position means an unbounded string,
            # matching rpcgen's treatment.
            return StringType(None)
        if spec.name == "opaque":
            raise RpclSemanticError(
                "'opaque' requires a declaration context (size decoration)"
            )
        if spec.name in self.types:
            return self.types[spec.name]
        # Forward or recursive reference: resolve lazily.
        return LazyRef(spec.name, self.types)

    def declaration_type(self, decl: ast.Declaration) -> XdrType:
        """Resolve a full declaration (with array/optional decorations)."""
        if decl.kind == "void":
            return VOID
        name = decl.type.name
        if name == "string":
            if decl.kind != "variable":
                raise RpclSemanticError("string declarations must use <> bounds")
            return StringType(decl.size)
        if name == "opaque":
            if decl.kind == "fixed":
                if decl.size is None:
                    raise RpclSemanticError("fixed opaque requires a size")
                return FixedOpaque(decl.size)
            if decl.kind == "variable":
                return VarOpaque(decl.size)
            raise RpclSemanticError("opaque declarations must use [] or <> bounds")
        base = self.type_for(decl.type)
        if decl.kind == "plain":
            return base
        if decl.kind == "optional":
            return OptionalType(base)
        if decl.kind == "fixed":
            if decl.size is None:
                raise RpclSemanticError("fixed array requires a size")
            return FixedArray(base, decl.size)
        if decl.kind == "variable":
            return VarArray(base, decl.size)
        raise RpclSemanticError(f"unknown declaration kind {decl.kind!r}")

    # -- program lowering ----------------------------------------------------

    def signatures(
        self, program: str, version: int
    ) -> tuple[int, int, dict[str, ProcedureSignature]]:
        """Return (prog_number, vers_number, name -> signature) for a program."""
        prog = self.spec.program(program)
        vers = prog.version(version)
        table = {
            proc.name: ProcedureSignature(
                proc.name,
                proc.number,
                tuple(self.type_for(a) for a in proc.args),
                self.type_for(proc.result),
            )
            for proc in vers.procedures
        }
        return prog.number, vers.number, table
