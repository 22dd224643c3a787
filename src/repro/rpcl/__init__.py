"""RPCL (Remote Procedure Call Language) compiler.

The Python analogue of RPC-Lib's build-time code generation: parse an RPCL
interface specification (the same language ``rpcgen`` consumes and Cricket's
``cpu_rpc_prot.x`` is written in) and produce callable client stubs and
server dispatch tables.

Pipeline::

    source (.x text)
      -> lexer  (repro.rpcl.lexer)
      -> parser (repro.rpcl.parser)    -> AST (repro.rpcl.ast)
      -> compiler (repro.rpcl.compiler) -> XDR codecs + signatures
      -> stubgen (repro.rpcl.stubgen)   -> dynamic ClientStub / server table
      -> codegen (repro.rpcl.codegen)   -> standalone Python source (rpcgen)
"""

from repro._lazy import lazy_namespace

__getattr__, __dir__, __all__ = lazy_namespace(
    __name__,
    {
        "parser": ("parse",),
        "codegen": ("generate_module",),
        "compiler": ("SpecCompiler", "ProcedureSignature"),
        "stubgen": ("ProgramInterface", "ClientStub", "bind_client"),
        "errors": ("RpclError", "RpclSyntaxError", "RpclSemanticError"),
    },
)
