"""Lazy package namespaces (PEP 562).

A package ``__init__`` declares what it re-exports and which submodule
defines each name; nothing is imported until a name is first read.  A
process then loads the modules its code uses, not every module a package
happens to contain: ``from repro.cricket import CricketServer`` imports
the server and what the server imports, not migration or the checkpoint
store.  Every submodule is also an attribute (``repro.cuda.constants``).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Iterable, Mapping


def lazy_namespace(
    package: str,
    exports: Mapping[str, Iterable[str]],
    submodules: Iterable[str] = (),
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps a submodule (relative name) to the names it provides;
    *submodules* are exported as modules.  A resolved name is stored in
    the package's namespace, so ``__getattr__`` runs once per name.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    public = [*submodules, *origin]
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):  # a protocol probe, never a submodule
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted({*namespace, *public})

    return __getattr__, __dir__, public
