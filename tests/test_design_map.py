"""The docs name what exists: DESIGN.md §3's module map names every module
of ``src/repro`` and only those, and every backticked ``Class.attr`` in the
docs resolves on the class."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
import struct
import textwrap
from collections import defaultdict
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def mapped_paths() -> set[str]:
    """Every path the §3 table names, with ``{a,b}`` alternatives expanded."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("## 3.", 1)[1].split("\n## ", 1)[0]
    paths = set()
    for cell in re.findall(r"`(src/[^`]+)`", section):
        head, _, rest = cell.partition("{")
        if not rest:
            paths.add(cell)
            continue
        names, _, tail = rest.partition("}")
        paths.update(f"{head}{name}{tail}" for name in names.split(","))
    return paths


def test_every_mapped_path_exists():
    assert sorted(p for p in mapped_paths() if not (ROOT / p).is_file()) == []


def test_every_module_is_mapped():
    modules = {
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }
    assert sorted(modules - mapped_paths()) == []


DOCS = ("DESIGN.md", "docs/ARCHITECTURE.md", "README.md", "EXPERIMENTS.md")
#: a backticked ``Class.attr`` or ``Class.attr()`` (all-caps names are
#: constants or files, ``DESIGN.md``)
REFERENCE = re.compile(r"`([A-Z][a-z]\w*)\.(\w+)(?:\(\))?`")
#: classes the docs name that are not the project's
FOREIGN = {"Struct": struct.Struct}


def classes_by_name() -> dict[str, list[type]]:
    """Every class a module of ``repro`` defines, and the foreign ones."""
    found = defaultdict(list)
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found[value.__name__].append(value)
    for name, cls in FOREIGN.items():
        found[name].append(cls)
    return found


def instance_attributes(cls: type) -> set[str]:
    """What the project's code of ``cls`` and its bases assigns on ``self``
    or declares as a field: attributes no instance-free ``hasattr`` sees."""
    names = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro."):
            continue
        names.update(vars(klass).get("__annotations__", {}))
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(klass)))):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                names.add(node.attr)
    return names


def unresolved(docs: dict[str, str]) -> list[str]:
    """The ``Class.attr`` references in ``docs`` (name -> text) that name a
    class or an attribute that does not exist."""
    classes = classes_by_name()
    missing = []
    for doc, text in docs.items():
        for name, attr in REFERENCE.findall(text):
            if not any(
                hasattr(cls, attr) or attr in instance_attributes(cls)
                for cls in classes.get(name, ())
            ):
                missing.append(f"{doc}: {name}.{attr}")
    return missing


def test_every_named_class_attribute_exists():
    docs = {doc: (ROOT / doc).read_text() for doc in DOCS}
    assert unresolved(docs) == []


def test_a_stale_name_is_caught():
    docs = {"doc": "`ReconnectingTransport._open`, `CricketClient.malloc`, `NoSuchClass.x`"}
    assert unresolved(docs) == [
        "doc: ReconnectingTransport._open", "doc: NoSuchClass.x",
    ]
