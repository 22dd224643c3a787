"""DESIGN.md §3's module map names every module of ``src/repro``, and only those."""

from __future__ import annotations

import re
from pathlib import Path

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
