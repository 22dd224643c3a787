"""Option census: every settable value of a plane is selected outside the tests.

An option is a parameter, or dataclass field, with a default.  It is
selected by a site in ``src/``, ``bench/`` or ``examples/``: a keyword
``name=value`` (not ``name=name`` forwarded from a function's own
defaulted ``name``), a dict-literal key ``"name":`` (a profile's
``server={...}``) or a positional argument of a call to the covered name.
Matching is by name, so the census can miss a dead option, never invent
one.  Fault plans are out of scope: they are the fault vocabulary tests
and profiles speak.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: module -> the names it covers; every ``*Config`` class in it is covered too
COVERED = {
    "resilience/reconnect.py": ("CircuitBreaker", "ReconnectingTransport"),
    "resilience/retry.py": ("RetryPolicy",),
    "resilience/health.py": ("LatencyHistogram", "OutlierEjector"),
    "resilience/overload.py": (),
    "cricket/ckptstore.py": ("CheckpointStore",),
    "cricket/migration.py": ("MigrationSource",),
    "cricket/recovery.py": ("RecoveryLadder",),
    "cricket/replication.py": ("ReplicationLink", "make_ha_pair"),
    "cricket/server.py": ("CricketServer",),
    "oncrpc/server.py": ("RpcServer",),
    "gpu/sanitizer.py": ("Sanitizer",),
    "gpu/watchdog.py": ("KernelWatchdog",),
}

#: options that stay although only tests set them, and why
ALLOWED = {
    "CricketServer.max_sessions": "ROADMAP item 14: TenantLease takes it over",
    "CricketServer.memory_quota_bytes": "ROADMAP item 14: TenantLease takes it over",
    "RpcServer.reply_cache_size": "ROADMAP item 4: per-identity reply windows",
    "RpcServer.reply_cache_bytes": "ROADMAP item 4: per-identity reply windows",
    "RpcServer.reply_cache_entry_bytes": "ROADMAP item 4: per-identity reply windows",
    "CheckpointStore.directory": "deployment setting: where a real store lives",
}


def _params(fn) -> tuple[list[str], list[str]]:
    """(positional parameter names, names of parameters with a default)."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args]
    defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
    return positional, defaulted + [
        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
    ]


def _signature(node) -> tuple[list[str], list[str]]:
    """Positional slots and options of a covered class or function."""
    if isinstance(node, ast.FunctionDef):
        return _params(node)
    if any("dataclass" in ast.unparse(deco) for deco in node.decorator_list):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
        return [s.target.id for s in fields], [s.target.id for s in fields if s.value]
    init = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    positional, defaulted = _params(init[0]) if init else ([], [])
    return positional[1:], defaulted


class _Sites(ast.NodeVisitor):
    def __init__(self, slots: dict[str, list[str]]) -> None:
        self.slots, self.names, self._defaulted = slots, set(), [set()]

    def _scoped(self, node) -> None:
        self._defaulted.append(set(_params(node)[1]))
        self.generic_visit(node)
        self._defaulted.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _scoped

    def visit_Call(self, node: ast.Call) -> None:
        for kw in node.keywords:
            value = kw.value.id if isinstance(kw.value, ast.Name) else None
            if kw.arg and not (value == kw.arg and value in self._defaulted[-1]):
                self.names.add(kw.arg)
        callee = getattr(node.func, "id", getattr(node.func, "attr", ""))
        plain = [a for a in node.args if not isinstance(a, ast.Starred)]
        self.names.update(self.slots.get(callee, [])[: len(plain)])
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self.names.update(
            k.value for k in node.keys if isinstance(k, ast.Constant) and isinstance(k.value, str)
        )
        self.generic_visit(node)


@cache
def unselected() -> tuple[str, ...]:
    """Every covered option no site selects (parses the tree once per run)."""
    table = {}
    for module, names in COVERED.items():
        for node in ast.parse((ROOT / "src" / "repro" / module).read_text()).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and (
                node.name in names
                or (isinstance(node, ast.ClassDef) and node.name.endswith("Config"))
            ):
                table[node.name] = _signature(node)
    sites = _Sites({name: slots for name, (slots, _) in table.items()})
    for root in ("src", "bench", "examples"):
        for path in sorted((ROOT / root).rglob("*.py")):
            sites.visit(ast.parse(path.read_text()))
    return tuple(
        f"{name}.{option}"
        for name, (_, options) in table.items()
        for option in options
        if option not in sites.names
    )


def test_every_option_is_selected_outside_the_tests():
    unset = [value for value in unselected() if value not in ALLOWED]
    assert unset == [], f"set only by tests: make each a constant or delete it: {unset}"


def test_every_allowance_is_still_needed():
    assert sorted(set(ALLOWED) - set(unselected())) == []
