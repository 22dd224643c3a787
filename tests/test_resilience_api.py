"""The public surface of :mod:`repro.resilience` is complete and honest.

Two invariants, checked mechanically so they cannot rot:

* every name in ``__all__`` actually resolves on the package (no stale
  exports surviving a refactor), and
* every name that tests/ or examples/ import *from* the package (or its
  ``simulation`` subpackage) is declared in the corresponding ``__all__``
  -- the consumers in this repo define the supported surface, so an
  import that works only by accident of a submodule re-export fails
  here first.
"""

import ast
from pathlib import Path

import repro.resilience as resilience
import repro.resilience.simulation as simulation

REPO = Path(__file__).resolve().parent.parent


def _imported_names(module_name: str) -> dict[str, list[str]]:
    """Map ``file -> names`` for ``from <module_name> import ...`` across
    every test and example in the repo."""
    uses: dict[str, list[str]] = {}
    for root in ("tests", "examples"):
        for path in sorted((REPO / root).glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            names = [
                alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module == module_name
                for alias in node.names
            ]
            if names:
                uses[f"{root}/{path.name}"] = names
    return uses


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in resilience.__all__:
            assert hasattr(resilience, name), f"stale export: {name}"

    def test_simulation_all_names_resolve(self):
        for name in simulation.__all__:
            assert hasattr(simulation, name), f"stale export: {name}"

    def test_no_duplicate_exports(self):
        assert len(resilience.__all__) == len(set(resilience.__all__))
        assert len(simulation.__all__) == len(set(simulation.__all__))


class TestConsumersCovered:
    def test_package_imports_are_declared(self):
        exported = set(resilience.__all__)
        for where, names in _imported_names("repro.resilience").items():
            missing = [n for n in names if n != "*" and n not in exported]
            assert not missing, f"{where} imports undeclared {missing}"

    def test_simulation_imports_are_declared(self):
        exported = set(simulation.__all__)
        uses = _imported_names("repro.resilience.simulation")
        assert uses, "no consumer imports the simulation package?"
        for where, names in uses.items():
            missing = [n for n in names if n != "*" and n not in exported]
            assert not missing, f"{where} imports undeclared {missing}"
