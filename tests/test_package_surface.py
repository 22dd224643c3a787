"""Every package namespace of :mod:`repro` is complete, honest and lazy.

The package ``__init__``s are lazy namespaces (:mod:`repro._lazy`): each
names its exports and the submodule that defines them, and imports
nothing until a name is read.  Checked mechanically for all of them:

* every name in ``__all__`` resolves and ``dir()`` lists it;
* every name that tests/ or examples/ import *from* a package is declared
  in its ``__all__`` (or is one of its submodules) -- the consumers in
  this repo define the supported surface;
* the simulator's entry points are reachable at :mod:`repro.resilience`
  without knowing the subpackage layout;
* submodules stay reachable as attributes, and a fresh
  ``from repro.cricket import CricketClient, CricketServer`` -- what a
  client or a server process imports -- loads neither SciPy nor any
  subsystem the serve path does not run.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: every package under src/repro, by dotted name
NAMESPACES = sorted(
    ".".join(init.parent.relative_to(SRC).parts) for init in SRC.rglob("__init__.py")
)

#: modules the serve path never runs, so the serve imports must not load them
NOT_SERVED = (
    "scipy",
    "repro.apps",
    "repro.core",
    "repro.harness",
    "repro.resilience.simulation",
    "repro.resilience.seeds",
    "repro.cricket.migration",
    "repro.cricket.ckptstore",
    "repro.cricket.replication",
    "repro.cricket.scheduler",
    "repro.cricket.transfer",
    "repro.oncrpc.portmap",
    "repro.rpcl.codegen",
    "repro.cubin.ptx",
)


def _submodules(package: str) -> set[str]:
    directory = SRC.joinpath(*package.split("."))
    return {p.stem for p in directory.glob("*.py") if p.stem != "__init__"} | {
        p.parent.name for p in directory.glob("*/__init__.py")
    }


@functools.cache
def _imported_names() -> dict[str, dict[str, list[str]]]:
    """``package -> file -> names`` for ``from <package> import ...`` across
    every test and example in the repo."""
    packages = set(NAMESPACES)
    uses: dict[str, dict[str, list[str]]] = {}
    for root in ("tests", "examples"):
        for path in sorted((REPO / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module in packages:
                    where = str(path.relative_to(REPO))
                    names = uses.setdefault(node.module, {}).setdefault(where, [])
                    names.extend(alias.name for alias in node.names)
    return uses


def _fresh(code: str) -> str:
    """Run *code* in a new interpreter that finds ``repro``; its stdout."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_package_is_covered():
    assert {"repro", "repro.cricket", "repro.resilience.simulation"} <= set(NAMESPACES)
    for package in NAMESPACES:
        module = import_module(package)
        assert callable(getattr(module, "__getattr__", None)), f"{package} is not lazy"


def test_simulation_api_reexported_at_package_level():
    exported = import_module("repro.resilience").__all__
    for name in (
        "SimulationPlan", "run_simulation", "shrink_schedule", "save_trace", "load_trace",
        "replay_trace", "HistoryChecker", "NemesisEvent", "generate_schedule",
    ):
        assert name in exported, name


@pytest.mark.parametrize("package", NAMESPACES)
class TestPackageSurface:
    def test_all_names_resolve(self, package):
        module = import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert hasattr(module, name), f"stale export: {package}.{name}"
            assert name in listed, f"dir({package}) misses {name}"

    def test_no_duplicate_exports(self, package):
        exported = import_module(package).__all__
        assert len(exported) == len(set(exported))

    def test_consumer_imports_are_declared(self, package):
        exported = set(import_module(package).__all__) | _submodules(package)
        for where, names in _imported_names().get(package, {}).items():
            missing = [n for n in names if n != "*" and n not in exported]
            assert not missing, f"{where} imports undeclared {missing} from {package}"


@functools.cache
def _serve_then_lu() -> dict:
    """A fresh process imports what a client or server imports, then runs
    one LU on an executing device."""
    return json.loads(_fresh(
        "import json, sys\n"
        "from repro.cricket import CricketClient, CricketServer\n"
        "served = sorted(sys.modules)\n"
        "import numpy as np\n"
        "from repro.cuda import CusolverContext\n"
        "from repro.gpu import GpuDevice\n"
        "device = GpuDevice(mem_bytes=1 << 20)\n"
        "solver = CusolverContext(device)\n"
        "_, handle = solver.cusolverDnCreate()\n"
        "a, ipiv, info = device.alloc(32), device.alloc(8), device.alloc(4)\n"
        "device.allocator.write(a, np.array([1.0, 4.0, 2.0, 3.0]).tobytes())\n"
        "status = solver.cusolverDnDgetrf(handle, 2, 2, a, 2, 0, ipiv, info)\n"
        "lu = np.frombuffer(device.allocator.view(a, 32).tobytes()).tolist()\n"
        "print(json.dumps({'served': served, 'status': status, 'lu': lu,\n"
        "                  'scipy': 'scipy' in sys.modules}))\n"
    ))


class TestFreshProcess:
    def test_serve_imports_stay_small(self):
        unwanted = [
            module for module in _serve_then_lu()["served"]
            if any(module == n or module.startswith(n + ".") for n in NOT_SERVED)
        ]
        assert not unwanted, f"the serve imports load {unwanted}"

    def test_scipy_loads_at_the_first_lu(self):
        run = _serve_then_lu()
        assert "scipy" not in run["served"]
        assert run["status"] == 0 and run["scipy"]
        # column-major [[1, 2], [4, 3]]: pivot row 2, L21 = 1/4, U22 = 2 - 3/4
        assert run["lu"] == [4.0, 0.25, 3.0, 1.25]

    def test_submodules_and_readme_quickstart(self):
        out = _fresh(
            "import repro\n"
            "print(repro.cuda.constants.cudaSuccess, repro.cricket.server.__name__,\n"
            "      repro.resilience.simulation.harness.__name__)\n"
            "from repro import GpuSession, SessionConfig, __version__\n"
            "print(GpuSession.__module__, SessionConfig.__module__, __version__)\n"
        )
        assert out.split() == [
            "0", "repro.cricket.server", "repro.resilience.simulation.harness",
            "repro.core.session", "repro.core.config", "1.0.0",
        ]


class TestLazyNamespace:
    """The helper itself, on a throwaway package."""

    @pytest.fixture
    def package(self, tmp_path, monkeypatch):
        root = tmp_path / "lazypkg"
        root.mkdir()
        (root / "__init__.py").write_text(
            "from repro._lazy import lazy_namespace\n"
            "__getattr__, __dir__, __all__ = lazy_namespace(\n"
            "    __name__, {'impl': ('VALUE',)}, submodules=('extra',))\n"
        )
        (root / "impl.py").write_text("VALUE = 42\n")
        (root / "extra.py").write_text("NAME = 'extra'\n")
        (root / "broken.py").write_text("import lazypkg_missing_dependency\n")
        (root / "__wrapped__.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        yield import_module("lazypkg")
        for name in [m for m in sys.modules if m.split(".")[0] == "lazypkg"]:
            del sys.modules[name]

    def test_names_load_on_first_read(self, package):
        assert "lazypkg.impl" not in sys.modules
        assert package.__all__ == ["extra", "VALUE"]
        assert package.VALUE == 42
        assert "lazypkg.impl" in sys.modules
        assert vars(package)["VALUE"] == 42  # cached: __getattr__ runs once

    def test_submodule_attribute(self, package):
        assert package.extra.NAME == "extra"
        assert "extra" in dir(package)

    def test_a_broken_submodule_is_not_hidden(self, package):
        with pytest.raises(ModuleNotFoundError, match="lazypkg_missing_dependency"):
            package.broken

    def test_unknown_name_is_an_attribute_error(self, package):
        assert not hasattr(package, "no_such_export")
        with pytest.raises(AttributeError, match="'lazypkg' has no attribute 'no_such_export'"):
            package.no_such_export

    def test_a_dunder_probe_imports_nothing(self, package):
        # tools probe modules for protocol names (inspect.unwrap: __wrapped__)
        assert not hasattr(package, "__wrapped__")
        assert "lazypkg.__wrapped__" not in sys.modules
