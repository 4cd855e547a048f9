"""Import guards for the package modules, with the stdlib ``ast`` only.

A module's import is used when its bound name appears as a name anywhere in
the module (attribute roots such as ``np`` in ``np.zeros`` included).
``from __future__`` imports are exempt, and the package root, which imports
nothing, has a test of its own. The unused-import guard also reads the test
and tool scripts. Every import sits at module level, so the imports between
``skqe`` modules form a graph, and that graph has no cycle. Every public
function of ``autodiff`` is used by the package itself: another module names
it as ``ad.<name>``, or a ``Tensor`` method calls it.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skqe"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "tools").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def nested_imports(source: str) -> list[int]:
    """Lines of the imports that are not statements of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]


def package_imports(source: str, modules: set[str]) -> set[str]:
    """The package modules that a module imports: ``from . import m``,
    ``from .m import x``, ``import skqe.m`` and ``from skqe.m import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1:
                base = f"skqe.{base}" if base else "skqe"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if len(parts) > 1 and parts[0] == "skqe" and parts[1] in modules:
                found.add(parts[1])
    return found


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path of module names, or None."""
    state: dict[str, int] = {}  # 1 on the current path, 2 done
    path: list[str] = []

    def visit(name):
        state[name] = 1
        path.append(name)
        for target in sorted(graph.get(name, ())):
            if state.get(target) == 1:
                return path[path.index(target):] + [target]
            if target not in state:
                cycle = visit(target)
                if cycle:
                    return cycle
        path.pop()
        state[name] = 2
        return None

    for name in sorted(graph):
        if name not in state:
            cycle = visit(name)
            if cycle:
                return cycle
    return None


def unused_primitives(autodiff_source: str, other_sources: list[str]) -> list[str]:
    """The public module-level functions of ``autodiff_source`` that no other
    source names as ``ad.<name>`` and no method of its ``Tensor`` calls."""
    tree = ast.parse(autodiff_source)
    public = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    used = {node.attr for source in other_sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ad"}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Tensor":
            used |= {node.func.id for node in ast.walk(cls)
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    return [name for name in public if name not in used]


def import_graph() -> dict[str, set[str]]:
    names = {p.stem for p in MODULES}
    return {p.stem: package_imports(p.read_text(encoding="utf-8"), names) for p in MODULES}


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"algebra", "cli", "evaluation", "logic", "training"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports_in_tests_and_tools(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport numpy as np\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 2: json"]


@pytest.mark.parametrize("path", [PACKAGE / "__init__.py", *MODULES], ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_nested_import():
    source = ("import numpy as np\n\ndef f():\n    from .evaluation import x\n    return x\n\n"
              "if np:\n    import json\n")
    assert nested_imports(source) == [4, 8]


def test_package_modules_import_no_cycle():
    graph = import_graph()
    assert graph["training"] >= {"model"}
    assert "training" not in graph["evaluation"]
    assert find_cycle(graph) is None


@pytest.mark.parametrize("name", ["training", "model"])
def test_query_model_imports_neither_evaluation_nor_the_answer_size_head(name):
    assert not import_graph()[name] & {"evaluation", "cardinality"}


def test_guard_sees_an_import_cycle():
    modules = {"a", "b", "c"}
    sources = {
        "a": "from . import b\n",
        "b": "from .c import thing\n",
        "c": "import skqe.a\n",
    }
    graph = {name: package_imports(source, modules) for name, source in sources.items()}
    assert graph == {"a": {"b"}, "b": {"c"}, "c": {"a"}}
    assert find_cycle(graph) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None


def test_every_autodiff_primitive_is_used_by_the_package():
    others = [p.read_text(encoding="utf-8") for p in MODULES if p.stem != "autodiff"]
    assert unused_primitives((PACKAGE / "autodiff.py").read_text(encoding="utf-8"),
                             others) == []


def test_guard_sees_an_unused_primitive():
    source = ("class Tensor:\n    def __neg__(self):\n        return mul(self, -1.0)\n\n"
              "def mul(a, b): pass\ndef exp(a): pass\ndef spare(a): pass\n"
              "def _helper(a): pass\n")
    assert unused_primitives(source, ["from . import autodiff as ad\nad.exp(x)\n",
                                      "spare = 1\n"]) == ["spare"]


def test_package_root_binds_its_version_and_nothing_else():
    """``import skqe`` in a fresh interpreter loads none of the package's
    modules and binds ``__version__`` and no re-exported name. The package
    comes from this checkout's ``src``, as ``perfbench/run.py`` checks."""
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import skqe; "
              "print(skqe.__file__); print(skqe.__version__); "
              "print(sorted(n for n in vars(skqe) if not n.startswith('__'))); "
              "print(sorted(m for m in sys.modules if m.startswith('skqe.')))")
    done = subprocess.run([sys.executable, "-I", "-c", script, str(PACKAGE.parent)],
                          capture_output=True, text=True, check=True)
    path, version, names, modules = done.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(PACKAGE.parent)
    assert version == "0.1.0"
    assert names == modules == "[]"
