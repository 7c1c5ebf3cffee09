"""The public surface is the CLI plus what the acceptance gate and the
benchmark use. Every function and class of the package is named somewhere
outside its own def line: in the package, in perfbench or in the acceptance
gate. The package root binds only __version__."""

import ast
import graphlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "semicontract"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py")),
         ROOT / "tests" / "test_acceptance.py"]


def _definitions(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_every_definition_is_named_outside_its_def_line():
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in USERS}
    unused = []
    for module in MODULES:
        for name, lineno in _definitions(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line)
                       for path, lines in texts.items()
                       for k, line in enumerate(lines, 1)
                       if not (path == module and k == lineno)):
                unused.append(f"{module.name}:{lineno} {name}")
    assert unused == []


def test_package_root_binds_only_the_version():
    code = ("import semicontract; "
            "print(sorted(n for n in vars(semicontract) if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}).stdout
    assert out.strip() == "[]"


def test_no_module_keeps_hidden_global_state():
    # state lives on the objects it describes: no ContextVar, no global statement
    found = []
    for module in MODULES:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            named = (getattr(node, "id", None), getattr(node, "attr", None))
            if isinstance(node, ast.Global) or "ContextVar" in named:
                found.append(f"{module.name}:{node.lineno}")
    assert found == []


def test_the_package_import_graph_has_no_cycle():
    # edges are the module-level relative imports, which run at import time;
    # `from . import x` reaches the package root unless x is a module
    modules = {path.stem for path in MODULES}
    graph = {}
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        edges = graph.setdefault(path.stem, set())
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                edges.update(name if name in modules else "__init__" for name in names)
    assert "subspaces" in graph["system"]
    graphlib.TopologicalSorter(graph).prepare()  # CycleError names the cycle


# nested imports that are allowed, each a standard-library module and so no
# part of the package's import graph: run_reproduction imports
# multiprocessing, which costs some 8 ms, so that no other command pays it
LAZY_IMPORTS = {("reproduce.py", "multiprocessing")}


def test_every_import_is_at_module_level():
    # the cycle test reads the module-level imports only, so an import inside
    # a function or a block could hide a cycle
    nested = []
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body:
                names = [node.module] if isinstance(node, ast.ImportFrom) else \
                    [alias.name for alias in node.names]
                if not all((path.name, name) in LAZY_IMPORTS for name in names):
                    nested.append(f"{path.name}:{node.lineno}")
    assert nested == []


def test_every_module_level_import_is_used():
    # a name an import binds is read elsewhere in its module, so deleting the
    # last use of a name deletes its import too
    unused = []
    for path in [*MODULES, PACKAGE / "__init__.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                    getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]  # import a.b binds a
                if name not in read:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_only_cli_main_prints_the_error_kinds():
    # commands raise UsageError, ConfigError or OSError, and cli.main alone
    # turns each into its stderr prefix and exit code
    prefixes = ("usage error:", "config error:", "output error:")
    printed = {prefix: [] for prefix in prefixes}
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    for prefix in prefixes:
                        if prefix in sub.value:
                            printed[prefix].append(f"{path.stem}.{getattr(node, 'name', '')}")
    assert printed == {prefix: ["cli.main"] for prefix in prefixes}
