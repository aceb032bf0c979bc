"""AST scans in place of a linter.

Every module-level import is used. An import counts as module level when it
sits in the module body or in an if/try block there (``if TYPE_CHECKING:``, a
fallback import), not inside a function or class. Its name is used when the
module loads it anywhere or lists it in ``__all__``; ``from __future__``
imports are skipped.

Only ``contregen.backend_io`` opens, reads or writes files: no other package
module calls ``open`` or a method named ``open``, ``read_text``,
``read_bytes``, ``write_text`` or ``write_bytes``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "perfbench")


def _module_imports(body):
    """(bound name, line) of each import in a block of module-level statements."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            handlers = getattr(node, "handlers", ())
            for block in (node.body, node.orelse, getattr(node, "finalbody", ()),
                          *(handler.body for handler in handlers)):
                yield from _module_imports(block)


def _used_names(tree) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each module-level import of path whose name is unused."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    return [(line, name) for name, line in _module_imports(tree.body) if name not in used]


def test_every_module_level_import_is_used():
    modules = sorted(path for folder in SCANNED for path in (ROOT / folder).rglob("*.py"))
    assert len(modules) > 20  # the scan found the tree
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in modules for line, name in unused_imports(path)] == []


def test_scan_flags_an_unused_import_and_spares_used_ones(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json as j\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    import requests\n"
        "try:\n"
        "    from fast import thing\n"
        "except ImportError:\n"
        "    from slow import thing\n"
        "__all__ = ['thing']\n"
        "def f(session: requests.Session) -> Optional[str]:\n"
        "    import sys\n"
        "    return j.dumps(1)\n", encoding="utf-8")
    assert unused_imports(module) == [(2, "os")]


_FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_io_calls(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each call of open or of a file method in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS:
            calls.append((node.lineno, func.attr))
    return sorted(calls)


def test_only_backend_io_touches_files():
    package = ROOT / "src" / "contregen"
    modules = sorted(path for path in package.rglob("*.py") if path.name != "backend_io.py")
    assert len(modules) > 10  # the scan found the package
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in modules for line, name in file_io_calls(path)] == []


def test_file_io_scan_flags_each_call_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from pathlib import Path\n"
        "from contregen.backend_io import read_text\n"
        "open('a')\n"
        "Path('a').open()\n"
        "Path('a').read_text()\n"
        "Path('a').write_bytes(b'')\n"
        "read_text('a', 'file')\n", encoding="utf-8")
    assert file_io_calls(module) == [(3, "open"), (4, "open"), (5, "read_text"),
                                     (6, "write_bytes")]
