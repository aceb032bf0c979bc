"""AST scans in place of a linter.

Every module-level import is used. An import counts as module level when it
sits in the module body or in an if/try block there (``if TYPE_CHECKING:``, a
fallback import), not inside a function or class. Its name is used when the
module loads it anywhere or lists it in ``__all__``; ``from __future__``
imports are skipped.

Only ``contregen.backend_io`` opens, reads, writes, locks, renames or removes
files: no other package module calls ``open``, a method named ``open``,
``read_text``, ``read_bytes``, ``write_text``, ``write_bytes``, ``mkdir``,
``unlink``, ``rmdir``, ``touch``, ``truncate``, ``rename``, ``flock`` or
``lockf``, or ``os.replace`` or ``os.remove`` (a temporary file renamed over
its target is built from these; ``str.replace`` and ``list.remove`` are
spared).

No package module imports ``yaml`` or ``requests`` when it is itself
imported: an import of either (or of a submodule) sits inside a function, or
in an ``if TYPE_CHECKING:`` block, so only a command that reads a config file
or talks to a network backend pays for loading it.

Every function, method and class of the package is read somewhere that
ships or measures it: its name is loaded, as a name or an attribute, by a
package module or a ``perfbench/`` file, or it is part of a perfbench target
string (``"contregen.llm:LlmCache.get"``). Reads from ``tests/`` and entries
in ``__all__`` do not count; dunder methods, which Python calls, are spared.

Every attribute a package class stores as ``self.<name> = ...`` is loaded as
an attribute by a package module or a ``perfbench/`` file; reads from
``tests/`` do not count.

Only ``contregen.backend_io`` parses JSON: no other package module calls
``json.loads`` or ``json.load``, under any name it imports them by, or
names the decoder's scanner (``JSONDecoder``, ``scan_once``, ``_scan_once``,
``make_scanner``) in an import, a name or an attribute, so every parse maps
too deep or too long a value to a data error. ``RunTrace.to_dict`` is spared
by name: it parses only the trace its own class serialized.

Only ``contregen.backend_io`` (the cache keys) and ``contregen.corpus`` (the
corpus fingerprint) import ``hashlib``, at any depth, so a cache key has one
writer, ``JsonlCache.digest``, and no fast path grows a second.

Only ``contregen.retrieval`` reads an attribute named ``fingerprint``, to call
it or otherwise, so the corpus is hashed only when a retrieval cache key asks
for its fingerprint, and no constructor or command hashes it eagerly.

``INT_FLOORS`` is assigned, or has an item assigned, exactly once in the
package, so each run parameter's floor has one home.

No function or class field in ``tree``, ``baselines``, ``planner`` or
``verifier`` gives a default to a parameter named ``topk``, ``max_depth``,
``max_plan_size``, ``max_iterations`` or ``dedup``, so ``RunConfig`` is the
one home of their defaults and the engine API takes each of them explicitly.
"""

import ast
import re
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


_FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes",
                 "mkdir", "unlink", "rmdir", "touch", "truncate", "rename", "flock", "lockf"}
_OS_FILE_FUNCTIONS = {"replace", "remove"}  # os.<name> only: not str.replace, list.remove


def file_io_calls(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each call of open, of a file method or of an os file
    function in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append((node.lineno, "open"))
        elif isinstance(func, ast.Attribute) and (
                func.attr in _FILE_METHODS
                or (func.attr in _OS_FILE_FUNCTIONS
                    and isinstance(func.value, ast.Name) and func.value.id == "os")):
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
        "import os\n"
        "from pathlib import Path\n"
        "from contregen.backend_io import read_text\n"
        "open('a')\n"
        "Path('a').open()\n"
        "Path('a').read_text()\n"
        "Path('a').write_bytes(b'')\n"
        "read_text('a', 'file')\n"
        "Path('a').parent.mkdir(parents=True)\n"
        "Path('a').unlink(missing_ok=True)\n"
        "Path('a').rmdir()\n"
        "Path('a').touch()\n"
        "fh.truncate(0)\n"
        "os.replace('a', 'b')\n"
        "os.rename('a', 'b')\n"
        "os.remove('a')\n"
        "os.unlink('a')\n"
        "Path('a').rename('b')\n"
        "'a-b'.replace('-', '_')\n"
        "[1].remove(1)\n"
        "fcntl.flock(fh, fcntl.LOCK_EX)\n"
        "fcntl.lockf(fh.fileno(), fcntl.LOCK_UN)\n", encoding="utf-8")
    assert file_io_calls(module) == [
        (4, "open"), (5, "open"), (6, "read_text"), (7, "write_bytes"), (9, "mkdir"),
        (10, "unlink"), (11, "rmdir"), (12, "touch"), (13, "truncate"), (14, "replace"),
        (15, "rename"), (16, "remove"), (17, "unlink"), (18, "rename"), (21, "flock"),
        (22, "lockf")]


_DEFERRED_MODULES = {"yaml", "requests"}


def eager_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) of each import of a deferred module that runs when path
    is imported: one outside every function and every ``if TYPE_CHECKING:``
    body."""
    found = []
    pending = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))]
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            pending += node.orelse
            continue
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name.split(".")[0] in _DEFERRED_MODULES]
        elif (isinstance(node, ast.ImportFrom) and not node.level
              and node.module.split(".")[0] in _DEFERRED_MODULES):
            found.append((node.lineno, node.module))
        pending += ast.iter_child_nodes(node)
    return sorted(found)


def test_yaml_and_requests_are_imported_only_where_used():
    modules = sorted((ROOT / "src" / "contregen").rglob("*.py"))
    assert len(modules) > 10  # the scan found the package
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path in modules for line, name in eager_imports(path)] == []


def test_eager_import_scan_spares_functions_and_type_checking(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import TYPE_CHECKING\n"
        "import yaml\n"
        "import requests.adapters as ra, json\n"
        "from requests import Session\n"
        "from .yaml import local\n"
        "import yamlish\n"
        "if TYPE_CHECKING:\n"
        "    import requests\n"
        "else:\n"
        "    import yaml\n"
        "try:\n"
        "    import requests\n"
        "except ImportError:\n"
        "    pass\n"
        "def load():\n"
        "    import yaml\n"
        "class Client:\n"
        "    import requests\n"
        "    def __init__(self):\n"
        "        from requests import Session\n", encoding="utf-8")
    assert eager_imports(module) == [
        (2, "yaml"), (3, "requests.adapters"), (4, "requests"), (10, "yaml"),
        (12, "requests"), (18, "requests")]


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TARGET_RE = re.compile(r"contregen(?:\.\w+)+:([\w.]+)")


def _parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _read_names(tree) -> set[str]:
    """The names a module reads: each name or attribute it loads, and each
    part of a ``"module:Class.attr"`` target string it holds."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            target = _TARGET_RE.fullmatch(node.value)
            if target:
                names.update(target.group(1).split("."))
    return names


def unread_definitions(package: list[Path], readers: list[Path]) -> list[tuple[Path, int, str]]:
    """(path, line, name) of each function, method or class defined in a
    package module whose name no package module and no reader reads."""
    trees = {path: _parse(path) for path in package}
    read = set().union(*map(_read_names, trees.values()),
                       *(_read_names(_parse(path)) for path in readers))
    return sorted((path, node.lineno, node.name)
                  for path, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, _DEFINITIONS) and node.name not in read
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def test_every_package_definition_is_read_outside_the_tests():
    package = sorted((ROOT / "src" / "contregen").rglob("*.py"))
    readers = sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(package) > 10 and readers  # the scan found the package and perfbench
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in unread_definitions(package, readers)] == []


def test_unread_scan_flags_definitions_only_all_lists(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "__all__ = ['exported']\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self.items = {}\n"
        "    def get(self, key):\n"
        "        return self.items[key]\n"
        "    def traced(self):\n"
        "        pass\n"
        "    def unused(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return Store().get('k')\n"
        "def exported():\n"
        "    pass\n"
        "class Unused:\n"
        "    pass\n", encoding="utf-8")
    caller = tmp_path / "caller.py"
    caller.write_text("from sample import helper\nhelper()\n", encoding="utf-8")
    bench = tmp_path / "bench.py"
    bench.write_text("TARGETS = ['contregen.sample:Store.traced']\n", encoding="utf-8")
    found = unread_definitions([module, caller], [bench])
    assert [(line, name) for _, line, name in found] == [(9, "unused"), (13, "exported"),
                                                         (15, "Unused")]


def _attribute_reads(tree) -> set[str]:
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_attributes(package: list[Path], readers: list[Path]) -> list[tuple[Path, int, str]]:
    """(path, line, "Class.name") of each ``self.<name>`` store in a package
    class whose name no package module and no reader loads as an attribute.

    Like unread_definitions it matches by name alone, so a stored attribute
    that shares its name with one read anywhere else escapes it (such as
    ``MalformedRecordError``'s ``path`` and ``reason`` or
    ``TemplateRenderError``'s ``role``). Dataclass fields are declarations,
    not stores, and are out of scope: some are read only through ``asdict``.
    """
    trees = {path: _parse(path) for path in package}
    read = set().union(*map(_attribute_reads, trees.values()),
                       *(_attribute_reads(_parse(path)) for path in readers))
    return sorted((path, node.lineno, f"{cls.name}.{node.attr}")
                  for path, tree in trees.items() for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for node in ast.walk(cls)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and isinstance(node.value, ast.Name) and node.value.id == "self"
                  and node.attr not in read)


def test_every_stored_attribute_is_read_outside_the_tests():
    package = sorted((ROOT / "src" / "contregen").rglob("*.py"))
    readers = sorted((ROOT / "perfbench").rglob("*.py"))
    assert len(package) > 10 and readers  # the scan found the package and perfbench
    assert [f"{path.relative_to(ROOT)}:{line}: {name}"
            for path, line, name in unread_attributes(package, readers)] == []


def test_attribute_scan_flags_self_stores_nothing_reads(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "class Store:\n"
        "    def __init__(self, items):\n"
        "        self.items = items\n"
        "        self.hits = 0\n"
        "        self.traced = 0\n"
        "        self.unread = None\n"
        "    def get(self, key):\n"
        "        self.hits += 1\n"
        "        return self.items[key]\n"
        "def reset(store):\n"
        "    store.unread = None\n"
        "@dataclass\n"
        "class Row:\n"
        "    seed: str = ''\n", encoding="utf-8")
    bench = tmp_path / "bench.py"
    bench.write_text("print(STORE.traced)\n", encoding="utf-8")
    found = unread_attributes([module], [bench])
    assert [(line, name) for _, line, name in found] == [
        (5, "Store.hits"), (7, "Store.unread"), (9, "Store.hits")]


_JSON_PARSERS = {"load", "loads"}
_JSON_SCANNERS = {"JSONDecoder", "scan_once", "_scan_once", "make_scanner"}
_JSON_PARSE_SPARED = {"RunTrace.to_dict"}  # parses only what its own class wrote


def json_parse_calls(path: Path) -> list[tuple[int, str]]:
    """(line, enclosing "Class.function" or "<module>") of each call of
    json.loads or json.load in path, through ``import json [as name]`` or
    ``from json import loads [as name]``, and of each import, name or
    attribute of the decoder's scanner, outside _JSON_PARSE_SPARED."""
    tree = _parse(path)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json" and not node.level:
            functions |= {alias.asname or alias.name for alias in node.names
                          if alias.name in _JSON_PARSERS}
    calls = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _DEFINITIONS):
                visit(child, (*scope, child.name))
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if ((isinstance(func, ast.Name) and func.id in functions)
                    or (isinstance(func, ast.Attribute) and func.attr in _JSON_PARSERS
                        and isinstance(func.value, ast.Name) and func.value.id in modules)
                    or getattr(child, "id", getattr(child, "attr", None)) in _JSON_SCANNERS
                    or (isinstance(child, (ast.Import, ast.ImportFrom))
                        and any(alias.name in _JSON_SCANNERS for alias in child.names))):
                where = ".".join(scope) or "<module>"
                if where not in _JSON_PARSE_SPARED:
                    calls.append((child.lineno, where))
            visit(child, scope)

    visit(tree, ())
    return sorted(calls)


def test_only_backend_io_parses_json():
    package = ROOT / "src" / "contregen"
    modules = sorted(path for path in package.rglob("*.py") if path.name != "backend_io.py")
    assert len(modules) > 10  # the scan found the package
    assert [f"{path.relative_to(ROOT)}:{line}: {where}"
            for path in modules for line, where in json_parse_calls(path)] == []


def test_json_parse_scan_flags_each_call_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\n"
        "import json as j\n"
        "from json import loads, load as read_all\n"
        "json.loads('1')\n"
        "json.load(fh)\n"
        "j.loads('1')\n"
        "loads('1')\n"
        "read_all(fh)\n"
        "json.dumps(1)\n"
        "yaml.load(fh)\n"
        "other.loads('1')\n"
        "class RunTrace:\n"
        "    def to_dict(self):\n"
        "        return json.loads('1')\n"
        "    def from_text(self, text):\n"
        "        return [json.loads(t) for t in text]\n"
        "def to_dict():\n"
        "    return j.load(fh)\n", encoding="utf-8")
    assert json_parse_calls(module) == [
        (4, "<module>"), (5, "<module>"), (6, "<module>"), (7, "<module>"), (8, "<module>"),
        (16, "RunTrace.from_text"), (18, "to_dict")]


def test_json_parse_scan_flags_each_form_of_the_scanner(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\n"
        "import json.scanner\n"
        "from json import JSONDecoder\n"
        "from json.decoder import JSONDecoder as Decoder\n"
        "from contregen.backend_io import _scan_once\n"
        "from json.scanner import make_scanner\n"
        "json.JSONDecoder()\n"
        "json.decoder.JSONDecoder().raw_decode('1')\n"
        "decoder.scan_once('1', 0)\n"
        "scan = _scan_once\n"
        "json.scanner.make_scanner(context)\n"
        "json.dumps(1)\n"
        "json.JSONEncoder()\n"
        "def read(text, scan_once=None):\n"
        "    return JSONDecoder().decode(text)\n"
        "class RunTrace:\n"
        "    def to_dict(self):\n"
        "        return json.JSONDecoder().decode('1')\n", encoding="utf-8")
    assert json_parse_calls(module) == [
        (3, "<module>"), (4, "<module>"), (5, "<module>"), (6, "<module>"), (7, "<module>"),
        (8, "<module>"), (9, "<module>"), (10, "<module>"), (11, "<module>"), (15, "read")]


_HASHING_MODULES = {"backend_io.py", "corpus.py"}


def hashlib_imports(path: Path) -> list[int]:
    """The line of each ``import hashlib`` or ``from hashlib import ...`` in
    path, at module level or inside a function or class."""
    return sorted(node.lineno for node in ast.walk(_parse(path))
                  if (isinstance(node, ast.Import)
                      and any(alias.name == "hashlib" for alias in node.names))
                  or (isinstance(node, ast.ImportFrom) and not node.level
                      and node.module == "hashlib"))


def test_only_backend_io_and_corpus_import_hashlib():
    package = ROOT / "src" / "contregen"
    modules = sorted(path for path in package.rglob("*.py")
                     if path.name not in _HASHING_MODULES)
    assert len(modules) > 10  # the scan found the package
    assert all(hashlib_imports(package / name) for name in _HASHING_MODULES)
    assert [f"{path.relative_to(ROOT)}:{line}"
            for path in modules for line in hashlib_imports(path)] == []


def test_hashlib_scan_flags_each_import_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import hashlib\n"
        "import os, hashlib as h\n"
        "from hashlib import sha256\n"
        "from .hashlib import local\n"
        "import hashlibx\n"
        "from hmac import digest\n"
        "def key(text):\n"
        "    import hashlib\n"
        "    return hashlib.sha256(text).hexdigest()\n"
        "class Cache:\n"
        "    from hashlib import sha1\n", encoding="utf-8")
    assert hashlib_imports(module) == [1, 2, 3, 8, 11]


def fingerprint_reads(path: Path) -> list[int]:
    """The line of each read of an attribute named ``fingerprint`` in path: a
    call of the method, or the bound method taken to call later."""
    return sorted(node.lineno for node in ast.walk(_parse(path))
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and node.attr == "fingerprint")


def test_only_retrieval_reads_the_corpus_fingerprint():
    package = ROOT / "src" / "contregen"
    modules = sorted(path for path in package.rglob("*.py") if path.name != "retrieval.py")
    assert len(modules) > 10  # the scan found the package
    assert fingerprint_reads(package / "retrieval.py")
    assert [f"{path.relative_to(ROOT)}:{line}"
            for path in modules for line in fingerprint_reads(path)] == []


def test_fingerprint_scan_flags_each_read(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "store.fingerprint()\n"
        "self._corpus.fingerprint()\n"
        "CorpusStore.fingerprint(store)\n"
        "read = store.fingerprint\n"
        "fingerprint(store)\n"
        "index.corpus_fingerprint\n"
        "store.fingerprint = None\n"
        "class CorpusStore:\n"
        "    def fingerprint(self):\n"
        "        return self._digest()\n"
        "def key(index):\n"
        "    return (index._corpus\n"
        "            .fingerprint())\n", encoding="utf-8")
    assert fingerprint_reads(module) == [1, 2, 3, 4, 12]


def int_floors_assignments(path: Path) -> list[int]:
    """The line of each store to a name or attribute ``INT_FLOORS``, or to an
    item of it, in path, at any depth."""
    def named(node):
        return getattr(node, "id", getattr(node, "attr", None)) == "INT_FLOORS"
    return sorted(node.lineno for node in ast.walk(_parse(path))
                  if isinstance(getattr(node, "ctx", None), ast.Store)
                  and (named(node) or isinstance(node, ast.Subscript) and named(node.value)))


def test_int_floors_is_assigned_once():
    package = ROOT / "src" / "contregen"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10  # the scan found the package
    assert [path.name for path in modules for _ in int_floors_assignments(path)] == [
        "errors.py"]


def test_int_floors_scan_flags_each_store(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "INT_FLOORS = {'topk': 1}\n"
        "from contregen.errors import INT_FLOORS\n"
        "INT_FLOORS['topk'] = 2\n"
        "INT_FLOORS |= {}\n"
        "errors.INT_FLOORS = {}\n"
        "floor = INT_FLOORS['topk']\n"
        "FLOORS = INT_FLOORS\n"
        "def f():\n"
        "    INT_FLOORS: dict = {}\n"
        "    for INT_FLOORS in ():\n"
        "        pass\n", encoding="utf-8")
    assert int_floors_assignments(module) == [1, 3, 4, 5, 9, 10]


_RUN_PARAMETERS = {"topk", "max_depth", "max_plan_size", "max_iterations", "dedup"}
_ENGINE_MODULES = ("tree.py", "baselines.py", "planner.py", "verifier.py")


def run_parameter_defaults(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each default given to a run parameter in path: to a
    function's parameter, positional or keyword-only, or to a class field,
    which a dataclass makes a constructor parameter."""
    found = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            found += [(arg.lineno, arg.arg) for arg, default in (
                *zip(positional[len(positional) - len(args.defaults):], args.defaults),
                *zip(args.kwonlyargs, args.kw_defaults))
                      if default is not None and arg.arg in _RUN_PARAMETERS]
        elif isinstance(node, ast.ClassDef):
            found += [(stmt.lineno, stmt.target.id) for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                      and isinstance(stmt.target, ast.Name)
                      and stmt.target.id in _RUN_PARAMETERS]
    return sorted(found)


def test_no_engine_function_defaults_a_run_parameter():
    package = ROOT / "src" / "contregen"
    assert all((package / name).is_file() for name in _ENGINE_MODULES)
    assert [f"src/contregen/{name}:{line}: {parameter}" for name in _ENGINE_MODULES
            for line, parameter in run_parameter_defaults(package / name)] == []


def test_run_parameter_default_scan_flags_each_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def a(gateway, topk, max_depth=2, node_path=''):\n"
        "    pass\n"
        "def b(topk, /, max_plan_size=5, *, max_iterations=5, other=1):\n"
        "    pass\n"
        "def c(query, *, topk, max_iterations):\n"
        "    pass\n"
        "run = lambda topk=5: topk\n"
        "class TreeConfig:\n"
        "    max_depth: int = 2\n"
        "    topk: int\n"
        "    label: str = ''\n"
        "    def method(self, max_iterations=1):\n"
        "        topk = 5\n"
        "def collect_passages(root, dedup=True):\n"
        "    pass\n"
        "def collect(root, dedup):\n"
        "    dedup = True\n", encoding="utf-8")
    assert run_parameter_defaults(module) == [
        (1, "max_depth"), (3, "max_iterations"), (3, "max_plan_size"), (7, "topk"),
        (9, "max_depth"), (12, "max_iterations"), (14, "dedup")]
