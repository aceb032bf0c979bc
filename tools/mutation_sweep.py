"""Mutation sweep over package modules: one AST mutant at a time, each run
against its module's tests with ``pytest -x``, one pytest process at a time.

Usage:
    python tools/mutation_sweep.py --work DIR MODULE=TESTS[,TESTS...] ...

    python tools/mutation_sweep.py --work /tmp/sweep \\
        corpus=tests/test_corpus.py backend_io=tests/test_backend_io.py

The repository's tracked files are copied into DIR (which must not exist),
and mutants are written there, never into the checkout. Operators: flip a
comparison, add one to a numeric constant, swap ``+``/``-`` or ``*``/``//``,
swap ``and``/``or``, drop a ``not``, and drop a slice bound. A mutant is
killed when its tests fail or time out. The module is written back through
``ast.unparse``, so the unmutated unparsed module is run first and must pass.
A mutant may drop the fake session a test injects, so the tests run with a
``sitecustomize`` that refuses every connection and name lookup beyond the
loopback host.
Prints one line per survivor and the kill count per module; ``--json PATH``
also writes every result, and ``--survivors PATH`` reads such a file back to
run only its survivors, say against all of ``tests``.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FLIPPED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
           ast.Is: ast.IsNot, ast.IsNot: ast.Is}
SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
           ast.And: ast.Or, ast.Or: ast.And}
TIMEOUT_S = 120
MEMORY_LIMIT = 2 << 30
LOOPBACK_ONLY = """
import socket

_LOOPBACK = {None, "localhost", "127.0.0.1", "::1"}
_getaddrinfo, _connect = socket.getaddrinfo, socket.socket.connect


def getaddrinfo(host, *args, **kwargs):
    if host not in _LOOPBACK:
        raise socket.gaierror(f"mutation sweep: no lookup of {host!r}")
    return _getaddrinfo(host, *args, **kwargs)


def connect(self, address):
    if self.family in (socket.AF_INET, socket.AF_INET6) and address[0] not in _LOOPBACK:
        raise ConnectionRefusedError(f"mutation sweep: no connection to {address[0]!r}")
    return _connect(self, address)


socket.getaddrinfo, socket.socket.connect = getaddrinfo, connect
"""


def sites(tree: ast.AST) -> list[tuple[int, str, object]]:
    """(node index in ast.walk order, description, mutation key) of each site."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Compare):
            found += [(index, f"{line}: flip {type(op).__name__}", ("compare", at))
                      for at, op in enumerate(node.ops) if type(op) in FLIPPED]
        elif isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPPED:
            found.append((index, f"{line}: swap {type(node.op).__name__}", ("op",)))
        elif (isinstance(node, ast.Constant) and type(node.value) in (int, float)):
            found.append((index, f"{line}: {node.value!r} + 1", ("constant",)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            found.append((index, f"{line}: drop not", ("not",)))
        elif isinstance(node, ast.Slice):
            found += [(index, f"{line}: drop slice {bound}", ("slice", bound))
                      for bound in ("lower", "upper") if getattr(node, bound) is not None]
    return found


def mutate(tree: ast.AST, index: int, key: tuple) -> str:
    """The source of tree with the site at index mutated by key."""
    tree = copy.deepcopy(tree)
    nodes = list(ast.walk(tree))
    node = nodes[index]
    if key[0] == "compare":
        node.ops[key[1]] = FLIPPED[type(node.ops[key[1]])]()
    elif key[0] == "op":
        node.op = SWAPPED[type(node.op)]()
    elif key[0] == "constant":
        node.value += 1
    elif key[0] == "slice":
        setattr(node, key[1], None)
    else:  # drop a not: the UnaryOp becomes its operand wherever it sits
        for parent in nodes:
            for name, value in ast.iter_fields(parent):
                if value is node:
                    setattr(parent, name, node.operand)
                elif isinstance(value, list) and any(item is node for item in value):
                    value[[id(item) for item in value].index(id(node))] = node.operand
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def passes(work: Path, tests: list[str]) -> bool:
    """Whether tests pass in work within TIMEOUT_S."""
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env={**os.environ,
                           "PYTHONPATH": os.pathsep.join([str(work / "site"), str(work / "src")])},
            capture_output=True, timeout=TIMEOUT_S, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--work", type=Path, required=True, help="new directory for the copy")
    parser.add_argument("--json", type=Path, help="write every result here")
    parser.add_argument("--survivors", type=Path,
                        help="run only the mutants that survived in this --json file")
    parser.add_argument("targets", nargs="+", metavar="MODULE=TESTS")
    args = parser.parse_args()
    if args.work.resolve().is_relative_to(ROOT):
        parser.error("--work must lie outside the checkout")
    args.work.mkdir(parents=True)
    tracked = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                             check=True).stdout.decode().split("\0")
    for name in filter(None, tracked):
        (args.work / name).parent.mkdir(parents=True, exist_ok=True)
        (args.work / name).write_bytes((ROOT / name).read_bytes())
    (args.work / "site").mkdir()
    (args.work / "site" / "sitecustomize.py").write_text(LOOPBACK_ONLY, encoding="utf-8")
    survivors = json.loads(args.survivors.read_text()) if args.survivors else None
    results = {}
    for target in args.targets:
        module, _, tests = target.partition("=")
        path = args.work / "src" / "contregen" / f"{module}.py"
        original = path.read_text(encoding="utf-8")
        tree = ast.parse(original)
        try:
            path.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
            if not passes(args.work, tests.split(",")):
                sys.exit(f"{module}: the unmutated unparsed module fails its tests")
            outcomes = []
            for index, description, key in sites(tree):
                if survivors is not None and {"site": description, "killed": False} \
                        not in survivors.get(module, []):
                    continue
                path.write_text(mutate(tree, index, key), encoding="utf-8")
                killed = not passes(args.work, tests.split(","))
                outcomes.append({"site": description, "killed": killed})
                if not killed:
                    print(f"{module}:{description} survives", flush=True)
        finally:
            path.write_text(original, encoding="utf-8")
        results[module] = outcomes
        killed = sum(outcome["killed"] for outcome in outcomes)
        print(f"{module}: {killed} of {len(outcomes)} killed", flush=True)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
