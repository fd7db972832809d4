"""Mutation census: which one-site changes of a tcores module the `full`
plan does not notice.

    python3 tests/mutation_census.py exploded coding

Every site is one AST node of the module, found by walking its tree, so a
node nested in another of the same kind (the inner `BinOp` of `a * b + c`)
is a site of its own.  Five kinds of mutation, one mutant per site:

    +  <-> -      in a binary operation or an augmented assignment
    <  <-> <=     and  >  <-> >=
    == <-> !=
    *  <-> //
    a small integer constant (0..SMALL) plus 1

Each mutant is written into a copy of the package in a temporary directory
and judged by `run_suite("full", 1)` in a fresh interpreter, one child at a
time, with a timeout and an address-space limit that the child sets on
itself.  A mutant is killed when any report fails or the child exits
otherwise non-zero, and survives when every report passes.

The accepted survivors, each with a one-line reason, are listed in
`mutation_survivors.txt` next to this file as `key<TAB>reason`.  A site's
key names its module, its enclosing function, and the expression before
and after the change (`#2` and on for repeats), so it does not move with
line numbers.  The census prints every survivor, marks the ones not
accepted as new and the accepted ones of these modules that no longer
survive as stale, and exits 1 if there is either (2 if the unmutated copy
fails the plan).  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "tcores"
ACCEPTED = HERE / "mutation_survivors.txt"

SMALL = 10
TIMEOUT_S = 60
ADDRESS_SPACE = 2 << 30

SWAP = {
    ast.Add: ast.Sub, ast.Sub: ast.Add,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
}

# run in the child: limit its own address space, then judge the copy
JUDGE = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
sys.path.insert(0, sys.argv[1])
from tcores.identities import run_suite
sys.exit(0 if all(r.passed for r in run_suite("full", 1)) else 1)
"""


def sites(tree: ast.Module) -> list[tuple[int, int | None]]:
    """(walk index, operator index or None) of every site, in walk order."""
    out = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
            out.append((i, None))
        elif isinstance(node, ast.Compare):
            out.extend((i, j) for j, op in enumerate(node.ops) if type(op) in SWAP)
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= SMALL:
            out.append((i, None))
    return out


def mutate(node: ast.AST, j: int | None) -> None:
    if isinstance(node, ast.Constant):
        node.value += 1
    elif j is None:
        node.op = SWAP[type(node.op)]()
    else:
        node.ops[j] = SWAP[type(node.ops[j])]()


def _context(tree: ast.Module) -> tuple[dict[int, str], dict[int, ast.AST]]:
    """The enclosing function or class of every node, by id, and the
    expression or simple statement around every constant (past a sign, an
    index or a slice, so `ys[-1]` shows with what it is part of)."""
    scope, shown = {}, {}

    def visit(node, name, around):
        scope[id(node)] = name
        if isinstance(node, ast.Constant):
            shown[id(node)] = around
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name if name == "<module>" else f"{name}.{node.name}"
        if isinstance(node, ast.stmt):
            around = None if hasattr(node, "body") else node
        elif isinstance(node, ast.expr) and (
            around is None or not isinstance(node, (ast.UnaryOp, ast.Subscript, ast.Slice))
        ):
            around = node
        for child in ast.iter_child_nodes(node):
            visit(child, name, around)

    visit(tree, "<module>", None)
    return scope, shown


def mutants(module: str, source: str):
    """(key, line, mutant source) of every site of `source`, in walk order;
    each mutant is made from a fresh parse."""
    seen = Counter()
    for i, j in sites(ast.parse(source)):
        tree = ast.parse(source)
        node = list(ast.walk(tree))[i]
        scope, shown = _context(tree)
        target = (shown[id(node)] or node) if isinstance(node, ast.Constant) else node
        before = ast.unparse(target)
        mutate(node, j)
        key = f"{module}:{scope[id(node)]}: {before} -> {ast.unparse(target)}"
        seen[key] += 1
        yield (key if seen[key] == 1 else f"{key} #{seen[key]}"), node.lineno, ast.unparse(tree)


def judge(copy: Path) -> str:
    """'killed', 'survived' or 'timeout' for the package copy as it stands."""
    cmd = [sys.executable, "-I", "-S", "-B", "-c", JUDGE, str(copy)]
    try:
        run = subprocess.run(cmd, cwd=copy, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if run.returncode == 0 else "killed"


def read_accepted() -> set[str]:
    lines = ACCEPTED.read_text().splitlines()
    return {line.split("\t")[0] for line in lines if line.strip() and not line.startswith("#")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    modules = sorted(p.stem for p in PACKAGE.glob("*.py"))
    parser.add_argument("modules", nargs="+", choices=modules, metavar="module")
    args = parser.parse_args(argv)
    accepted = read_accepted()
    survivors, status = set(), 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(PACKAGE, copy / "tcores", ignore=shutil.ignore_patterns("__pycache__"))
        for module in args.modules:
            source = (PACKAGE / f"{module}.py").read_text()
            target = copy / "tcores" / f"{module}.py"
            target.write_text(ast.unparse(ast.parse(source)))
            if judge(copy) != "survived":
                print(f"{module}: the unmutated copy does not pass the full plan")
                return 2
            tally = Counter()
            t0 = time.monotonic()
            for key, line, mutant in mutants(module, source):
                target.write_text(mutant)
                verdict = judge(copy)
                tally[verdict] += 1
                if verdict == "timeout":
                    print(f"  timeout  {module}.py:{line} {key}", flush=True)
                elif verdict == "survived":
                    survivors.add(key)
                    mark = "accepted" if key in accepted else "NEW"
                    status |= key not in accepted
                    print(f"  {mark:8} {module}.py:{line}\t{key}", flush=True)
            target.write_text(source)
            print(
                f"{module}: {tally.total()} mutants, {tally['killed']} killed, "
                f"{tally['timeout']} timed out, {tally['survived']} survived "
                f"({time.monotonic() - t0:.0f} s)", flush=True,
            )
    prefixes = tuple(f"{module}:" for module in args.modules)
    for key in sorted(accepted - survivors):
        if key.startswith(prefixes):
            print(f"  stale    {key}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
