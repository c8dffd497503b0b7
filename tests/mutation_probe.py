"""Seeded AST mutants of the verifier, each run against the verifier's tests.

    python tests/mutation_probe.py [--seed N] [--count K] [--timeout S]

A mutant changes one operator or constant inside `verify_schedule`,
`_rule_e` or `_pieces_of` in src/batchsched/core.py: a comparison swapped
(< and <=, > and >=, == and !=, in and not in, is and is not), + and -
swapped (also in +=, -=), `and` and `or` swapped, or a small int constant
(0 to 3) moved by one.  The sites are listed in a fixed order and K of
them are drawn with the seed.  Each mutant is written into a temporary copy
of src/ and tests/, and tests/test_core.py and tests/test_verify_reference.py
run there (pytest -x): a failure or a timeout kills the mutant.  The
repository itself is never written.  The script prints every survivor with
its line and the kill score; a survivor is either a gap in the tests or an
equivalent mutant, which only reading it can tell.

pytest does not collect this file (its name does not start with test_),
so it is no tier-1 test: a change to the verifier or its tests runs it and
records the score.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORE = Path("src", "batchsched", "core.py")
TARGETS = ("verify_schedule", "_rule_e", "_pieces_of")
TESTS = ("tests/test_core.py", "tests/test_verify_reference.py")
SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.Module) -> list[tuple[str, ast.AST, object]]:
    """Every mutation of the target functions as (function, node, change),
    in a fixed order: change is ("op", index) for a comparison operator,
    ("op", None) for the operator of a BinOp, AugAssign or BoolOp, and
    ("const", delta) for an int constant."""
    out = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name in TARGETS):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                out += [(fn.name, node, ("op", i)) for i, op in enumerate(node.ops) if type(op) in SWAP]
            elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAP:
                out.append((fn.name, node, ("op", None)))
            elif (isinstance(node, ast.Constant) and type(node.value) is int
                  and 0 <= node.value <= 3):
                out += [(fn.name, node, ("const", -1)), (fn.name, node, ("const", 1))]
    return out


def apply(node: ast.AST, change: tuple) -> None:
    kind, arg = change
    if kind == "const":
        node.value += arg
    elif arg is None:
        node.op = SWAP[type(node.op)]()
    else:
        node.ops[arg] = SWAP[type(node.ops[arg])]()


def mutant(source: str, index: int) -> tuple[str, str]:
    """The module source with mutation number index applied, and a line
    that describes it."""
    tree = ast.parse(source)
    fn, node, change = sites(tree)[index]
    before = copy.deepcopy(node)
    apply(node, change)
    where = f"core.py:{node.lineno} {fn}"
    return ast.unparse(tree), f"{where}: {ast.unparse(before)}  ->  {ast.unparse(node)}"


def run_tests(workdir: Path, timeout: float) -> bool:
    """Whether the verifier's tests pass in workdir (False on a timeout)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TESTS]
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=30)
    ap.add_argument("--timeout", type=float, default=300.0, help="seconds per mutant's test run")
    args = ap.parse_args(argv)

    source = (ROOT / CORE).read_text()
    total = len(sites(ast.parse(source)))
    picks = sorted(random.Random(args.seed).sample(range(total), min(args.count, total)))
    print(f"{total} mutation sites in {', '.join(TARGETS)}; running {len(picks)} (seed {args.seed})")
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        if not run_tests(work, args.timeout):
            print("the unmutated tests fail; nothing to probe")
            return 2
        survivors = []
        for index in picks:
            text, what = mutant(source, index)
            (work / CORE).write_text(text)
            killed = not run_tests(work, args.timeout)
            print(f"{'killed  ' if killed else 'SURVIVED'} {what}", flush=True)
            if not killed:
                survivors.append(what)
    killed = len(picks) - len(survivors)
    print(f"killed {killed} of {len(picks)} ({killed / len(picks):.0%})")
    for what in survivors:
        print(f"survivor: {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
