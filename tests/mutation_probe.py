"""Seeded AST mutants of the verifier, the schedule rows and file, the
non-preemptive build and the exact searches, each run against the tests of
its module.

    python tests/mutation_probe.py [--seed N] [--count K] [--timeout S] [--only FILE,...]

A mutant changes one operator or constant inside one function of TARGETS:
`verify_schedule`, `_rule_e` or `_pieces_of` in src/batchsched/core.py,
run against tests/test_core.py and tests/test_verify_reference.py, or
`row_batches`, `rows_end` or `Schedule.placement_count` there, the row
layout, run against tests/test_core.py and tests/test_cli.py, or
`emit_schedule` or `parse_schedule` in src/batchsched/cli.py, run against
tests/test_cli.py and tests/test_golden.py, or
`_Stream.write` or `_build_nonp` in src/batchsched/nonpreemptive.py, run
against tests/test_nonp_reference.py and tests/test_nonpreemptive.py, or
`_bisect`, `class_jump_walk`, `class_jump_search` (its refinement loop
included) or `epsilon_search` in src/batchsched/search.py, run against
tests/test_search_oracle.py, tests/test_splittable.py,
tests/test_preemptive.py and tests/test_nonpreemptive.py, or
`_pmtn_breakpoints` in src/batchsched/preemptive.py, run against
tests/test_preemptive.py and tests/test_search_oracle.py.  The change
is a comparison swapped (< and <=, > and >=, == and !=, in and not in, is
and is not), + and - swapped (also in +=, -=), `and` and `or` swapped,
or a small int constant (0 to 3) moved by one.  The sites of all
targets (of the targets in the named files, with --only) are listed in a
fixed order and K of them are drawn with the seed.
Each mutant is written into a temporary copy of src/ and tests/, and its
target's tests run there (pytest -x): a failure or a timeout kills the
mutant.  A mutant's run gets 5 times its target's clean run, at least 30
s, unless --timeout sets one for all, and every test process's address
space is capped at MEMORY, 512 MiB (a run past it fails, so it kills the
mutant too): a mutant that loops and grows ends there.  The repository
itself is never written.  The script prints every survivor with its line,
the kill score and the wall time; a survivor is either a gap in the tests
or an equivalent mutant, which only reading it can tell.

pytest does not collect this file (its name does not start with test_),
so it is no tier-1 test: a change to a target or its tests runs it and
records the score.
"""

from __future__ import annotations

import argparse
import ast
import copy
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MEMORY = 512 << 20  # address-space cap of each test process, in bytes
# (module, the functions mutated in it, the tests a mutant of it runs)
TARGETS = (
    (Path("src", "batchsched", "core.py"), ("verify_schedule", "_rule_e", "_pieces_of"),
     ("tests/test_core.py", "tests/test_verify_reference.py")),
    (Path("src", "batchsched", "core.py"), ("row_batches", "rows_end", "placement_count"),
     ("tests/test_core.py", "tests/test_cli.py")),
    (Path("src", "batchsched", "cli.py"), ("emit_schedule", "parse_schedule"),
     ("tests/test_cli.py", "tests/test_golden.py")),
    (Path("src", "batchsched", "nonpreemptive.py"), ("write", "_build_nonp"),
     ("tests/test_nonp_reference.py", "tests/test_nonpreemptive.py")),
    (Path("src", "batchsched", "search.py"),
     ("_bisect", "class_jump_walk", "class_jump_search", "epsilon_search"),
     ("tests/test_search_oracle.py", "tests/test_splittable.py", "tests/test_preemptive.py",
      "tests/test_nonpreemptive.py")),
    (Path("src", "batchsched", "preemptive.py"), ("_pmtn_breakpoints",),
     ("tests/test_preemptive.py", "tests/test_search_oracle.py")),
)
SWAP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}


def sites(tree: ast.Module, names) -> list[tuple[str, ast.AST, object]]:
    """Every mutation of the named functions (methods too) as (function,
    node, change), in a fixed order: change is ("op", index) for a
    comparison operator, ("op", None) for the operator of a BinOp, AugAssign
    or BoolOp, and ("const", delta) for an int constant."""
    out = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
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


def mutant(source: str, names, index: int, module: str) -> tuple[str, str]:
    """The module source with mutation number index of the named functions
    applied, and a line that describes it."""
    tree = ast.parse(source)
    fn, node, change = sites(tree, names)[index]
    before = copy.deepcopy(node)
    apply(node, change)
    where = f"{module}:{node.lineno} {fn}"
    return ast.unparse(tree), f"{where}: {ast.unparse(before)}  ->  {ast.unparse(node)}"


def run_tests(workdir: Path, tests, timeout: float | None) -> bool:
    """Whether the tests pass in workdir within timeout seconds (None: no
    limit) and MEMORY bytes of address space (False past either)."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]

    def cap():  # in the test process only, before pytest starts
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))

    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, timeout=timeout, preexec_fn=cap,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=30)
    ap.add_argument("--timeout", type=float, default=None,
                    help="seconds per mutant's test run (default: 5x its target's clean run, "
                         "at least 30)")
    ap.add_argument("--only", default=None,
                    help="comma-separated module file names: mutate only their targets")
    args = ap.parse_args(argv)
    start = time.perf_counter()
    targets = TARGETS if args.only is None else tuple(
        target for target in TARGETS if target[0].name in args.only.split(","))

    # every site as (target, index among that target's sites)
    sources = [(ROOT / path).read_text() for path, _, _ in targets]
    all_sites = [(t, k) for t, ((_, names, _), source) in enumerate(zip(targets, sources))
                 for k in range(len(sites(ast.parse(source), names)))]
    picks = sorted(random.Random(args.seed).sample(all_sites, min(args.count, len(all_sites))))
    names = ", ".join(name for _, fns, _ in targets for name in fns)
    print(f"{len(all_sites)} mutation sites in {names}; running {len(picks)} (seed {args.seed})")
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work / "pyproject.toml")
        timeouts = []
        for path, _, tests in targets:
            clean = time.perf_counter()
            if not run_tests(work, tests, args.timeout):
                print(f"the unmutated tests of {path.name} fail; nothing to probe")
                return 2
            timeouts.append(args.timeout or max(30.0, 5 * (time.perf_counter() - clean)))
        print("timeouts: " + ", ".join(f"{path.name} {s:.0f} s"
                                       for (path, _, _), s in zip(targets, timeouts)))
        survivors = []
        for t, index in picks:
            path, fns, tests = targets[t]
            text, what = mutant(sources[t], fns, index, path.name)
            (work / path).write_text(text)
            killed = not run_tests(work, tests, timeouts[t])
            (work / path).write_text(sources[t])
            print(f"{'killed  ' if killed else 'SURVIVED'} {what}", flush=True)
            if not killed:
                survivors.append(what)
    killed = len(picks) - len(survivors)
    print(f"killed {killed} of {len(picks)} ({killed / len(picks):.0%}) "
          f"in {time.perf_counter() - start:.0f} s")
    for what in survivors:
        print(f"survivor: {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
