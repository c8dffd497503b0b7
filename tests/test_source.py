import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "batchsched"


def test_no_assert_statements_in_src():
    # python -O strips asserts, so no invariant of the package may rest on one
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {', '.join(found)}"


def test_core_imports_no_other_module_of_the_package():
    # the verifier in core judges the constructions, so it may not use them
    found = []
    for node in ast.walk(ast.parse((SRC / "core.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else ["batchsched"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name.split(".")[0] == "batchsched" for name in names):
            found.append(f"core.py:{node.lineno}")
    assert not found, f"core imports the package: {', '.join(found)}"


DECISION_CALLS = {
    "classify", "_gamma_count", "_pmtn_counts", "_pmtn_plan", "counts_nonp", "decide_need",
}


def test_builds_read_their_plan():
    # a dual decides once; its construction reads the decision's plan and
    # never derives the partition, counts or verdict a second time
    builds, found = [], []
    for name in ("splittable.py", "preemptive.py", "nonpreemptive.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_build_")):
                continue
            builds.append(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call):
                    f = node.func
                    called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                    if called in DECISION_CALLS or called.startswith("_decide_"):
                        found.append(f"{name}:{node.lineno} {fn.name} calls {called}")
    assert {"_build_split", "_build_pmtn", "_build_nonp"} <= set(builds)
    assert not found, "; ".join(found)


def test_decisions_make_no_fraction():
    # a decision reads its guess p/q once and compares ints from then on, so
    # no decision function builds a Fraction or divides with /
    checked, found = set(), []
    for name in ("core.py", "splittable.py", "preemptive.py", "nonpreemptive.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if not (isinstance(fn, ast.FunctionDef) and (
                    fn.name in DECISION_CALLS or fn.name.startswith("_decide_")
                    or fn.name == "_star_items")):
                continue
            checked.add(fn.name)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction":
                    found.append(f"{name}:{node.lineno} {fn.name} calls Fraction")
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    found.append(f"{name}:{node.lineno} {fn.name} divides with /")
    assert checked == DECISION_CALLS | {
        "_decide_split", "_decide_pmtn", "_decide_nonp", "_star_items"}, checked
    assert not found, "; ".join(found)


KIND_NAMES = {"SETUP", "PIECE", "put_setup", "put_piece", "make_setup", "make_piece"}


def test_placements_carry_no_kind_tag():
    # a placement has no kind: a setup opens a batch and a piece is a
    # (job, dur) pair of the open batch, so no module names a kind; Builder
    # puts whole batches with one method, and the wrap keeps its open batch
    # in a local list (no _Run class opens or extends it)
    found, puts = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # a Name's id, an Attribute's attr, a def's, class's or import's name
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in KIND_NAMES:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {name}")
            if isinstance(node, ast.ClassDef) and node.name in ("Builder", "_Run"):
                puts[node.name] = sorted(f.name for f in node.body if isinstance(f, ast.FunctionDef)
                                         and f.name.startswith(("put", "make", "setup", "piece")))
    assert not found, "; ".join(found)
    assert puts == {"Builder": ["put", "put_config"]}


def test_one_class_jump_search():
    # the splittable and preemptive exact searches share one function,
    # search.class_jump_search: it alone runs the class-jump walk, the
    # closing is inlined there, not a helper of its own, and it takes no
    # bracket (it opens at T_min); every exact search bisects through
    # search._bisect
    found, callers, params = [], set(), None
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for name in ("close_bracket", "_bisect_right_interval"):
            if name in text:
                found.append(f"{path.name} names {name}")
        if path.name != "search.py":
            if "class_jump_walk" in text:
                found.append(f"{path.name} names class_jump_walk")
            continue
        for fn in ast.parse(text).body:
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None) == "class_jump_walk"
                    for node in ast.walk(fn)):
                callers.add(fn.name)
            if isinstance(fn, ast.FunctionDef) and fn.name == "class_jump_search":
                params = [arg.arg for arg in fn.args.args]
    assert not found, "; ".join(found)
    assert callers == {"class_jump_search"}, callers
    assert params == ["inst", "variant", "thresholds", "members", "d_min", "refine"], params


TWO_APPROX_HOMES = {"two_approx_split": "splittable.py", "next_fit_two_approx": "nonpreemptive.py"}


def test_one_variant_table():
    # search.solve answers every (variant, algorithm) pair through
    # search.variant_ops, so the CLI imports no algorithm module, and no
    # module but its own and __init__ names a 2-approximation, except
    # variant_ops
    found = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if {name.split(".")[-1] for name in names} & {
                "splittable", "preemptive", "nonpreemptive", "wrap"}:
            found.append(f"cli.py:{node.lineno} imports {', '.join(names)}")
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                names = [alias.name for alias in getattr(node, "names", ())
                         if isinstance(alias, ast.alias)]
                names += [getattr(node, "id", None) or getattr(node, "attr", None)]
                for name in set(names) & set(TWO_APPROX_HOMES):
                    if path.name != TWO_APPROX_HOMES[name] and (
                            path.name, owner) != ("search.py", "variant_ops"):
                        found.append(f"{path.name}:{node.lineno} names {name}")
    assert not found, "; ".join(found)


def test_one_path_per_search_step():
    # the knapsack refinement follows its split item to a fixed point, with
    # no pair loop over the items and no cap on their number, in the
    # knapsack's one density order; the eps search bisects through
    # search._bisect, with no loop of its own
    text = (SRC / "preemptive.py").read_text()
    assert "combinations" not in text and "growth_ties" not in text
    pmtn = {fn.name: fn for fn in ast.walk(ast.parse(text)) if isinstance(fn, ast.FunctionDef)}
    caps = [node.lineno for node in ast.walk(pmtn["_pmtn_breakpoints"])
            if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Call) and getattr(side.func, "id", None) == "len"
                for side in (node.left, *node.comparators))]
    assert not caps, f"item cap at preemptive.py:{caps}"
    assert [arg.arg for arg in pmtn["_by_density"].args.args] == ["items"]
    eps = next(fn for fn in ast.parse((SRC / "search.py").read_text()).body
               if isinstance(fn, ast.FunctionDef) and fn.name == "epsilon_search")
    nodes = list(ast.walk(eps))
    assert not any(isinstance(node, (ast.For, ast.While, ast.comprehension)) for node in nodes)
    assert any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_bisect"
               for node in nodes)


def test_no_module_imports_dataclasses():
    # the records are NamedTuples and plain classes: building @dataclass
    # classes cost every import of the package milliseconds
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if "dataclasses" in (name.split(".")[0] for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"dataclasses imported at {', '.join(found)}"


def test_cli_import_leaves_dataclasses_and_inspect_out():
    # dataclasses pulls in inspect, which a CLI process would pay for on
    # every run; -S keeps site hooks out, so only the package's imports count
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import batchsched.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["[]"], out.stdout
