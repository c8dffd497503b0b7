import ast
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
