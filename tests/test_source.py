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
