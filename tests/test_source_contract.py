"""Library code keeps the CLI's 0/2/3 exit-code contract: no bare ``assert``.

An ``assert`` vanishes under ``python -O`` and otherwise escapes ``main()``
as an ``AssertionError`` with exit code 1; library checks raise
``ValidationError`` or ``NumericalError`` instead.
"""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "gleak"


def test_no_assert_in_library_code():
    paths = sorted(SOURCE.rglob("*.py"))
    assert paths, f"no sources found under {SOURCE}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.relative_to(SOURCE.parent)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        )
    assert not found, "bare assert in library code: " + ", ".join(found)
