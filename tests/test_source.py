"""Source checks: the package's verdicts do not depend on `assert`.

`python -O` strips assert statements, so a correctness check written as one
would silently vanish there.  Every check in the package is an explicit
raise instead, and this test keeps it that way.
"""

import ast
import os

import flagsieve

SRC = os.path.dirname(flagsieve.__file__)


def test_package_has_no_assert_statements():
    found = []
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename=path)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []
