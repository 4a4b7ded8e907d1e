"""Source checks on the package.

`python -O` strips assert statements, so a correctness check written as one
would silently vanish there.  Every check in the package is an explicit
raise instead, and this test keeps it that way.  The package also carries
no private function or method that nothing calls, exports only names it
defines, imports only from the layers below its own, and imports no
private name from another of its modules.
"""

import ast
import importlib
import os

import flagsieve

SRC = os.path.dirname(flagsieve.__file__)


def _modules():
    """(module name, parsed tree) for every source file of the package."""
    out = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = os.path.join(SRC, name)
            with open(path, encoding="utf-8") as handle:
                out.append((name[:-3], ast.parse(handle.read(), filename=path)))
    return out


def _units(tree):
    """(name, node) for each top-level statement of a module, except that
    a class gives one unit per statement of its body, a method named
    Class.method, and one more for its bases, keywords and decorators."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.ClassDef):
            yield getattr(stmt, "name", None), stmt
            continue
        for item in stmt.body:
            yield f"{stmt.name}.{getattr(item, 'name', '')}", item
        for node in stmt.bases + stmt.keywords + stmt.decorator_list:
            yield stmt.name, node


def test_every_private_function_is_referenced():
    """Every private module-level function, and every private method that
    is not a dunder method, is named outside its own body."""
    defined = set()  # (module, unit, name) of private functions and methods
    used = set()  # (name, module and unit it occurs in)
    for module, tree in _modules():
        for owner, unit in _units(tree):
            name = getattr(unit, "name", "")
            if isinstance(unit, ast.FunctionDef) and name.startswith("_"):
                if not name.endswith("__"):
                    defined.add((module, owner, name))
            for node in ast.walk(unit):
                if isinstance(node, ast.Name):
                    used.add((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    used.add((node.attr, module, owner))
                elif isinstance(node, ast.alias):
                    used.add((node.name, module, owner))
    unreferenced = [
        f"{module}.{owner}"
        for module, owner, name in sorted(defined)
        if not any(
            ref == name and (where, unit) != (module, owner)
            for ref, where, unit in used
        )
    ]
    assert unreferenced == []


def test_every_exported_name_exists():
    missing = []
    for module, tree in _modules():
        loaded = importlib.import_module(f"flagsieve.{module}")
        for name in getattr(loaded, "__all__", ()):
            if not hasattr(loaded, name):
                missing.append(f"{module}.{name}")
    assert missing == []


def test_package_has_no_assert_statements():
    found = []
    for module, tree in _modules():
        found += [
            f"{module}.py:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


# the package's layers, lowest first; a module imports only from lower ones
LAYERS = (
    ("exactmath",),
    ("grouporders", "sieve", "permgroup"),
    ("designsearch",),
    ("eliminator",),
    ("cli",),
)


def _package_imports(tree):
    """The package modules a parsed module imports from."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    found.add(node.module.split(".")[0])
                else:  # from . import module
                    found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("flagsieve."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("flagsieve.")
            )
    return found


def test_modules_import_only_from_lower_layers():
    layer = {name: i for i, names in enumerate(LAYERS) for name in names}
    imports = {
        module: _package_imports(tree)
        for module, tree in _modules()
        if module != "__init__"
    }
    assert sorted(imports) == sorted(layer)
    upward = [
        f"{module} imports {dep}"
        for module, deps in sorted(imports.items())
        for dep in sorted(deps)
        if layer[dep] >= layer[module]
    ]
    assert upward == []
    assert imports["sieve"] == {"exactmath"}


def test_modules_import_no_private_name():
    """A module's underscore names are its own: another package module
    that needs one needs a public name instead."""
    found = []
    for module, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("flagsieve.")
            ):
                found += [
                    f"{module} imports {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
