"""Every top-level public name of `src/meritmatch` is reached from the package
itself, its scripts or the benchmark: a name only tests reach is dead surface.
And every name a module under `src/`, `scripts/` or `tests/` imports is used
in that module.

A name counts as reached when it occurs as a whole word in a `.py` file under
`src/`, `scripts/` or `bench/` (tests excluded), outside its own definition.
An imported name counts as used when the module reads it anywhere (an
`ast.Name` node), annotations included. And no module of the package imports
scipy.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "meritmatch"

# name -> why it stays without a caller
ALLOWED: dict[str, str] = {}


def _definitions(tree):
    """(name, node) of every top-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            yield from ((t.id, node) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _uncalled():
    sources = {
        path: path.read_text().splitlines()
        for top in ("src", "scripts", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        if not path.name.startswith("test_")
    }
    uncalled = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(ast.parse(path.read_text())):
            if name.startswith("_"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for other, lines in sources.items()
                for number, line in enumerate(lines, start=1)
                if other != path or not node.lineno <= number <= node.end_lineno
            ):
                uncalled.add(name)
    return uncalled


def test_every_public_name_has_a_caller():
    uncalled = _uncalled()
    assert sorted(uncalled - set(ALLOWED)) == []
    # an allowlisted name that found a caller leaves the list
    assert sorted(set(ALLOWED) - uncalled) == []


def _unused_imports(path):
    """(line, name) of each name `path` imports and never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_every_imported_name_is_used():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for top in ("src", "scripts", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in _unused_imports(path)
    ]
    assert unused == []


def test_no_module_of_the_package_imports_scipy():
    # scipy is the test suite's oracle, not a dependency: importing its special
    # functions cost every simulating process ~0.25 s and ~18 MB. Imports by
    # statement and by module name (importlib) both count.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            found += [f"{path.relative_to(ROOT)}:{node.lineno} {n}" for n in names if re.fullmatch(r"scipy(\.\w+)*", n)]
    assert found == []
