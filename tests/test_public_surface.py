"""Every top-level public name of `src/meritmatch` is reached from the package
itself, its scripts or the benchmark: a name only tests reach is dead surface.

A name counts as reached when it occurs as a whole word in a `.py` file under
`src/`, `scripts/` or `bench/` (tests excluded), outside its own definition.
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
