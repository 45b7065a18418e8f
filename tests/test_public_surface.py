"""Every top-level public name of `src/meritmatch` is reached from the package
itself, its scripts or the benchmark: a name only tests reach is dead surface.
And every name a module under `src/`, `scripts/` or `tests/` imports is used
in that module.

A name counts as reached when it occurs as a whole word in a `.py` file under
`src/`, `scripts/` or `bench/` (tests excluded), outside its own definition.
An imported name counts as used when the module reads it anywhere (an
`ast.Name` node), annotations included. No module of the package imports
scipy, and none reads the environment. And only `core` and `mechanisms`,
which define the object forms of lists and placements, name them. Row CSVs
are parsed and written in one place each, `read_rows` and `write_rows`.
`econometrics` forms no group codes.
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


def test_no_module_of_the_package_reads_the_environment():
    # a run's inputs are its flags and its config or lockfile, which lockfile
    # replay depends on; an environment variable would be an input no lock records
    name = re.compile(r"\b(environb?|getenvb?)\b")
    found = [
        f"{path.relative_to(ROOT)}:{number} {match.group()}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for match in name.finditer(line)
    ]
    assert found == []


def test_one_csv_reader_and_one_csv_writer():
    # every row CSV is read by `metrics.read_rows` and written by
    # `metrics.write_rows`, so the files' dialect and errors are decided once
    name = re.compile(r"\bcsv\.(reader|writer)\b")
    found = [
        f"{path.relative_to(ROOT)} {match.group()}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in path.read_text().splitlines()
        for match in name.finditer(line)
    ]
    assert sorted(found) == ["src/meritmatch/metrics.py csv.reader", "src/meritmatch/metrics.py csv.writer"]


def test_object_forms_stay_in_core_and_mechanisms():
    # the package and its scripts work on arrays (`Cohort`, `Applications`,
    # `Assignment`); `PreferenceList`, `Placement`, `Applications.of` and
    # `Assignment.placed` remain for the mechanisms' conversion of object input
    # and the benchmark's checks
    form = re.compile(r"\b(PreferenceList|Placement|Applications\.of)\b|\.placed\b")
    paths = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name not in ("core.py", "mechanisms.py")]
    found = [
        f"{path.relative_to(ROOT)}:{number} {match.group()}"
        for path in paths + sorted((ROOT / "scripts").rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for match in form.finditer(line)
    ]
    assert found == []


def test_econometrics_forms_no_group_codes():
    # `fe_ols` takes the year-major grid, whose prefectures and years are the
    # axes of a reshape: a sort into group codes or a sum by them is work it
    # does not need
    path = PACKAGE / "econometrics.py"
    name = re.compile(r"\bnp\.(unique|bincount)\b")
    found = [
        f"{path.relative_to(ROOT)}:{number} {match.group()}"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        for match in name.finditer(line)
    ]
    assert found == []
