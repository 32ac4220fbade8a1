"""Imports inside the package run one way.

    words -> construction -> matching -> oblivious -> online -> oracles -> cli

Each module may import only modules to its left (``online`` uses
``oblivious``'s decoder, never the reverse).  ``rng`` and ``reporting`` are
leaves: they import nothing from the package and anyone may import them.
Only ``cli`` imports ``oracles``.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import deletion_lab

PACKAGE = Path(deletion_lab.__file__).resolve().parent
LAYERS = ["words", "construction", "matching", "oblivious", "online", "oracles", "cli"]
LEAVES = {"rng", "reporting"}

ALLOWED = {mod: set(LAYERS[:i]) | LEAVES for i, mod in enumerate(LAYERS)}
ALLOWED.update({leaf: set() for leaf in LEAVES})
ALLOWED["__init__"] = set(LAYERS[: LAYERS.index("oracles")]) | LEAVES  # the public API
ALLOWED["__main__"] = {"cli"}
ALLOWED["cli"] |= {"__init__"}  # for __version__


def package_imports(path: Path) -> set[str]:
    """Package modules a source file imports, at any nesting depth."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "deletion_lab":
                    found.add(rest.split(".")[0] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] != "deletion_lab":
                continue
            sub = (node.module or "").removeprefix("deletion_lab").lstrip(".")
            if sub:
                found.add(sub.split(".")[0])
            else:  # from . import x: x is a module or a name from __init__
                found |= {a.name if a.name in modules else "__init__" for a in node.names}
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED)


def test_imports_follow_the_layer_order():
    wrong = {
        path.stem: sorted(package_imports(path) - ALLOWED[path.stem])
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {mod: bad for mod, bad in wrong.items() if bad} == {}


def test_only_the_cli_imports_oracles():
    importers = [p.stem for p in sorted(PACKAGE.glob("*.py")) if "oracles" in package_imports(p)]
    assert importers == ["cli"]


def test_import_scanner_sees_every_form(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import deletion_lab.words\n"
        "from deletion_lab import oracles\n"
        "from . import rng, __version__\n"
        "def f():\n"
        "    from .matching import is_matchable\n"
        "import numpy\n"
    )
    assert package_imports(src) == {"words", "oracles", "rng", "__init__", "matching"}


def test_package_holds_no_assert_statement():
    # checks must survive ``python -O``, which strips every ``assert``
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_builds_no_oracle_report():
    # the CLI holds no oracle: every OracleReport is made in ``oracles``
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "OracleReport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert calls == []


def test_oracles_judge_no_corruption_themselves():
    # the rule that reads corruption off kept runs lives in ``construction``;
    # the oracles take its flags and sets and never count runs for it, by
    # import or through a module attribute
    tree = ast.parse((PACKAGE / "oracles.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert names & {"masked_run_count", "preserves_runs"} == set()


def test_package_exports_only_names_the_readme_documents():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = {token for span in re.findall(r"`([^`\n]+)`", readme) for token in re.findall(r"\w+", span)}
    assert sorted(set(deletion_lab.__all__) - documented) == []
    exported = [getattr(deletion_lab, name) for name in deletion_lab.__all__]
    assert [obj for obj in exported if isinstance(obj, ModuleType)] == []
