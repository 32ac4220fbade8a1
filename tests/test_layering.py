"""Imports inside the package run one way.

    words -> construction -> matching -> oblivious -> online -> oracles -> cli

Each module may import only modules to its left (``online`` uses
``oblivious``'s decoder, never the reverse).  ``rng`` and ``reporting`` are
leaves: they import nothing from the package and anyone may import them.
Only ``cli`` imports ``oracles``.  The package also keeps no option that
nothing sets, every parameter with a default is passed somewhere, and no
top-level name, method or property that nothing reads.  No test module
imports a name it never reads.
"""

import ast
import re
from pathlib import Path
from types import ModuleType

import deletion_lab
from deletion_lab import cli, oracles

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


def hash_outside_dunder_hash(source: str) -> list[int]:
    """Lines of ``source`` that spell ``hash(`` outside every ``__hash__`` method."""
    inside = {line for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == "__hash__"
              for line in range(node.lineno, node.end_lineno + 1)}
    return [k for k, line in enumerate(source.splitlines(), 1)
            if re.search(r"\bhash\(", line) and k not in inside]


def test_package_calls_hash_only_in_dunder_hash():
    # ``hash()`` of str or bytes changes with PYTHONHASHSEED, and a truncated
    # hash lets two values share a random stream: nothing may rest on it
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in hash_outside_dunder_hash(path.read_text())]
    assert found == []


def test_hash_scan_sees_every_form():
    source = (
        "class A:\n"
        "    def __hash__(self):\n"
        "        return hash(self.x)\n"
        "def f(y):\n"
        "    return hash(y) & 0xFFFF\n"
        "# hash(y) names a stream\n"
        "digest = hashlib.sha256(b'')\n"
        "g = rehash(1)\n"
    )
    assert hash_outside_dunder_hash(source) == [5, 6]


def calls_named(tree: ast.AST, name: str) -> list[int]:
    """Lines of the calls in ``tree`` of a function or method called ``name``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_package_raises_no_python_warning():
    # a warning prints the line of whatever frame it names, not a message of the
    # command; the CLI says what a user must know as a ``note:`` on stderr
    found = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
             for line in calls_named(ast.parse(path.read_text(), str(path)), "warn")]
    assert found == []


def test_only_construction_and_the_cli_know_paper_parameters():
    # paper-scale parameters are refused at one edge, ``construction.executable_params``
    # called by the CLI; every other module takes toy ``CodeParams`` and checks nothing
    named = [path.stem for path in PACKAGE.glob("*.py") if re.search(r"\bPaperParams\b", path.read_text())]
    checks = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
              for line in calls_named(ast.parse(path.read_text(), str(path)), "require_executable")]
    assert set(named) <= {"construction", "cli"} and "construction" in named and checks == []


def test_oblivious_takes_beta_from_construction():
    # beta = log2(K) / (16 R) and the filter threshold have one home,
    # ``construction.matchability_exponent`` and ``filter_threshold``
    found = calls_named(ast.parse((PACKAGE / "oblivious.py").read_text()), "log2")
    assert [f"oblivious.py:{line}" for line in found] == []


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


def test_cli_assembles_no_experiment_or_oracle_itself():
    # lemma parameters, pools, σ and match configs are chosen in the modules
    # that own them; from ``oracles`` the CLI takes the lemma table only
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    bound = {alias.name.split(".")[-1] for node in imports for alias in node.names}
    assembly = {"toy_params", "all_outer_words", "MatchConfig", "worst_sets", "rate_info", "json_int"}
    assert sorted((bound | names_read(tree)) & assembly) == []
    from_oracles = {alias.name for node in imports if isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] == "oracles" for alias in node.names}
    assert "oracles" not in bound and from_oracles == {"LEMMAS"}


def test_oblivious_builds_patterns_from_masks_and_parses_positions_only_in_read_patterns():
    # the pattern family is built on keep masks; 1-based positions are parsed
    # from pattern files and printed, never built or read in between
    tree = ast.parse((PACKAGE / "oblivious.py").read_text())
    parser = set(ast.walk(top_level_definitions(tree)["read_patterns"]))
    built = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "DeletionPattern" and node not in parser]
    read = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "deleted"]
    assert (built, read) == ([], [])


def second_usage_error_exits(source: str) -> list[str]:
    """Where ``source`` calls ``.error(`` outside ``main``, or names a parameter ``parser``."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    in_main = {line for fn in functions if getattr(fn, "name", None) == "main" for line in calls_named(fn, "error")}
    found = [f"error:{line}" for line in calls_named(tree, "error") if line not in in_main]
    for fn in functions:
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs + [fn.args.vararg, fn.args.kwarg]
        found += [f"parser:{fn.lineno}" for arg in params if arg is not None and arg.arg == "parser"]
    return sorted(found)


def test_only_main_turns_a_refusal_into_a_usage_error():
    # a command refuses input by raising ValueError, and ``main``'s ``except``
    # alone calls ``parser.error``, so no other function is handed the parser
    assert second_usage_error_exits((PACKAGE / "cli.py").read_text()) == []


def test_usage_error_scan_sees_every_form():
    source = (
        "def main(argv=None):\n"
        "    parser.error('ok')\n"
        "def cmd(parser, args):\n"
        "    parser.error('no')\n"
        "run = lambda *, parser: parser.error('no')\n"
        "def helper(args):\n"
        "    args.parser.error('no')\n"
    )
    assert second_usage_error_exits(source) == ["error:4", "error:5", "error:7", "parser:3", "parser:5"]


def test_the_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_readme_lists_the_lemma_table_in_order():
    # README's lemma table: the rows after its "| lemma |" header, up to the first blank line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("\n| lemma |"):].split("\n\n")[0]
    assert re.findall(r"^\| `([a-z-]+)` \|", table, flags=re.MULTILINE) == list(oracles.LEMMAS)


def test_readme_config_table_lists_the_keys_the_cli_reads():
    # README's oblivious config table: its first column is every top-level key
    # plus pool.structured, and the pool rows name every pool key
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### `experiment oblivious` config"):]
    table = section[section.index("\n| key |"):].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `([a-z_.]+)` \|(.*)$", table, flags=re.MULTILINE))
    assert len(rows) == len(re.findall(r"^\| `", table, flags=re.MULTILINE))
    assert set(rows) == cli.CONFIG_KEYS | {"pool.structured"}
    pool_rows = " ".join(text for key, text in rows.items() if key.split(".")[0] == "pool")
    assert [key for key in sorted(cli.POOL_KEYS) if f'"{key}"' not in pool_rows and f"pool.{key}" not in pool_rows] == []


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


def defaulted_parameters(tree: ast.Module) -> dict[tuple[str, str], int | None]:
    """``{(callee, parameter): position}`` for every parameter with a default.

    A class's ``__init__`` is called by the class name.  Inside a class the
    first parameter (``self`` or ``cls``) is bound, so positions count from the
    one after it; a keyword-only parameter has no position.
    """
    found = {}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                callee = owner if child.name == "__init__" else child.name
                first = len(positional) - len(args.defaults)
                for k, arg in enumerate(positional[first:], start=first):
                    found[callee, arg.arg] = k - bound
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[callee, arg.arg] = None
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def parameters_set_by_calls(tree: ast.Module, defaults: dict) -> set[tuple[str, str]]:
    """The ``(callee, parameter)`` pairs of ``defaults`` that some call in ``tree`` passes."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {kw.arg for kw in node.keywords}
        for (name, param), position in defaults.items():
            if name != callee:
                continue
            if (param in keywords or None in keywords
                    or position is not None and (starred or position < len(node.args))):
                passed.add((name, param))
    return passed


def test_every_defaulted_parameter_is_set_somewhere():
    # a parameter with a default that no product code and no acceptance
    # criterion sets is an option with one value in use: a constant
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))]
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    defaults = {}
    for tree in trees:
        defaults.update(defaulted_parameters(tree))
    passed = set()
    for tree in trees + [ast.parse(acceptance.read_text(), str(acceptance))]:
        passed |= parameters_set_by_calls(tree, defaults)
    unset = set(defaults) - passed - {("main", "argv")}  # the argv of ``cli.main`` is for callers
    assert sorted(unset) == []


def test_parameter_scan_sees_every_form():
    tree = ast.parse(
        "class A:\n"
        "    def __init__(self, x, y=1, *, z=2): ...\n"
        "    def m(self, u=3): ...\n"
        "    @staticmethod\n"
        "    def s(v=4): ...\n"
        "def f(a, b=5, c=6):\n"
        "    def inner(d=7): ...\n"
        "A(0, z=1); obj.m(1); f(0, *rest); inner(**kw)\n"
    )
    defaults = defaulted_parameters(tree)
    assert defaults == {("A", "y"): 1, ("A", "z"): None, ("m", "u"): 0, ("s", "v"): 0,
                        ("f", "b"): 1, ("f", "c"): 2, ("inner", "d"): 0}
    assert parameters_set_by_calls(tree, defaults) == {
        ("A", "z"), ("m", "u"), ("f", "b"), ("f", "c"), ("inner", "d")}


def top_level_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Every function and class a module defines at its top level, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def class_members(tree: ast.Module) -> dict[str, ast.AST]:
    """Every method and property of a module's top-level classes, dunders aside, as ``Class.member``."""
    return {f"{cls.name}.{node.name}": node
            for cls in top_level_definitions(tree).values() if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def names_read(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """The ``ast.Name`` ids and ``ast.Attribute`` attrs in ``tree``, outside the subtree ``skip``.

    An import binds a name without reading it, and a docstring is a string,
    so neither counts.
    """
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unused_definitions(modules: dict[str, ast.Module], readers: list[ast.Module], definitions,
                       exempt: set[str]) -> list[str]:
    """``module.label`` for each of the ``definitions(tree)`` of ``modules`` that nothing reads.

    A definition counts as read when a module or a reader reads its name.
    Its own body does not count as a reader, so recursion alone keeps
    nothing alive.
    """
    trees = [*modules.values(), *readers]
    return sorted(
        f"{module}.{label}"
        for module, tree in modules.items()
        for label, node in definitions(tree).items()
        if node.name not in exempt and not any(node.name in names_read(other, node) for other in trees)
    )


def package_and_acceptance() -> tuple[dict[str, ast.Module], list[ast.Module]]:
    """The package's modules but ``__init__``, by name, and the acceptance tests as the one reader."""
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}
    acceptance = Path(__file__).resolve().parent / "test_acceptance.py"
    return modules, [ast.parse(acceptance.read_text(), str(acceptance))]


def test_every_top_level_name_is_used():
    # a function or class that only unit tests read is a reference for the
    # tests (``tests/helpers.py``) or dead code, not package surface
    modules, readers = package_and_acceptance()
    assert unused_definitions(modules, readers, top_level_definitions, set(deletion_lab.__all__)) == []


def test_every_class_member_is_used():
    # the same holds for the methods and properties of package classes; a
    # member is matched by name alone, so any read of that attribute keeps it
    modules, readers = package_and_acceptance()
    assert unused_definitions(modules, readers, class_members, set()) == []


def test_name_scan_sees_every_form():
    modules = {
        "a": ast.parse(
            "def used_by_name(): ...\n"
            "def used_as_attribute(): ...\n"
            "def only_recursive():\n"
            "    return only_recursive()\n"
            "def only_imported(): ...\n"
            "def only_in_a_docstring(): ...\n"
            "class Exported:\n"
            "    def __init__(self): ...\n"
            "    def called(self): ...\n"
            "    @property\n"
            "    def read(self): ...\n"
            "    def only_self_called(self):\n"
            "        return self.only_self_called()\n"
            "    @property\n"
            "    def never_read(self): ...\n"
            "x = used_by_name\n"
        ),
    }
    readers = [
        ast.parse(
            "from a import only_imported\n"
            "import a\n"
            "def f():\n"
            "    \"\"\"Calls only_in_a_docstring.\"\"\"\n"
            "    return a.used_as_attribute()\n"
            "f(); a.Exported().called(); a.Exported().read\n"
        ),
    ]
    assert unused_definitions(modules, readers, top_level_definitions, {"Exported"}) == [
        "a.only_imported", "a.only_in_a_docstring", "a.only_recursive"]
    assert unused_definitions(modules, readers, class_members, set()) == [
        "a.Exported.never_read", "a.Exported.only_self_called"]


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import in ``tree`` binds and nothing in ``tree`` reads."""
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    return sorted(bound - names_read(tree))


def test_no_package_module_imports_a_name_it_never_reads():
    # ``from __future__ import annotations`` acts by being there; ``__init__``
    # imports the public API to re-export it
    unused = {path.name: sorted(set(unused_imports(ast.parse(path.read_text(), str(path))))
                                - {"annotations"} - (set(deletion_lab.__all__) if path.stem == "__init__" else set()))
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_no_test_module_imports_a_name_it_never_reads():
    tests = Path(__file__).resolve().parent
    unused = {path.name: unused_imports(ast.parse(path.read_text(), str(path)))
              for path in sorted(tests.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


def test_import_use_scan_sees_every_form():
    tree = ast.parse(
        "import os, os.path\n"
        "import numpy as np\n"
        "from a import b, c as d, e\n"
        "def f():\n"
        "    from g import h\n"
        "    return np.zeros(b) + d\n"
    )
    assert unused_imports(tree) == ["e", "h", "os"]
