"""The public surface is what the stack calls.

Every public def, class and module constant in src/ must be reached from
outside the tests: from src/ itself, scripts/, perfbench/ or the acceptance
criteria. A name is reached when it appears as a Name, an Attribute or a
string constant (the benchmark tracer patches by name) in code that is itself
reached. A use inside a definition that nothing reaches does not count, so a
chain of names that only tests call is found whole.

Two narrower rules hold what that census cannot see. Each name a package
__init__ imports is reached from the same callers through that package: it is
imported from the package, read as an attribute of a name bound to the
package, or named by an identifier string. And no module under src/, tests/
or scripts/, package __init__ files aside, imports a name it never reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Names tests hold other code to, as reference implementations.
KEEP = {
    "format_prompt": "the literal prompt text export_prompts writes",
    "average_key_weights": "the checked form of attention._key_weights",
}


class _Census(ast.NodeVisitor):
    """Collects definitions and uses; each use is owned by the innermost
    definition around it, or by None at a root (module-level code, or any
    caller file)."""

    def __init__(self, where: str, defs: list, uses: list, define: bool) -> None:
        self.where, self.defs, self.uses, self.define = where, defs, uses, define
        self.owner: int | None = None

    def _owned(self, name: str, node: ast.AST, children) -> None:
        outer = self.owner
        if self.define:
            self.defs.append((name, f"{self.where}:{node.lineno}"))
            self.owner = len(self.defs) - 1
        for child in children:
            self.visit(child)
        self.owner = outer

    def visit_Module(self, node: ast.Module) -> None:
        for stmt in node.body:
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign)
                else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
            )
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue  # an export list is not a use
            if len(names) == 1 and stmt.value is not None:
                self._owned(names[0], stmt, [stmt.value])
            else:
                self.visit(stmt)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._owned(node.name, node, ast.iter_child_nodes(node))

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):  # a local of the same name is no use
            self.uses.append((node.id, self.owner))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.uses.append((node.attr, self.owner))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str) and node.value.isidentifier():
            self.uses.append((node.value, self.owner))


def _callers(root: Path) -> list[Path]:
    """The files whose uses count: src/, scripts/, perfbench/ and the
    acceptance criteria."""
    paths = sorted((root / "src").rglob("*.py"))
    paths.append(root / "tests" / "test_acceptance.py")
    for folder in ("scripts", "perfbench"):
        paths += sorted((root / folder).rglob("*.py"))
    return paths


def unreached_names(root: Path) -> dict[str, list[str]]:
    """Public names defined in root/src that nothing outside the tests
    reaches, each with the places it is defined."""
    defs: list[tuple[str, str]] = []
    uses: list[tuple[str, int | None]] = []
    src = root / "src"
    for path in _callers(root):
        define = src in path.parents
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _Census(str(path.relative_to(root)), defs, uses, define).visit(tree)

    reached: set[str] = set()
    while True:
        live = {
            i for i, (name, _) in enumerate(defs)
            if name in reached or (name.startswith("__") and name.endswith("__"))
        }
        grown = {name for name, owner in uses if owner is None or owner in live}
        if grown == reached:
            break
        reached = grown
    unreached: dict[str, list[str]] = {}
    for name, where in defs:
        if not name.startswith("_") and name not in reached:
            unreached.setdefault(name, []).append(where)
    return unreached


def test_every_public_name_in_src_is_reached_outside_the_tests():
    unreached = unreached_names(ROOT)
    extra = {name: where for name, where in unreached.items() if name not in KEEP}
    assert not extra, f"public names only tests reach: {extra}"
    stale = sorted(name for name in KEEP if name not in unreached)
    assert not stale, f"kept names that are reached or gone: {stale}"


# Each case: the files of a small tree, and the names the census must list
# there, each at the places it is defined. Every tree has src/pkg/m.py.
CENSUS_CASES = {
    "a_call_from_scripts_reaches": (
        {
            "src/pkg/m.py": "def used():\n    pass\n\n\ndef unused():\n    pass\n",
            "scripts/run.py": "from pkg.m import used\n\nused()\n",
        },
        {"unused": ["src/pkg/m.py:5"]},
    ),
    "an_import_alone_is_no_use": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "scripts/run.py": "from pkg.m import f\n",
        },
        {"f": ["src/pkg/m.py:1"]},
    ),
    "an_export_list_is_no_use": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "src/pkg/__init__.py": "from .m import f\n\n__all__ = ['f']\n",
        },
        {"f": ["src/pkg/m.py:1"]},
    ),
    "a_chain_only_an_unreached_name_calls_is_listed_whole": (
        {"src/pkg/m.py": "def a():\n    return b()\n\n\ndef b():\n    return c()\n\n\n"
                         "def c():\n    pass\n"},
        {"a": ["src/pkg/m.py:1"], "b": ["src/pkg/m.py:5"], "c": ["src/pkg/m.py:9"]},
    ),
    "a_chain_from_a_reached_name_is_reached": (
        {
            "src/pkg/m.py": "def a():\n    return b()\n\n\ndef b():\n    return c()\n\n\n"
                            "def c():\n    pass\n",
            "scripts/run.py": "import pkg.m\n\npkg.m.a()\n",
        },
        {},
    ),
    "a_string_constant_reaches_by_name": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "perfbench/trace.py": "PATCHED = ('f',)\n",
        },
        {},
    ),
    "a_use_in_another_test_file_is_no_use": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "tests/test_other.py": "from pkg.m import f\n\nf()\n",
        },
        {"f": ["src/pkg/m.py:1"]},
    ),
    "the_acceptance_criteria_reach": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "tests/test_acceptance.py": "from pkg.m import f\n\nf()\n",
        },
        {},
    ),
    "a_dunder_method_is_a_root": (
        {"src/pkg/m.py": "class C:\n    def __repr__(self):\n        return helper()\n\n\n"
                         "def helper():\n    return ''\n"},
        {"C": ["src/pkg/m.py:1"]},
    ),
    "module_level_code_in_src_is_a_root": (
        {"src/pkg/m.py": "def main():\n    pass\n\n\nif __name__ == '__main__':\n    main()\n"},
        {},
    ),
    "a_stored_local_is_no_use": (
        {
            "src/pkg/m.py": "LIMIT = 3\n\n\ndef f():\n    LIMIT = 4\n    del LIMIT\n",
            "scripts/run.py": "import pkg.m\n\npkg.m.f()\n",
        },
        {"LIMIT": ["src/pkg/m.py:1"]},
    ),
    "an_unreached_private_name_reaches_nothing_and_is_not_listed": (
        {"src/pkg/m.py": "def _helper():\n    return shown()\n\n\ndef shown():\n    pass\n"},
        {"shown": ["src/pkg/m.py:5"]},
    ),
    "an_attribute_reaches_a_method": (
        {
            "src/pkg/m.py": "class C:\n    def method(self):\n        pass\n\n"
                            "    def other(self):\n        pass\n",
            "scripts/run.py": "import pkg.m\n\npkg.m.C().method()\n",
        },
        {"other": ["src/pkg/m.py:5"]},
    ),
    "a_name_defined_twice_is_listed_at_each_place": (
        {
            "src/pkg/m.py": "def f():\n    pass\n",
            "src/pkg/n.py": "X = 1\n\n\ndef f():\n    pass\n",
            "scripts/run.py": "import pkg.n\n\nprint(pkg.n.X)\n",
        },
        {"f": ["src/pkg/m.py:1", "src/pkg/n.py:4"]},
    ),
}


@pytest.mark.parametrize("files,expected", CENSUS_CASES.values(), ids=CENSUS_CASES.keys())
def test_the_census_lists_exactly_the_unreached_names(tmp_path, files, expected):
    files = {"tests/test_acceptance.py": "", **files}
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert unreached_names(tmp_path) == expected


def _package_of(path: Path, src: Path) -> str:
    """The dotted package a file's relative imports start from ('' outside src/)."""
    if src not in path.parents:
        return ""
    return ".".join(path.relative_to(src).parent.parts)


def _imported_module(node: ast.ImportFrom, package: str) -> str:
    if not node.level:
        return node.module or ""
    parts = package.split(".")
    parts = parts[: len(parts) - node.level + 1]
    return ".".join(parts + ([node.module] if node.module else []))


def _dotted(node: ast.AST, bound: dict[str, str]) -> str | None:
    """The module a Name or Attribute chain stands for, through the names the
    file binds by import."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute) and (base := _dotted(node.value, bound)):
        return f"{base}.{node.attr}"
    return None


def unreached_exports(root: Path) -> dict[str, list[str]]:
    """The names each package __init__ under root/src imports that no code
    outside the tests reaches through that package, by package."""
    src = root / "src"
    exports: dict[str, set[str]] = {}
    for init in sorted(src.rglob("__init__.py")):
        package = _package_of(init, src)
        exports[package] = {
            alias.asname or alias.name
            for node in ast.walk(ast.parse(init.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
    reached: set[tuple[str, str]] = set()
    strings: set[str] = set()
    for path in _callers(root):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        package, bound = _package_of(path, src), {}
        export_lists = {
            id(n) for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for n in ast.walk(node.value)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        bound[head] = head
            elif isinstance(node, ast.ImportFrom):
                module = _imported_module(node, package)
                for alias in node.names:
                    bound[alias.asname or alias.name] = f"{module}.{alias.name}"
                    if path.name != "__init__.py":  # a re-export is no use
                        reached.add((module, alias.name))
            elif isinstance(node, ast.Constant) and id(node) not in export_lists:
                if isinstance(node.value, str) and node.value.isidentifier():
                    strings.add(node.value)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (module := _dotted(node.value, bound)):
                reached.add((module, node.attr))
    unreached = {
        package: sorted(n for n in names if (package, n) not in reached and n not in strings)
        for package, names in exports.items()
    }
    return {package: names for package, names in unreached.items() if names}


def unread_imports(root: Path) -> dict[str, list[str]]:
    """The names each module under root's src/, tests/ and scripts/ binds by
    import and never reads, package __init__ files aside, by file."""
    unread: dict[str, list[str]] = {}
    for folder in ("src", "tests", "scripts"):
        for path in sorted((root / folder).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = [
                (alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            ]
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            if names := sorted({name for name in imported if name not in read}):
                unread[str(path.relative_to(root))] = names
    return unread


def test_every_package_export_is_reached_outside_the_tests():
    assert unreached_exports(ROOT) == {}


def test_no_module_imports_a_name_it_never_reads():
    assert unread_imports(ROOT) == {}


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# Each case: the files of a small tree beside src/pkg/__init__.py, which
# re-exports f and g from src/pkg/m.py, and the names the rule must list.
EXPORT_CASES = {
    "an_unused_export_is_listed": ({}, {"pkg": ["f", "g"]}),
    "an_import_from_the_package_reaches": (
        {"scripts/run.py": "from pkg import f\n"},
        {"pkg": ["g"]},
    ),
    "an_import_from_the_module_is_no_use_of_the_export": (
        {"scripts/run.py": "from pkg.m import f, g\n\nf()\ng()\n"},
        {"pkg": ["f", "g"]},
    ),
    "a_relative_import_from_the_package_reaches": (
        {
            "src/pkg/n.py": "from . import f\n",
            "src/pkg/sub/__init__.py": "",
            "src/pkg/sub/n.py": "from .. import g\n",
        },
        {},
    ),
    "an_attribute_of_a_bound_package_reaches": (
        {"perfbench/run.py": "import pkg\nimport pkg as p\n\npkg.f()\np.g()\n"},
        {},
    ),
    "an_attribute_of_a_dotted_import_reaches": (
        {"scripts/run.py": "import pkg.m\nimport pkg as q\n\npkg.f()\nq.m.g()\n"},
        {"pkg": ["g"]},
    ),
    "an_identifier_string_reaches": (
        {"perfbench/trace.py": "PATCHED = ('g', 'not an identifier f')\n"},
        {"pkg": ["f"]},
    ),
    "an_export_list_is_no_use": (
        {"src/other/__init__.py": "from pkg import f\n\n__all__ = ['f', 'g']\n"},
        {"other": ["f"], "pkg": ["f", "g"]},
    ),
    "a_use_in_another_test_file_is_no_use": (
        {"tests/test_other.py": "import pkg\nfrom pkg import f\n\nf()\npkg.g()\n"},
        {"pkg": ["f", "g"]},
    ),
    "the_acceptance_criteria_reach": (
        {"tests/test_acceptance.py": "from pkg import f, g\n"},
        {},
    ),
}


@pytest.mark.parametrize("files,expected", EXPORT_CASES.values(), ids=EXPORT_CASES.keys())
def test_the_export_rule_lists_exactly_the_unreached_exports(tmp_path, files, expected):
    _write_tree(tmp_path, {
        "tests/test_acceptance.py": "",
        "src/pkg/__init__.py": "from __future__ import annotations\n\nfrom .m import f, g\n",
        "src/pkg/m.py": "def f():\n    pass\n\n\ndef g():\n    pass\n",
        **files,
    })
    assert unreached_exports(tmp_path) == expected


# Each case: the files of a small tree, and the unread imports the check
# must list there.
IMPORT_CASES = {
    "an_unread_import_is_listed": (
        {"tests/test_a.py": "import math\nimport re\n\nre.compile('x')\n"},
        {"tests/test_a.py": ["math"]},
    ),
    "an_alias_is_the_name_read": (
        {"scripts/run.py": "import numpy as np\nfrom os import path as p\n\nprint(numpy, path)\n"},
        {"scripts/run.py": ["np", "p"]},
    ),
    "a_dotted_import_binds_its_head": (
        {"src/pkg/m.py": "import os.path\nimport xml.dom\n\nos.path.join('a')\n"},
        {"src/pkg/m.py": ["xml"]},
    ),
    "future_imports_and_package_inits_are_aside": (
        {
            "src/pkg/m.py": "from __future__ import annotations\n",
            "src/pkg/__init__.py": "from .m import f\n",
        },
        {},
    ),
    "other_folders_are_aside": ({"perfbench/run.py": "import math\n"}, {}),
}


@pytest.mark.parametrize("files,expected", IMPORT_CASES.values(), ids=IMPORT_CASES.keys())
def test_the_import_check_lists_exactly_the_unread_imports(tmp_path, files, expected):
    _write_tree(tmp_path, files)
    assert unread_imports(tmp_path) == expected
