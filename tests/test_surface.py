"""The public surface is what the stack calls.

Every public def, class and module constant in src/ must be reached from
outside the tests: from src/ itself, scripts/, perfbench/ or the acceptance
criteria. A name is reached when it appears as a Name, an Attribute or a
string constant (the benchmark tracer patches by name) in code that is itself
reached. A use inside a definition that nothing reaches does not count, so a
chain of names that only tests call is found whole.
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


def unreached_names(root: Path) -> dict[str, list[str]]:
    """Public names defined in root/src that nothing outside the tests
    reaches, each with the places it is defined."""
    defs: list[tuple[str, str]] = []
    uses: list[tuple[str, int | None]] = []
    sources = [(path, True) for path in sorted((root / "src").rglob("*.py"))]
    sources.append((root / "tests" / "test_acceptance.py", False))
    for folder in ("scripts", "perfbench"):
        sources += [(path, False) for path in sorted((root / folder).rglob("*.py"))]
    for path, define in sources:
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
