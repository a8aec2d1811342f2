"""Layout guard: nothing in the package is there only for the tests.

Every top-level function and class in ``src/qlin`` (``__init__`` aside)
must be used by the package itself or by the benchmark in ``bench/``.
Reference implementations and the checkers of the paper's lemmas that
only tests call belong in ``tests/support.py`` and ``tests/lemmas.py``.

A definition counts as used when a name, attribute or imported alias
with its name appears outside its own body, in the package or in
``bench/*.py``.  Import lines inside the package do not count, so the
re-exports of ``qlin/__init__`` make nothing used.  The scan repeats
until nothing changes, ignoring the bodies of definitions already found
unused, so a helper that only an unused helper calls is flagged too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlin"
BENCH = ROOT / "bench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(tree: ast.Module, module: str | None):
    """(name, owner) for every reference in tree.  The owner is the
    (module, name) of the enclosing top-level definition, or None; with
    module None (code outside the package) owners are not tracked and
    imported aliases count."""
    for top in tree.body:
        owner = (module, top.name) if module is not None and isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner
            elif isinstance(node, ast.alias) and module is None:
                yield node.name.rsplit(".", 1)[-1], owner


def unused_definitions(package: dict[str, str], outside: list[str]) -> set[tuple[str, str]]:
    """The (module, name) pairs of top-level definitions in package
    (module name -> source) that nothing in package or outside uses."""
    defined: set[tuple[str, str]] = set()
    owners: dict[str, set] = {}  # name -> owners of its references
    trees = [(ast.parse(source), module) for module, source in package.items()]
    trees += [(ast.parse(source), None) for source in outside]
    for tree, module in trees:
        if module is not None:
            defined.update((module, top.name) for top in tree.body if isinstance(top, _DEFS))
        for name, owner in _references(tree, module):
            owners.setdefault(name, set()).add(owner)
    unused: set[tuple[str, str]] = set()
    while True:
        # used: referenced from outside its own body and outside every
        # definition found unused so far
        now = {d for d in defined if not owners.get(d[1], set()) - unused - {d}}
        if now == unused:
            return unused
        unused = now


def test_nothing_in_the_package_is_used_only_by_tests():
    package = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unused_definitions(package, outside) == set()


def test_guard_flags_helpers_of_unused_helpers():
    package = {
        "core": (
            "import os\n"
            "def entry():\n    return _helper()\n"
            "def _helper():\n    return 1\n"
            "def lemma():\n    return _lemma_part() + lemma()\n"
            "def _lemma_part():\n    return 2\n"
            "class Unused:\n    def again(self):\n        return Unused()\n"
        ),
        "reexport": "from .core import lemma, Unused\n",
    }
    outside = ["from qlin.core import entry\nentry()\n"]
    assert unused_definitions(package, outside) == {
        ("core", "lemma"), ("core", "_lemma_part"), ("core", "Unused"),
    }
