"""Layout guard: nothing in the package is there only for the tests.

Every top-level function and class in ``src/qlin`` (``__init__`` aside),
and every public method of a top-level class (dunders aside), must be
used by the package itself or by the benchmark in ``bench/``.
Reference implementations, the checkers of the paper's lemmas and the
views of histories that only tests call belong in ``tests/support.py``
and ``tests/lemmas.py``.

A top-level definition counts as used when a name, attribute or
imported alias with its name appears outside its own body, in the
package or in ``bench/*.py``; a method, only when an attribute with its
name does, since a parameter or local of the same name calls nothing.
Import lines inside the package do not count, so the re-exports of
``qlin/__init__`` make nothing used.  The scan repeats until nothing
changes, ignoring the bodies of definitions already found unused, so a
helper that only an unused helper calls is flagged too.  The methods of
an unused class are reported with the class, not one by one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qlin"
BENCH = ROOT / "bench"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFS = _FUNCS + (ast.ClassDef,)


def _scopes(top: ast.stmt, path: tuple):
    """(node, owner) pairs covering a top-level definition: each method of
    a class is a scope of its own, owned by (module, class, method)."""
    if not isinstance(top, ast.ClassDef):
        yield top, path
        return
    for item in top.body:
        yield item, path + (item.name,) if isinstance(item, _FUNCS) else path
    for node in top.decorator_list + top.bases + top.keywords:
        yield node, path


def _references(tree: ast.Module, module: str | None):
    """(name, is_attribute, owner) for every reference in tree.  The owner
    is the path of the innermost enclosing top-level definition or
    method, or None; with module None (code outside the package) owners
    are not tracked and imported aliases count."""
    for top in tree.body:
        if module is not None and isinstance(top, _DEFS):
            scopes = _scopes(top, (module, top.name))
        else:
            scopes = [(top, None)]
        for scope, owner in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Name):
                    yield node.id, False, owner
                elif isinstance(node, ast.Attribute):
                    yield node.attr, True, owner
                elif isinstance(node, ast.alias) and module is None:
                    yield node.name.rsplit(".", 1)[-1], False, owner


def _is_public_method(node: ast.stmt) -> bool:
    return isinstance(node, _FUNCS) and not node.name.startswith("_")


def unused_definitions(package: dict[str, str], outside: list[str]) -> set[tuple[str, str]]:
    """The (module, name) pairs of top-level definitions, and the
    (module, "Class.method") pairs of public methods, in package (module
    name -> source) that nothing in package or outside uses."""
    defined: set[tuple] = set()
    owners: dict[str, set] = {}  # name -> owners of its references
    attr_owners: dict[str, set] = {}  # name -> owners of its attribute references
    trees = [(ast.parse(source), module) for module, source in package.items()]
    trees += [(ast.parse(source), None) for source in outside]
    for tree, module in trees:
        if module is not None:
            for top in tree.body:
                if isinstance(top, _DEFS):
                    defined.add((module, top.name))
                if isinstance(top, ast.ClassDef):
                    defined.update((module, top.name, item.name)
                                   for item in top.body if _is_public_method(item))
        for name, is_attribute, owner in _references(tree, module):
            owners.setdefault(name, set()).add(owner)
            if is_attribute:
                attr_owners.setdefault(name, set()).add(owner)

    def used(d: tuple, unused: set) -> bool:
        # referenced from outside its own body and outside every
        # definition found unused so far
        refs = (owners if len(d) == 2 else attr_owners).get(d[-1], ())
        return any(owner is None or owner[:len(d)] != d and not {owner[:2], owner} & unused
                   for owner in refs)

    unused: set[tuple] = set()
    while True:
        now = {d for d in defined if not used(d, unused)}
        if now == unused:
            break
        unused = now
    return {(d[0], ".".join(d[1:])) for d in unused if len(d) == 2 or d[:2] not in unused}


def _package() -> dict[str, str]:
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def test_nothing_in_the_package_is_used_only_by_tests():
    outside = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unused_definitions(_package(), outside) == set()


def test_only_the_benchmark_keeps_these_alive():
    # the definitions that only the benchmark in bench/ uses: new
    # bench-only code fails here, and a name the benchmark stops using
    # fails the test above
    assert unused_definitions(_package(), []) == {
        ("checker", "derive_match"), ("checker", "detect_vord"), ("checker", "detect_vwit"),
        ("explorer", "ExecutionTrace"), ("explorer", "induce_history"),
        ("explorer", "replay_schedule"),
        ("history", "History.is_differentiated"),
        ("hwmodel", "HWState.all_done"), ("hwmodel", "classify_endpoint"),
        ("hwmodel", "hw_init"),
    }


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


def test_guard_flags_methods_only_tests_call():
    package = {
        "core": (
            "class Box:\n"
            "    def __init__(self, uids):\n        self.items = uids\n"
            "    def size(self):\n        return len(self.items)\n"
            "    @property\n    def empty(self):\n        return not self.size()\n"
            "    def uids(self):\n        return self.items\n"
            "    def again(self):\n        return self.again()\n"
            "    def lemma(self):\n        return self._part() + self.lemma_part()\n"
            "    def lemma_part(self):\n        return 2\n"
            "    def _part(self):\n        return 1\n"
            "def entry(uids):\n    return Box(uids).empty\n"
        ),
    }
    outside = ["from qlin.core import entry\nentry([])\n"]
    assert unused_definitions(package, outside) == {
        ("core", "Box.uids"), ("core", "Box.again"),
        ("core", "Box.lemma"), ("core", "Box.lemma_part"),
    }
