"""The package's export list, its modules' imports and its private
helpers."""

import ast
from pathlib import Path

import coopcache

SOURCES = sorted(Path(coopcache.__file__).parent.glob("*.py"))


def test_all_has_no_duplicates_and_every_name_resolves():
    names = coopcache.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(coopcache, n)] == []


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never references (a name listed in
    its ``__all__`` counts as referenced: it is re-exported)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_unused_import_scan_finds_an_unused_name():
    source = "import os\nfrom typing import Optional, Sequence\nx: Optional[int] = os.sep\n"
    assert _unused_imports(source) == ["line 2: Sequence"]
    assert _unused_imports("import a\n__all__ = ['a']\n") == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(path.read_text()) for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}


def _unreferenced_private_defs(sources: dict[str, str]) -> list[str]:
    """The module-private functions and classes (``_name``, not dunder)
    defined at the top of a module that no module in ``sources`` (name ->
    source) references, by name or as an attribute."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    ]


def test_the_private_def_scan_finds_an_unreferenced_helper():
    sources = {
        "a.py": "def _dead():\n    pass\ndef _live():\n    pass\nclass _Gone:\n"
                "    def _method(self):\n        pass\nx = _live()\n",
        "b.py": "import a\ndef _by_attribute():\n    pass\ndef __dunder__():\n"
                "    pass\na._by_attribute()\n",
    }
    assert _unreferenced_private_defs(sources) == ["a.py: _dead", "a.py: _Gone"]


def test_every_private_helper_is_referenced_in_the_package():
    sources = {path.name: path.read_text() for path in SOURCES}
    assert _unreferenced_private_defs(sources) == []


def _imported_modules(source: str) -> set[str]:
    """The top-level modules a module imports, relative imports aside."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_the_garbage_collector():
    # a run leaves the process-wide cyclic collector alone
    assert _imported_modules("import gc as g\nfrom os.path import sep\nfrom . import gc\n") == {
        "gc", "os"
    }
    importing = [path.name for path in SOURCES if "gc" in _imported_modules(path.read_text())]
    assert importing == []
