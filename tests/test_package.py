"""The package's export list, its modules' imports and its private
helpers."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import coopcache

SOURCES = sorted(Path(coopcache.__file__).parent.glob("*.py"))


def test_all_has_no_duplicates_and_every_name_resolves():
    names = coopcache.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(coopcache, n)] == []


def test_each_export_is_the_object_its_module_defines():
    # the export table names the module that defines each class and function
    for name in coopcache.__all__:
        module = importlib.import_module(f"coopcache.{coopcache._MODULE_OF[name]}")
        value = getattr(coopcache, name)
        assert value is getattr(module, name), name
        if (inspect.isclass(value) or inspect.isfunction(value)) and name != "Frac":
            assert value.__module__ == module.__name__, name
    assert coopcache.Frac is Fraction


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
        # a literal ``__all__`` names re-exports; a computed one imports nothing
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
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


# the analytic layer and what builds on it alone, and the modules it must
# not load: numpy and the scheduler modules
ANALYTIC = ("config.py", "closed_forms.py", "bounds.py", "cli.py")
HEAVY = {"numpy", ".model", ".centralized", ".decentralized", ".simulator", ".decode"}


def _module_level_imports(source: str) -> set[str]:
    """The modules a module's top-level statements import, a relative one
    as ``.name``; imports inside a function are left out."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and not node.module:
            names.update("." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + node.module.split(".")[0])
    return names


def test_the_module_level_import_scan_finds_relative_imports():
    source = (
        "import numpy as np\nfrom os.path import sep\nfrom .model import X\n"
        "from . import simulator\ndef f():\n    from . import centralized\n"
    )
    assert _module_level_imports(source) == {"numpy", "os", ".model", ".simulator"}


def test_the_analytic_modules_import_no_numpy_and_no_scheduler():
    root = Path(coopcache.__file__).parent
    found = {
        name: sorted(_module_level_imports((root / name).read_text()) & HEAVY)
        for name in ANALYTIC
    }
    assert {name: heavy for name, heavy in found.items() if heavy} == {}


_LOADED = """
import contextlib, io, json, sys
heavy = ["numpy", "coopcache.model", "coopcache.centralized",
         "coopcache.decentralized", "coopcache.simulator", "coopcache.decode"]
import coopcache
after_import = [m for m in heavy if m in sys.modules]
from coopcache.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify"])] + [
        main(["sweep", "--scheme", scheme, "--N", "6", "--K", "6", "--alpha-max", "3",
              "--grid", grid])
        for scheme, grid in (("centralized", "0:6:1"), ("decentralized", "0:1:1/4"),
                             ("bounds", "0:6:1"))
    ]
print(json.dumps([after_import, codes, [m for m in heavy if m in sys.modules]]))
"""


def test_verify_and_sweep_load_no_numpy_and_no_scheduler():
    # a fresh interpreter: the test session itself has loaded everything
    env = dict(os.environ, PYTHONPATH=str(Path(coopcache.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, "-c", _LOADED], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == [[], [0, 0, 0, 0], []]


# the encodings of a set of users that mask rows replaced, and ``_index``,
# the subfile table that the resolvers hold as their public subfile_masks
RETIRED = ("_users", "receivers_of", "member_columns", "receiver_sets", "subset_code", "_index")


def test_sets_of_users_have_one_encoding():
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
        } | {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not names & set(RETIRED), (path.name, names & set(RETIRED))


def _stable_sorts(source: str) -> list[str]:
    """The calls of ``lexsort`` and of ``argsort`` with ``kind="stable"`` in
    a module, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        stable = any(
            k.arg == "kind" and isinstance(k.value, ast.Constant) and k.value.value == "stable"
            for k in node.keywords
        )
        if name == "lexsort" or (name == "argsort" and stable):
            found.append(f"line {node.lineno}: {name}")
    return found


def test_the_stable_sort_scan_finds_lexsort_and_stable_argsort():
    source = (
        "import numpy as np\nfrom numpy import lexsort\na = np.lexsort((x, y))\n"
        "b = x.argsort(kind='stable')\nc = np.argsort(x)\nd = lexsort((x,))\n"
    )
    assert _stable_sorts(source) == ["line 3: lexsort", "line 4: argsort", "line 6: lexsort"]


def test_every_stable_order_comes_from_the_sort_kernel():
    # model.stable_order is the one place a stable order is computed
    found = {path.name: _stable_sorts(path.read_text()) for path in SOURCES}
    assert {name: calls for name, calls in found.items() if calls and name != "model.py"} == {}
    assert found["model.py"] != []


# the decode check reads log columns, demands, the library and public
# resolver methods, never what a scheduler kept: its module imports no
# scheduler and no part of the simulator, and loads no attribute that holds
# a scheduler's bookkeeping
SCHEDULERS = {"centralized", "decentralized", "simulator"}
SCHEDULER_ATTRIBUTES = {"schedule", "placement", "plan"}


def _scheduler_reads(source: str) -> list[str]:
    """What a module reads of the schedulers, by line: each module of
    ``SCHEDULERS`` it imports, relatively or as ``coopcache.name``, and each
    attribute of ``SCHEDULER_ATTRIBUTES`` it loads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if node.attr in SCHEDULER_ATTRIBUTES:
                found.add((node.lineno, "." + node.attr))
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith((".", "coopcache.")):
                module = name.lstrip(".").removeprefix("coopcache.").split(".")[0]
                if module in SCHEDULERS:
                    found.add((node.lineno, module))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_scheduler_read_scan_finds_imports_and_bookkeeping():
    source = (
        "from .centralized import _delivery\nfrom . import decentralized as dec, model\n"
        "from .model import has\nimport coopcache.simulator as sim, numpy\n"
        "from coopcache import centralized\nfrom coopcache.decentralized import x\n"
        "def middle(log, placement):\n    y = log.resolver.placement\n"
        "    log.plan = placement\n    return dec.caching_sets(y)\n"
        "def check(schedule):\n    return _delivery(schedule.plan)\n"
    )
    assert _scheduler_reads(source) == [
        "line 1: centralized", "line 2: decentralized", "line 4: simulator",
        "line 5: centralized", "line 6: decentralized", "line 8: .placement",
        "line 12: .plan",
    ]


def test_the_decode_check_reads_no_scheduler_bookkeeping():
    source = (Path(coopcache.__file__).parent / "decode.py").read_text()
    assert _scheduler_reads(source) == []
    # numpy and the standard library aside, it builds on the model alone
    relative = {m for m in _module_level_imports(source) if m.startswith(".")}
    assert relative <= {".model", ".config"}
