import ast
import os
import subprocess
import sys
from pathlib import Path

import mixedwidths
from mixedwidths import designs, norms, partitions, spread, widths

MODULES = (designs, norms, partitions, spread, widths)
SOURCES = sorted(Path(mixedwidths.__file__).parent.glob("*.py"))


def test_package_exports_every_public_name_of_every_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(mixedwidths, name) is getattr(module, name), (module.__name__, name)
    assert set(mixedwidths.__all__) == {name for module in MODULES for name in module.__all__}


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads: not as a name, not as the
    root of an attribute and not in __all__.  An import on a line marked
    "# noqa: F401" is kept on purpose; star and __future__ imports are
    skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    unused = {path.name: _unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: lines for name, lines in unused.items() if lines} == {}


def test_the_unused_import_check_sees_a_stranded_import():
    source = "import math\nimport numpy as np  # noqa: F401\nfrom x import (\n    a,\n    b,\n)\n\nprint(a)\n"
    assert _unused_imports(source) == ["line 1: math", "line 5: b"]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _stranded_private_names(sources: list[str]) -> list[str]:
    """Private names defined at the top level of a module (functions,
    classes and assigned names; dunders aside) that no module reads: as a
    name, as an attribute or in an import.  Also, as "Class.method", the
    methods of a top-level class that are private, or that belong to a
    private class, that no module reads (dunders aside); a method is read
    when its name is, on any object."""
    defined, methods, used = set(), set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                methods |= {
                    (node.name, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                    and (_private(node.name) or _private(item.name))
                }
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    stranded = [n for n in defined - used if _private(n)]
    return sorted(stranded + [f"{cls}.{name}" for cls, name in methods if name not in used])


def test_every_private_name_is_used():
    assert _stranded_private_names([path.read_text(encoding="utf-8") for path in SOURCES]) == []


def test_the_private_name_check_sees_a_stranded_helper():
    helpers = "def _used():\n    pass\n\n\ndef _stranded(n):\n    return _used()\n\n\n_LIMIT = 3\n_SHARED: int = 4\n"
    reader = "from helpers import _SHARED\n\nx = _LIMIT\n"
    assert _stranded_private_names([helpers, reader]) == ["_stranded"]
    assert _stranded_private_names([helpers]) == ["_LIMIT", "_SHARED", "_stranded"]


def test_the_private_name_check_sees_a_stranded_method():
    helpers = (
        "class _Plan:\n    def run(self):\n        return self._step()\n\n    def _step(self):\n        pass\n\n"
        "    def wrapper(self):\n        return self.run()\n\n    def __len__(self):\n        return 0\n\n\n"
        "class Public:\n    def method(self):\n        pass\n\n    def _helper(self):\n        pass\n"
    )
    reader = "from helpers import _Plan\n\nx = _Plan().run()\n"
    assert _stranded_private_names([helpers, reader]) == ["Public._helper", "_Plan.wrapper"]
    assert _stranded_private_names([helpers]) == ["Public._helper", "_Plan", "_Plan.wrapper"]


def test_import_loads_no_heavy_or_concurrency_module():
    # the package is imported by every entry point and by the benchmark's
    # set-up time; scipy.special alone takes about a third of a second
    banned = {"scipy", "numba", "concurrent", "multiprocessing", "asyncio", "subprocess"}
    code = "import sys, mixedwidths; print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))"
    src = str(Path(mixedwidths.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "mixedwidths" in loaded.stdout.split()
    assert banned & set(loaded.stdout.split()) == set()
