import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import padiclat


def test_public_api_resolves():
    # guards removals from the public API: every exported name must exist
    missing = [name for name in padiclat.__all__ if not hasattr(padiclat, name)]
    assert missing == []


def _unused_imports(source: str):
    """Names a module imports but never reads (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # no linter ships with the toolchain: every module but the re-exporting
    # __init__, and every test module, must read each name it imports
    package = Path(padiclat.__file__).parent
    paths = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    found = {f"{path.parent.name}/{path.name}": _unused_imports(path.read_text())
             for path in paths}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_unused_import_check_sees_one():
    src = "import os\nfrom fractions import Fraction as F\nfrom math import gcd\ngcd(F(1), 2)\n"
    assert _unused_imports(src) == [(1, "os")]


def _module_names(tree, modules):
    """The names under which a module binds the package modules ``modules``
    (``from . import fields``, ``from padiclat import bench as bench_mod``)."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in (None, "padiclat")
            for alias in node.names if alias.name in modules}


def _reads(node, bound):
    """Names read under ``node``: bare names, and attributes of the module
    names ``bound`` (``fields.x``)."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            or isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
            and sub.value.id in bound}


def _attributes(node) -> Counter:
    """Attribute names read under ``node`` (``x.name``), with their counts."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _own_names(stmt):
    """The names a top-level statement defines: a function's or a class's,
    or a module-level assignment's targets (dunders aside)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not _dunder(sub.id)}


def _dead_definitions(sources, modules, public=(), outside=()):
    """Top-level functions, classes and constants (module-level assignments,
    dunders aside) of ``sources`` (name -> text) that no source reads
    outside their own definition, that ``public`` does not name and that
    no ``outside`` text reads; then the methods and properties of top-level
    classes (dunders aside, as ``Class.name``) whose name no source reads
    as an attribute outside their own definition and no ``outside`` text
    reads."""
    defined, read = [], set(public)
    methods, attributes = [], Counter()
    for name, source in sources.items():
        tree = ast.parse(source)
        bound = _module_names(tree, modules)
        attributes += _attributes(tree)
        for stmt in tree.body:
            own = _own_names(stmt)
            defined += [(name, o) for o in sorted(own)]
            read |= _reads(stmt, bound) - own
            if isinstance(stmt, ast.ClassDef):
                methods += [(name, stmt.name, sub) for sub in stmt.body
                            if isinstance(sub, ast.FunctionDef) and not _dunder(sub.name)]
    outside_attributes = set()
    for source in outside:
        tree = ast.parse(source)
        read |= _reads(tree, _module_names(tree, modules))
        outside_attributes |= set(_attributes(tree))
    dead = [(name, own) for name, own in defined if own not in read]
    return dead + [(name, f"{cls}.{fn.name}") for name, cls, fn in methods
                   if fn.name not in outside_attributes
                   and attributes[fn.name] == _attributes(fn)[fn.name]]


def test_no_dead_definitions():
    # every top-level function and class is read by the package, exported,
    # or read by the benchmark harness (which reaches package internals);
    # every method and property is read as an attribute by the package or
    # the harness
    package = Path(padiclat.__file__).parent
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))
               if path.name != "__init__.py"}
    perfbench = Path(__file__).parent.parent / "perfbench"
    outside = [path.read_text() for path in sorted(perfbench.glob("*.py"))]
    assert _dead_definitions(sources, set(sources), padiclat.__all__, outside) == []


def test_dead_definition_check_sees_one():
    src = ("from . import util as u\n"
           "__version__ = '1'\n"
           "_LIMIT = 3\n"
           "_UNREAD = 2 ** 61 - 1\n"
           "_SPAN: int = _LIMIT + 1\n"
           "def used(): return helper()\n"
           "def helper(): return u.thing + u.SIZE + _SPAN\n"
           "def dead(): return dead()\n"
           "class Kept:\n"
           "    def __init__(self): self.size\n"
           "    @property\n"
           "    def size(self): return 0\n"
           "    def loop(self): return self.loop()\n"
           "    def timed(self): pass\n"
           "def reached(): pass\n"
           "TABLE = {}\n"
           "EXPORTED = 1\n")
    sources = {"m": src, "util": "def thing(): pass\nSIZE = 2\n"}
    outside = ["from padiclat import m\nKept().timed, m.reached, m.TABLE"]
    assert _dead_definitions(sources, set(sources), ["used", "EXPORTED"], outside) == [
        ("m", "_UNREAD"), ("m", "dead"), ("m", "Kept.loop")]


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, several MB of RSS in every process; only
    # hashing (signing, verifying, fixture digests) needs it
    src = str(Path(padiclat.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, padiclat\n"
            "print(sorted(m for m in ('hashlib', 'secrets') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
