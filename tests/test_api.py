import ast
import os
import subprocess
import sys
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
