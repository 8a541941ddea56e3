"""Every imported name is read somewhere in its module, and start-up
loads no standard module that ``kcorr run`` never uses.

No linter is a dependency, so this walks the syntax trees of the package
and of the tests.  Package ``__init__`` modules are skipped: their imports
are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in (ROOT / "src" / "kcorr", ROOT / "tests")
                 for p in d.rglob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path):
    """(line, name) of each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_no_unused_imports():
    assert {"pairing.py", "matrix.py", "test_imports.py"} <= {p.name for p in MODULES}
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in MODULES for line, name in unused_imports(path)]
    assert not unused, "imported and never read:\n" + "\n".join(unused)


def test_cli_import_loads_no_unneeded_stdlib():
    """Each ``kcorr run`` pays for every module ``import kcorr.cli`` loads;
    these three are needed only by code that imports them when it runs."""
    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code + "import sys; print(*sys.modules)"],
                             env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                             capture_output=True, text=True, check=True).stdout
        return set(out.split())

    added = loaded("import kcorr.cli; ") - loaded("")
    assert "kcorr.cli" in added
    assert not added & {"dataclasses", "hashlib", "json"}
